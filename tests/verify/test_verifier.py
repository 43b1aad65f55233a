"""The static schedule verifier: clean passes, hand-made violations, and
mutation smoke tests (a deliberately broken scheduler heuristic must be
caught)."""

import pytest

from repro.bench.programs import MINMAX_C
from repro.compiler import compile_c
from repro.machine.rs6k import rs6k
from repro.sched.candidates import ScheduleLevel
from repro.sched.speculation import LiveOnExitTracker
from repro.verify import ScheduleVerificationError, verify_schedule
from repro.xform.pipeline import PipelineConfig

TWO_ARMS = """
int f(int c) {
    int x = 0;
    if (c > 0) { x = 5; } else { x = 3; }
    return x;
}
"""

CHAIN = """
int f(int a, int p[]) {
    p[0] = a + 3;
    int x = p[0] * 2;
    p[1] = x - a;
    return p[1] + x;
}
"""

DISJUNCTION = """
int g(int a, int b, int p[]) {
    int x = 1;
    if (a > 0 || b > 0) { x = (p[0] + 7) * b; }
    return x;
}
"""


def verified_config(level, **kwargs):
    return PipelineConfig(level=level, verify=True, **kwargs)


@pytest.mark.parametrize("level", list(ScheduleLevel))
@pytest.mark.parametrize("source", [TWO_ARMS, CHAIN, DISJUNCTION, MINMAX_C])
def test_clean_schedules_verify(source, level):
    result = compile_c(source, level=level,
                       config=verified_config(level))
    for unit in result:
        assert unit.report.verify_reports, "verify=True produced no reports"
        for report in unit.report.verify_reports:
            assert report.ok


def test_identity_schedule_verifies():
    """before == after with no motions is trivially legal; no block
    changed its order, so no edge needs judging."""
    result = compile_c(TWO_ARMS, level=ScheduleLevel.NONE)
    func = result["f"].func
    report = verify_schedule(func.clone(), func, rs6k(),
                             level=ScheduleLevel.NONE)
    assert report.ok
    assert report.checked_edges == 0


def _swap_independent_pair(block) -> bool:
    """Swap the first adjacent body pair that shares no register and not
    both touch memory; False when the block has none."""
    body = block.body
    for a, b in zip(body, body[1:]):
        regs_a = set(a.reg_defs()) | set(a.reg_uses())
        regs_b = set(b.reg_defs()) | set(b.reg_uses())
        if regs_a & regs_b or (a.opcode.touches_memory
                               and b.opcode.touches_memory):
            continue
        i = block.index_of(a)
        block.instrs[i], block.instrs[i + 1] = b, a
        return True
    return False


def test_changed_block_has_its_edges_judged():
    """A legal reorder changes its block, whose edges are all judged."""
    func = compile_c(TWO_ARMS, level=ScheduleLevel.NONE)["f"].func
    before = func.clone()
    assert any(_swap_independent_pair(b) for b in func.blocks)
    report = verify_schedule(before, func, rs6k(), level=ScheduleLevel.NONE)
    assert report.ok
    assert report.checked_edges > 0


def test_clone_preserves_uids_and_counters():
    func = compile_c(TWO_ARMS, level=ScheduleLevel.NONE)["f"].func
    copy = func.clone()
    assert [b.label for b in copy.blocks] == [b.label for b in func.blocks]
    for ours, theirs in zip(func.instructions(), copy.instructions()):
        assert ours.uid == theirs.uid
        assert ours is not theirs
    assert copy._next_uid == func._next_uid
    fresh_a, fresh_b = func.new_gpr(), copy.new_gpr()
    assert fresh_a == fresh_b  # counters advanced in lockstep


def test_vanished_instruction_is_reported():
    func = compile_c(CHAIN, level=ScheduleLevel.NONE)["f"].func
    before = func.clone()
    block = func.entry
    victim = block.body[0]
    block.remove(victim)
    report = verify_schedule(before, func, rs6k(),
                             level=ScheduleLevel.NONE,
                             raise_on_error=False)
    assert any(i.kind == "conservation" and i.uid == victim.uid
               for i in report.issues)


def test_reordered_flow_dependence_is_reported():
    func = compile_c(CHAIN, level=ScheduleLevel.NONE)["f"].func
    before = func.clone()
    block = func.entry
    body = block.body
    # swap two body instructions that carry a dependence
    for i in range(len(body) - 1):
        a, b = body[i], body[i + 1]
        if set(a.reg_defs()) & set(b.reg_uses()):
            block.instrs.remove(a)
            block.instrs.insert(block.index_of(b) + 1, a)
            break
    else:
        pytest.skip("no adjacent dependent pair")
    report = verify_schedule(before, func, rs6k(),
                             level=ScheduleLevel.NONE,
                             raise_on_error=False)
    assert any(i.kind == "dependence" for i in report.issues)


STORE_IF = """
int h(int c, int p[]) {
    int x = c * 2;
    if (c > 0) { p[0] = c + 1; }
    return x;
}
"""


def test_illegal_cross_block_move_is_reported():
    """Manually hoisting a store above its branch is never legal (stores
    may not be executed speculatively)."""
    func = compile_c(STORE_IF, level=ScheduleLevel.NONE)["h"].func
    before = func.clone()
    store = next(ins for ins in func.instructions()
                 if ins.writes_memory)
    home = next(b for b in func.blocks if store in b.instrs)
    home.remove(store)
    func.entry.insert_before_terminator(store)
    report = verify_schedule(before, func, rs6k(),
                             level=ScheduleLevel.SPECULATIVE,
                             raise_on_error=False)
    assert any(i.kind == "placement" for i in report.issues)


def test_local_pass_must_not_move_across_blocks():
    func = compile_c(TWO_ARMS, level=ScheduleLevel.NONE)["f"].func
    before = func.clone()
    movable = next(ins for ins in func.blocks[1].body
                   if ins.opcode.can_move_globally)
    func.blocks[1].remove(movable)
    func.entry.insert_before_terminator(movable)
    report = verify_schedule(before, func, rs6k(),
                             level=ScheduleLevel.NONE,
                             raise_on_error=False)
    assert any(i.kind == "placement" and "local-only" in i.message
               for i in report.issues)


# -- mutation smoke tests: break the scheduler, expect the verifier to bite


def test_mutated_liveness_rule_is_caught(monkeypatch):
    """Disable Section 5.3's live-on-exit test: both arms' definitions
    hoist above the branch and the replay must reject the second one."""
    monkeypatch.setattr(LiveOnExitTracker, "blocks_motion",
                        lambda self, ins, target: False)
    with pytest.raises(ScheduleVerificationError) as exc:
        compile_c(TWO_ARMS, level=ScheduleLevel.SPECULATIVE,
                  config=verified_config(ScheduleLevel.SPECULATIVE,
                                         rename_on_demand=False))
    assert any(i.kind == "speculation" for i in exc.value.report.issues)


def test_mutated_dependence_rule_is_caught(monkeypatch):
    """A scheduler that believes every instruction is always ready emits
    dependence-inverted code; the verifier must reject it.  The broken
    readiness authority is the basic-block pass's predecessor counters
    (the post-pass reorders every block after global scheduling)."""
    from repro.sched import bb_sched

    monkeypatch.setattr(bb_sched, "_initial_blocked",
                        lambda dense: [0] * dense.n)
    with pytest.raises(ScheduleVerificationError) as exc:
        compile_c(CHAIN, level=ScheduleLevel.SPECULATIVE,
                  config=verified_config(ScheduleLevel.SPECULATIVE))
    assert any(i.kind == "dependence" for i in exc.value.report.issues)


def test_mutated_dominance_rule_is_caught(monkeypatch):
    """Regression guard for the Definition 6 dominance requirement: if
    every block claims to dominate every other, speculative candidates
    leak across non-dominated joins and the verifier must notice."""
    from repro.cfg.dominators import DominatorTree

    monkeypatch.setattr(DominatorTree, "strictly_dominates",
                        lambda self, a, b: True)
    with pytest.raises(ScheduleVerificationError):
        compile_c(DISJUNCTION, level=ScheduleLevel.SPECULATIVE,
                  config=verified_config(ScheduleLevel.SPECULATIVE))


# -- dependences through a collapsed inner loop

LOOP_THEN_USE = """
int f(int n, int p[]) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + p[i]; i = i + 1; }
    int t = s * 3;
    return t;
}
"""


def test_hoist_across_an_inner_loop_it_depends_on_is_reported():
    """The loop exit is equivalent to the entry, so hoisting its code is a
    legal useful placement -- but the MUL reads the sum the loop computes.
    Edges to the loop's barrier must be judged at its pseudo-block."""
    unit = compile_c(LOOP_THEN_USE, level=ScheduleLevel.NONE)["f"]
    func = unit.func
    before = func.clone()
    exit_block = next(b for b in func.blocks
                      if b.terminator is not None
                      and b.terminator.opcode.mnemonic == "RET")
    hoisted = exit_block.body
    assert [i.opcode.mnemonic for i in hoisted] == ["LI", "MUL"]
    for ins in hoisted:
        exit_block.remove(ins)
        func.entry.insert_before_terminator(ins)
    assert unit.run(3, [1, 2, 3]).return_value == 0  # was (1+2+3)*3
    report = verify_schedule(before, func, rs6k(),
                             level=ScheduleLevel.USEFUL,
                             raise_on_error=False)
    mul = hoisted[1]
    assert any(i.kind == "dependence" and i.uid == mul.uid
               and "<loop" in i.message for i in report.issues)


# -- the verifier judges only what a sweep changed


def _sweeps(source, level, monkeypatch):
    """(before, after, kwargs) of every verified sweep of one compile,
    both sides cloned as the pipeline handed them over."""
    import repro.verify.verifier as verifier

    real = verifier.verify_schedule
    sweeps = []

    def spy(before, after, machine, **kwargs):
        sweeps.append((before.clone(), after.clone(), kwargs))
        return real(before, after, machine, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(verifier, "verify_schedule", spy)
        compile_c(source, level=level, config=verified_config(level))
    return sweeps


def _changed(before, after):
    return {b.label for b, a in zip(before.blocks, after.blocks)
            if [i.uid for i in b.instrs] != [i.uid for i in a.instrs]}


def test_local_sweep_needs_no_region(monkeypatch):
    """A bb-post sweep is judged block by block: no region, no PDG."""
    import repro.verify.verifier as verifier

    def no_regions(*args, **kwargs):
        raise AssertionError("a local sweep built a region")

    monkeypatch.setattr(verifier, "find_regions", no_regions)
    monkeypatch.setattr(verifier, "build_region_pdg", no_regions)
    result = compile_c(MINMAX_C, level=ScheduleLevel.NONE,
                       config=verified_config(ScheduleLevel.NONE))
    reports = [r for unit in result for r in unit.report.verify_reports]
    assert reports
    for report in reports:
        assert report.ok
        assert report.checked_edges > 0
        assert report.checked_regions == 0


def test_local_sweep_builds_ddgs_only_for_changed_blocks(monkeypatch):
    """An unchanged block's edges all still run forward, so a local sweep
    builds no DDG for it; an inversion in a changed block is reported."""
    import repro.pdg.data_deps as data_deps

    func = compile_c(MINMAX_C, level=ScheduleLevel.NONE)["minmax"].func
    before = func.clone()
    for block in func.blocks:
        instrs = block.body
        pair = next(((a, b) for a, b in zip(instrs, instrs[1:])
                     if set(a.reg_defs()) & set(b.reg_uses())), None)
        if pair is not None:
            break
    else:
        pytest.fail("no adjacent flow-dependent pair in minmax")
    a, b = pair
    i = block.index_of(a)
    block.instrs[i], block.instrs[i + 1] = b, a
    real = data_deps.build_block_ddg
    built = []

    def spy(blk, machine, **kwargs):
        built.append(blk.label)
        return real(blk, machine, **kwargs)

    monkeypatch.setattr(data_deps, "build_block_ddg", spy)
    report = verify_schedule(before, func, rs6k(), level=ScheduleLevel.NONE,
                             raise_on_error=False)
    assert len(func.blocks) > 1
    assert built == [block.label]
    assert report.checked_edges > 0
    assert any(i.kind == "dependence" and i.uid == b.uid
               for i in report.issues)


def test_verified_sweep_walks_the_ir_once(monkeypatch):
    """A verified compile calls ``verify_function`` as often as an
    unverified one: each sweep's walk is ``verify_schedule``'s."""
    import repro.verify.verifier as verifier
    import repro.xform.pipeline as pipeline

    calls = []
    for module in (pipeline, verifier):
        def counted(func, _real=module.verify_function):
            calls.append(func.name)
            return _real(func)

        monkeypatch.setattr(module, "verify_function", counted)
    for level in ScheduleLevel:
        counts = []
        for verify in (False, True):
            calls.clear()
            result = compile_c(MINMAX_C, level=level,
                               config=PipelineConfig(level=level,
                                                     verify=verify))
            counts.append(len(calls))
            assert all(r.ok for u in result for r in u.report.verify_reports)
        assert counts[0] == counts[1] > 0, (level, counts)


def test_malformed_sweep_output_is_a_skeleton_issue(monkeypatch):
    """With the stage's own IR walk skipped, a verified sweep that leaves
    malformed IR is still caught -- by ``verify_schedule``'s walk."""
    import repro.xform.pipeline as pipeline
    from repro.ir.operand import MemRef, gpr

    real = pipeline.schedule_function_blocks

    def malformed(func, machine):
        cycles = real(func, machine)
        plain = next(ins for ins in func.instructions()
                     if ins.opcode.mnemonic == "LI")
        plain.mem = MemRef(gpr(1), 0)
        return cycles

    monkeypatch.setattr(pipeline, "schedule_function_blocks", malformed)
    level = ScheduleLevel.NONE
    with pytest.raises(ScheduleVerificationError) as caught:
        compile_c(TWO_ARMS, level=level, config=verified_config(level))
    (issue,) = caught.value.report.issues
    assert issue.kind == "skeleton"
    assert "memory operand mismatch" in issue.message


def test_global_sweep_builds_only_changed_regions(monkeypatch):
    import repro.verify.verifier as verifier
    from repro.sched.regions import find_regions

    sweeps = _sweeps(MINMAX_C, ScheduleLevel.USEFUL, monkeypatch)
    global_sweeps = [s for s in sweeps
                     if s[2]["level"] is ScheduleLevel.USEFUL]
    assert len(global_sweeps) == 2
    real_build = verifier.build_region_pdg
    skipped = 0
    for before, after, kwargs in global_sweeps:
        built = []

        def spy(func, machine, spec, **kw):
            built.append(spec.header_node)
            return real_build(func, machine, spec, **kw)

        changed = _changed(before, after)
        regions = find_regions(before)
        expected = {spec.header_node for spec in regions
                    if changed & set(spec.member_labels)}
        with monkeypatch.context() as patch:
            patch.setattr(verifier, "build_region_pdg", spy)
            report = verify_schedule(before, after, rs6k(), **kwargs)
        assert report.ok
        assert sorted(built) == sorted(expected)
        assert report.checked_regions == len(expected)
        skipped += len(regions) - len(expected)
    assert skipped > 0, "every sweep touched every region"


def test_inversion_in_a_region_the_sweep_left_alone_is_reported(
        monkeypatch):
    """Pass 1 schedules only the inner loop; a dependence inverted by hand
    in the untouched body region must still be caught."""
    from repro.sched.regions import find_regions

    before, after, kwargs = next(
        s for s in _sweeps(MINMAX_C, ScheduleLevel.USEFUL, monkeypatch)
        if s[2]["level"] is ScheduleLevel.USEFUL)
    body = next(spec for spec in find_regions(before) if spec.kind == "body")
    assert not _changed(before, after) & set(body.member_labels)
    for label in body.member_labels:
        block = after.block(label)
        instrs = block.body
        pair = next(((a, b) for a, b in zip(instrs, instrs[1:])
                     if set(a.reg_defs()) & set(b.reg_uses())), None)
        if pair is not None:
            break
    else:
        pytest.fail("no adjacent flow-dependent pair in the body region")
    a, b = pair
    i = block.index_of(a)
    block.instrs[i], block.instrs[i + 1] = b, a
    report = verify_schedule(before, after, rs6k(),
                             **dict(kwargs, raise_on_error=False))
    assert any(i.kind == "dependence" and i.uid == b.uid
               for i in report.issues)


# -- the snapshot is read, never written


def test_verifying_leaves_the_snapshot_unchanged():
    """Building a region PDG gives each collapsed inner loop a barrier
    with a fresh uid; the verifier builds its PDGs on ``before`` but must
    hand the snapshot back as it got it, counter included."""
    from repro.compiler import lower_source
    from repro.ir.printer import format_function
    from repro.sched.driver import global_schedule

    func = lower_source(MINMAX_C)["minmax"].func
    machine = rs6k()
    before = func.clone()
    sweep = global_schedule(func, machine, ScheduleLevel.SPECULATIVE)
    next_uid, text = before._next_uid, format_function(before)
    report = verify_schedule(before, func, machine,
                             level=ScheduleLevel.SPECULATIVE,
                             motions=sweep.motions)
    assert report.checked_regions > 0
    assert before._next_uid == next_uid
    assert format_function(before) == text


def test_motion_from_another_region_is_reported():
    """A recorded motion whose source lies outside its target's region is
    a speculation issue, not a crash of the replay."""
    from dataclasses import replace

    from repro.compiler import lower_source
    from repro.sched.driver import global_schedule
    from repro.sched.regions import find_regions

    func = lower_source(MINMAX_C)["minmax"].func
    machine = rs6k()
    before = func.clone()
    sweep = global_schedule(func, machine, ScheduleLevel.SPECULATIVE)
    motion = sweep.motions[0]
    region = next(spec for spec in find_regions(before)
                  if motion.dst in spec.member_labels)
    outside = next(b.label for b in before.blocks
                   if b.label not in region.member_labels)
    report = verify_schedule(before, func, machine,
                             level=ScheduleLevel.SPECULATIVE,
                             motions=[replace(motion, src=outside)],
                             raise_on_error=False)
    assert [i.message for i in report.issues
            if i.kind == "speculation"] == [
        f"{replace(motion, src=outside)!r} comes from outside its "
        f"target's region"]
