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
    """before == after with no motions is trivially legal."""
    result = compile_c(TWO_ARMS, level=ScheduleLevel.NONE)
    func = result["f"].func
    report = verify_schedule(func.clone(), func, rs6k(),
                             level=ScheduleLevel.NONE)
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
