"""The Section 5.2 order checker (:mod:`repro.verify.order`).

A traced, verified compile replays every global sweep's decision events
against the pre-sweep snapshot: each issue must have been ready, must
outrank every ready candidate with a free unit, and no cycle may end
idle while a ready candidate had a slot.  The sweep passes must hold on
every machine and level, under the optional paths and custom decision
orders; seeded scheduler bugs must be rejected -- including one in the
shared D/CP code no byte-identity check against a second engine could
see.  The basic-block post-pass is held to the same properties, its
cycles rebuilt from the emitted order.
"""

from dataclasses import replace

import pytest

from repro.bench.programs import MINMAX_C
from repro.compiler import compile_c
from repro.ir.basic_block import BasicBlock
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.configs import CONFIGS
from repro.obs import CollectingTracer
from repro.obs.events import SpeculationRejected
from repro.pdg.data_deps import build_block_ddg
from repro.sched import bb_sched, global_sched, heuristics, soa
from repro.sched.candidates import Candidate, ScheduleLevel
from repro.sched.driver import global_schedule
from repro.sched.profiling import BranchProfile, make_profile_priority_fn
from repro.verify import ScheduleVerificationError, order, verify_schedule
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.verify.order import BlockJudge, check_order, d_and_cp, separation
from repro.verify.verifier import VerifyReport
from repro.xform.pipeline import PipelineConfig

#: fuzz-corpus seeds; index 13 is the perf suite's largest program
CORPUS_INDICES = (0, 3, 7, 13)

SPEC = ScheduleLevel.SPECULATIVE


def order_checked(source, level=SPEC, machine="rs6k", **kwargs):
    """Compile traced and verified: the order check runs on both global
    sweeps.  Returns the number of reports per unit (verifier and order
    check together)."""
    config = PipelineConfig(level=level, verify=True,
                            trace=CollectingTracer(), **kwargs)
    result = compile_c(source, machine=CONFIGS[machine](), level=level,
                       config=config)
    return {len(unit.report.verify_reports) for unit in result}


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_minmax_order_everywhere(level, machine):
    # bb-post alone at level none; else two sweeps, each verified and
    # order-checked, then bb-post
    expected = 1 if level is ScheduleLevel.NONE else 5
    assert order_checked(MINMAX_C, level, machine) == {expected}


@pytest.mark.parametrize("kwargs", [{"allow_duplication": True},
                                    {"rename_on_demand": False}],
                         ids=["duplication", "no-rename-on-demand"])
def test_optional_paths_order(kwargs):
    assert order_checked(MINMAX_C, **kwargs) == {5}


@pytest.mark.parametrize("index", CORPUS_INDICES)
@pytest.mark.parametrize("machine", ["rs6k", "vliw8"])
def test_fuzz_corpus_order(index, machine):
    order_checked(generate_program(derive_seed(1991, index)).source,
                  machine=machine)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(30))
def test_fuzz_corpus_order_wide_sweep(index):
    program = generate_program(derive_seed(2024, index))
    for machine in sorted(CONFIGS):
        for level in (ScheduleLevel.USEFUL, SPEC):
            order_checked(program.source, level, machine)


def test_untraced_compiles_run_no_order_check(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("the order check ran")

    monkeypatch.setattr(order, "check_order", boom)
    compile_c(MINMAX_C, config=PipelineConfig(verify=True))
    compile_c(MINMAX_C, config=PipelineConfig(trace=CollectingTracer()))
    with pytest.raises(AssertionError, match="order check ran"):
        order_checked(MINMAX_C)


# -- custom priority orders ------------------------------------------------
# the four decision orders of benchmarks/bench_ablation_heuristics.py


def paper_key(ins, *, useful, priorities):
    d, cp = priorities.get(id(ins), (0, 1))
    return (0 if useful else 1, -d, -cp, ins.uid)


def no_class_key(ins, *, useful, priorities):
    d, cp = priorities.get(id(ins), (0, 1))
    return (-d, -cp, ins.uid)


def cp_first_key(ins, *, useful, priorities):
    d, cp = priorities.get(id(ins), (0, 1))
    return (0 if useful else 1, -cp, -d, ins.uid)


def order_only_key(ins, *, useful, priorities):
    return (ins.uid,)


def profile_key(func):
    hot = {block.label: 10 - i for i, block in enumerate(func.blocks)}
    return make_profile_priority_fn(BranchProfile(hot, runs=1), func)


ORDERS = {
    "paper": lambda func: paper_key,
    "no-class": lambda func: no_class_key,
    "cp-first": lambda func: cp_first_key,
    "order-only": lambda func: order_only_key,
    "profile": profile_key,
}


def _unscheduled_functions(source):
    result = compile_c(source, machine=CONFIGS["rs6k"](),
                       level=ScheduleLevel.NONE)
    return [format_function(unit.func) for unit in result]


def _judged_sweep(text, order, judge):
    """Globally schedule the unscheduled function ``text`` under the
    decision order ``order`` and judge the sweep under ``judge`` (both
    ``priority_fn`` factories over the function; None is the paper's)."""
    func = parse_function(text)
    machine, trace = CONFIGS["rs6k"](), CollectingTracer()
    before = func.clone()
    global_schedule(func, machine, SPEC, tracer=trace,
                    priority_fn=order(func))
    return check_order(before, func, trace.events, machine, level=SPEC,
                       priority_fn=judge(func), raise_on_error=False)


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("program", ["minmax", 0, 3, 7])
def test_custom_order_passes_order_check(order, program):
    """A sweep under each custom order keeps *that* order."""
    source = (MINMAX_C if program == "minmax" else
              generate_program(derive_seed(1991, program)).source)
    regions = 0
    for text in _unscheduled_functions(source):
        report = _judged_sweep(text, ORDERS[order], ORDERS[order])
        assert report.ok, report.format()
        regions += report.checked_regions
    assert regions > 0


def test_a_foreign_order_is_rejected():
    """The checker judges the sweep's own order: a sweep scheduled under
    CP-first fails the paper's key wherever the two disagree."""
    assert any(
        not _judged_sweep(text, ORDERS["cp-first"], lambda func: None).ok
        for index in range(6)
        for text in _unscheduled_functions(
            generate_program(derive_seed(1991, index)).source))


def _minmax_sweep():
    """(before, after, events, machine) of one traced minmax sweep."""
    func = parse_function(_unscheduled_functions(MINMAX_C)[0])
    machine, trace = CONFIGS["rs6k"](), CollectingTracer()
    before = func.clone()
    global_schedule(func, machine, SPEC, tracer=trace)
    return before, func, list(trace.events), machine


def _doctor(kind, change):
    """Apply ``change`` to the first event of ``kind`` in a list."""
    def apply(events):
        i = next(k for k, e in enumerate(events) if e.kind == kind)
        return events[:i] + change(events[i]) + events[i + 1:]
    return apply


#: traces that disagree with the schedule or with themselves
DOCTORED = {
    "dropped-issue": _doctor("issue", lambda e: []),
    "repeated-issue": _doctor("issue", lambda e: [e, e]),
    "late-issue": _doctor("issue", lambda e: [replace(e, cycle=e.cycle + 9)]),
    "wrong-carry": _doctor("block_begin",
                           lambda e: [replace(e, carry_cycles=99)]),
    "wrong-length": _doctor("block_end",
                            lambda e: [replace(e, cycles=e.cycles + 1)]),
    "veto-on-own": _doctor("issue", lambda e: [SpeculationRejected(
        label=e.label, uid=e.uid, opcode=e.opcode, home=e.label,
        regs=()), e]),
}


@pytest.mark.parametrize("doctor", sorted(DOCTORED))
def test_a_doctored_trace_is_rejected(doctor):
    before, after, events, machine = _minmax_sweep()
    assert check_order(before, after, events, machine, level=SPEC).ok
    report = check_order(before, after, DOCTORED[doctor](events), machine,
                         level=SPEC, raise_on_error=False)
    assert not report.ok


#: keys the scheduler compares as tuples, like the checker: rows of
#: unequal length (a shorter row ranks ahead of any row it prefixes) and
#: float fields
RAGGED_AND_FLOAT = {
    "variable-length": lambda ins, *, useful, priorities:
        (0, 1, -3, 7)[:2 + ins.uid % 3],
    "float": lambda ins, *, useful, priorities: (0, ins.uid / 2),
}


@pytest.mark.parametrize("key", sorted(RAGGED_AND_FLOAT))
def test_ragged_and_float_keys_pass_the_order_check(key):
    """The engine and the checker compare the same key tuples, ties
    broken in collection order, so a sweep under either order is legal
    and keeps that order."""
    order = RAGGED_AND_FLOAT[key]
    regions = 0
    for program in ("minmax", 0, 3, 7):
        source = (MINMAX_C if program == "minmax" else
                  generate_program(derive_seed(1991, program)).source)
        for text in _unscheduled_functions(source):
            func = parse_function(text)
            machine, trace = CONFIGS["rs6k"](), CollectingTracer()
            before = func.clone()
            sweep = global_schedule(func, machine, SPEC, tracer=trace,
                                    priority_fn=order)
            verify_schedule(before, func, machine, level=SPEC,
                            motions=sweep.motions)
            report = check_order(before, func, trace.events, machine,
                                 level=SPEC, priority_fn=order,
                                 raise_on_error=False)
            assert report.ok, report.format()
            regions += report.checked_regions
    assert regions > 0


# -- seeded scheduler bugs -------------------------------------------------

CORPUS = [MINMAX_C] + [generate_program(derive_seed(1991, i)).source
                       for i in range(4)]


def assert_rejected():
    """Some corpus compile on some machine must fail the order check
    (and only the order check: each seeded bug is a legal schedule)."""
    for source in CORPUS:
        for machine in ("rs6k", "ss2"):
            try:
                order_checked(source, machine=machine)
            except ScheduleVerificationError as exc:
                assert {i.kind for i in exc.report.issues} == {"order"}
                return
    pytest.fail("the seeded bug passed the order check")


def test_rejects_d_and_cp_swapped_in_the_priority_rows(monkeypatch):
    real = global_sched.compute_region_priorities
    monkeypatch.setattr(global_sched, "compute_region_priorities",
                        lambda *args: {k: (cp, d) for k, (d, cp)
                                       in real(*args).items()})
    assert_rejected()


def test_rejects_cp_without_execution_time(monkeypatch):
    """Both old engines shared ``local_priorities``; the checker
    recomputes CP from its definition, so it sees this bug."""
    real = heuristics.local_priorities

    def no_exec(block, ddg, machine):
        out = real(block, ddg, machine)
        for ins in block.instrs:
            d, cp = out[id(ins)]
            out[id(ins)] = (d, cp - machine.exec_time(ins))
        return out

    monkeypatch.setattr(heuristics, "local_priorities", no_exec)
    assert_rejected()


def test_rejects_skipping_the_first_issue_opportunity(monkeypatch):
    """Every block pass lets its first chance to issue go by."""
    real = global_sched._select
    passes = []  # each pass's priority rows, kept alive so they stay apart

    def lazy(ready, rows, units, free):
        if not any(rows is seen for seen in passes):
            passes.append(rows)
            return -1
        return real(ready, rows, units, free)

    monkeypatch.setattr(global_sched, "_select", lazy)
    assert_rejected()


def test_rejects_issue_without_earliest_start_folding(monkeypatch):
    """``mark_issued_idx`` fulfils successors but forgets their timing."""

    def no_fold(self, i, cycle):
        first = not self._fulfilled[i]
        self._fulfilled[i] = 1
        if first:
            self._n_fulfilled += 1
        if self._local[i] == soa._NEVER:
            self._pass_issued.append(i)
        self._local[i] = cycle
        dense = self._dense
        for k in range(dense.succ_off[i], dense.succ_off[i + 1]):
            if first:
                self.blocked[dense.succ_idx[k]] -= 1

    monkeypatch.setattr(soa.DenseDependenceState, "mark_issued_idx", no_fold)
    assert_rejected()


# -- the basic-block post-pass ---------------------------------------------


def judge_bb_block(before, after, machine):
    """Hold one bb-post block pass to the order checker's properties.

    The pass leaves no trace, so its cycles are rebuilt from the emitted
    order: each instruction issues at the first cycle, no earlier than its
    predecessor in the order, where its dependences allow it and a unit
    and an issue slot are free.  Returns the report and the rebuilt
    length."""
    report = VerifyReport(function=before.label, level=ScheduleLevel.NONE)
    ddg = build_block_ddg(before, machine)
    d_cp = d_and_cp([before], ddg, machine)
    term = before.terminator
    cands = [Candidate(ins, before.label, useful=True)
             for ins in before.instrs]
    # the incoming order breaks ties: it encodes the global decisions
    rank = {id(ins): (-d_cp[id(ins)][0], -d_cp[id(ins)][1], i)
            for i, ins in enumerate(before.instrs)}
    by_uid = {c.ins.uid: c for c in cands}
    start: dict[int, int] = {}

    def earliest(ins):
        return max((start[id(e.src)] + separation(e, machine)
                    for e in ddg.preds(ins) if id(e.src) in start),
                   default=0)

    def ready(c, cycle):
        ins = c.ins
        if ins is term and len(start) < len(before.instrs) - 1:
            return False
        return (all(id(e.src) in start for e in ddg.preds(ins))
                and earliest(ins) <= cycle)

    judge = BlockJudge(report, before.label, machine, cands, rank, ready)
    used: dict[int, list] = {}
    cycle = 0
    for emitted in after.instrs:
        cand = by_uid[emitted.uid]
        unit = cand.ins.unit
        cycle = max(cycle, earliest(cand.ins))
        while (len(used.get(cycle, ())) >= machine.total_issue_width
               or used.get(cycle, []).count(unit) >= machine.unit_count(unit)):
            cycle += 1
        used.setdefault(cycle, []).append(unit)
        judge.issue(cand, cycle)
        start[id(cand.ins)] = cycle
    return report, cycle + 1


def bb_post_reports(source, machine_name, level=SPEC):
    """Judge every block of the bb-post pass of each compiled unit:
    (report, rebuilt length == the pass's own length) per block."""
    machine = CONFIGS[machine_name]()
    captured = []
    real = bb_sched.schedule_block

    def spy(block, m):
        snapshot = BasicBlock(block.label, list(block.instrs))
        length = real(block, m)
        captured.append((snapshot, block, length))
        return length

    bb_sched.schedule_block = spy
    try:
        compile_c(source, machine=machine, level=level)
    finally:
        bb_sched.schedule_block = real
    out = []
    for before, after, length in captured:
        if len(before.instrs) > 1:
            report, rebuilt = judge_bb_block(before, after, machine)
            out.append((report, rebuilt == length))
    return out


@pytest.mark.parametrize("machine", ["rs6k", "ss2", "scalar", "vliw8"])
@pytest.mark.parametrize("index", ["minmax", 0, 3])
def test_bb_post_blocks_meet_the_order_properties(index, machine):
    source = (MINMAX_C if index == "minmax" else
              generate_program(derive_seed(1991, index)).source)
    judged = bb_post_reports(source, machine)
    assert judged
    for report, same_length in judged:
        assert report.ok, report.format()
        assert same_length


def test_rejects_bb_rows_without_d(monkeypatch):
    real = bb_sched.local_priorities
    monkeypatch.setattr(bb_sched, "local_priorities",
                        lambda block, ddg, machine: {
                            k: (0, cp) for k, (d, cp)
                            in real(block, ddg, machine).items()})
    for index in range(6):
        source = generate_program(derive_seed(1991, index)).source
        if any(not report.ok
               for report, _ in bb_post_reports(source, "rs6k")):
            return
    pytest.fail("bb-post rows without D passed the order properties")
