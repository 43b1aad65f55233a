"""The event-driven scheduler must be indistinguishable from the seed scan.

Contract for the one scheduler engine: the event-driven inner loop
(:mod:`repro.sched.soa`'s ``DenseReadyQueue`` over interned int state +
the bitset/bitmask liveness tracker) and the scan-driven oracle
(:mod:`repro.sched.reference`) produce **byte-identical** output at every
observable level -- assembly, recorded motions, and the full decision
trace (PriorityDecision runner-ups, SpeculationRejected, CycleAdvance
ready counts, UnitOccupancy) -- across machines, scheduling levels,
custom priority orders, and the optional duplication / rename-on-demand
paths.  Anything else means the queue evaluated a candidate the scan
would not have (or vice versa).
"""

import pytest

from repro.compiler import compile_c
from repro.ir.parser import parse_function
from repro.ir.printer import format_function
from repro.machine.configs import CONFIGS
from repro.obs import CollectingTracer, MetricsCollector
from repro.sched import global_sched
from repro.sched.candidates import ScheduleLevel
from repro.sched.driver import global_schedule
from repro.sched.profiling import BranchProfile, make_profile_priority_fn
from repro.sched.reference import (
    reference_scheduler,
    scan_scheduler,
    schedule_block_scan,
)
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.xform.pipeline import PipelineConfig

MINMAX = (
    "int minmax(int a[], int n, int out[]) {\n"
    "    int min = a[0]; int max = min; int i = 1;\n"
    "    while (i < n) {\n"
    "        int u = a[i]; int v = a[i+1];\n"
    "        if (u > v) { if (u > max) max = u; if (v < min) min = v; }\n"
    "        else       { if (v > max) max = v; if (u < min) min = u; }\n"
    "        i = i + 2;\n"
    "    }\n"
    "    out[0] = min; out[1] = max; return 0;\n"
    "}\n"
)

#: fuzz-corpus seeds; index 13 is the perf suite's largest program
CORPUS_INDICES = (0, 3, 7, 13)


def _compile(source, level, machine, **kwargs):
    """(assembly, motions, scrubbed trace events) for one arm."""
    trace = CollectingTracer()
    config = PipelineConfig(level=level, trace=trace,
                            metrics=MetricsCollector(), **kwargs)
    result = compile_c(source, machine=CONFIGS[machine](), level=level,
                       config=config)
    assembly = "\n\n".join(unit.assembly() for unit in result)
    motions = [list(unit.report.motions) for unit in result]

    def scrub(event):
        d = event.to_dict()
        if "elapsed_ms" in d:
            d["elapsed_ms"] = None
        return d

    return assembly, motions, [scrub(e) for e in trace.events]


def assert_arms_agree(source, level, machine, **kwargs):
    """Both engines produce the same output -- or fail the same way.

    A handful of corpus programs hit the (pre-existing, seed-identical)
    scheduler stall guard on narrow machines with duplication enabled;
    equivalence there means both arms raise the *same* stall."""
    def arm():
        try:
            return _compile(source, level, machine, **kwargs)
        except RuntimeError as exc:
            return ("raised", str(exc))

    event_arm = arm()
    with reference_scheduler():
        scan_arm = arm()
    if event_arm[0] == "raised" or scan_arm[0] == "raised":
        assert event_arm == scan_arm, "only one arm stalled"
        return
    assert event_arm[0] == scan_arm[0], "assembly diverged"
    assert event_arm[1] == scan_arm[1], "motions diverged"
    assert event_arm[2] == scan_arm[2], "decision traces diverged"


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_minmax_identical_everywhere(level, machine):
    assert_arms_agree(MINMAX, level, machine)


@pytest.mark.parametrize("kwargs", [{"allow_duplication": True},
                                    {"rename_ahead": True}],
                         ids=["duplication", "rename-ahead"])
def test_optional_paths_identical(kwargs):
    assert_arms_agree(MINMAX, ScheduleLevel.SPECULATIVE, "rs6k", **kwargs)


@pytest.mark.parametrize("index", CORPUS_INDICES)
@pytest.mark.parametrize("machine", ["rs6k", "vliw8"])
def test_fuzz_corpus_identical(index, machine):
    program = generate_program(derive_seed(1991, index))
    assert_arms_agree(program.source, ScheduleLevel.SPECULATIVE, machine)


@pytest.mark.slow
@pytest.mark.parametrize("index", range(30))
def test_fuzz_corpus_identical_wide_sweep(index):
    program = generate_program(derive_seed(2024, index))
    for machine in sorted(CONFIGS):
        assert_arms_agree(program.source, ScheduleLevel.SPECULATIVE,
                          machine, allow_duplication=True)


def test_scan_scheduler_restores_engine():
    before = (global_sched._schedule_block,
              global_sched.DenseDependenceState)
    with scan_scheduler():
        assert global_sched._schedule_block is schedule_block_scan
        assert global_sched.DenseDependenceState is not before[1]
    assert (global_sched._schedule_block,
            global_sched.DenseDependenceState) == before


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


def _schedule_with_order(text, make_order):
    """(assembly, scrubbed trace, metrics) of one global sweep."""
    func = parse_function(text)
    trace = CollectingTracer()
    metrics = MetricsCollector()
    global_schedule(func, CONFIGS["rs6k"](), ScheduleLevel.SPECULATIVE,
                    priority_fn=make_order(func), tracer=trace,
                    metrics=metrics)
    events = [{**e.to_dict(), "elapsed_ms": None} for e in trace.events]
    return format_function(func), events, metrics


def _unscheduled_functions(source):
    result = compile_c(source, machine=CONFIGS["rs6k"](),
                       level=ScheduleLevel.NONE)
    return [format_function(unit.func) for unit in result]


@pytest.mark.parametrize("order", sorted(ORDERS))
@pytest.mark.parametrize("program", ["minmax", 0, 3, 7])
def test_custom_order_matches_reference(order, program):
    """Every custom order runs on the packed-key engine and schedules
    exactly as the reference scheduler does, trace included."""
    source = (MINMAX if program == "minmax" else
              generate_program(derive_seed(1991, program)).source)
    packed = 0
    for text in _unscheduled_functions(source):
        asm, trace, metrics = _schedule_with_order(text, ORDERS[order])
        packed += metrics.counters.get("sched.soa.packed_keys", 0)
        with reference_scheduler():
            ref_asm, ref_trace, _ = _schedule_with_order(text,
                                                         ORDERS[order])
        assert asm == ref_asm, "assembly diverged"
        assert trace == ref_trace, "decision traces diverged"
    assert packed > 0


@pytest.mark.parametrize("bad_key", [
    # rows of unequal length: packing would truncate them to the shortest
    lambda ins, *, useful, priorities: (0, 1, -3, 7)[:2 + ins.uid % 3],
    # a float field has no bit_length
    lambda ins, *, useful, priorities: (0, ins.uid / 2),
], ids=["variable-length", "float"])
def test_priority_fn_contract_is_enforced(bad_key):
    text = _unscheduled_functions(MINMAX)[0]
    with pytest.raises(TypeError, match="tuple of ints of one length"):
        global_schedule(parse_function(text), CONFIGS["rs6k"](),
                        ScheduleLevel.SPECULATIVE, priority_fn=bad_key)
