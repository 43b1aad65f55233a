"""``paper_kernels``: the paper's programs, compiled, run and timed.

The five programs of ``repro.bench.programs`` -- minmax (Figure 1) and
the LI, EQNTOTT, ESPRESSO and GCC stand-ins -- at the three levels on
rs6k, ss4, clus2x2 and xdp: 60 cells.  One op is one cell: compile with
the verifier on, run on the seeded inputs, time on the cycle simulator
and cross-check the cycles with the BSP model.  The executor and the
trace simulator do most of the work; the cycles are Figure 8's.
"""

from __future__ import annotations

import random

from repro.bench.programs import MINMAX_WORKLOAD, WORKLOADS
from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.obs.metrics import MetricsCollector
from repro.sched.candidates import ScheduleLevel
from repro.sim import bsp
from repro.verify.fuzz import derive_seed
from repro.xform.pipeline import PipelineConfig

import bytecodes
import corpus
import measure
import spans

KERNELS = [MINMAX_WORKLOAD, *WORKLOADS]
MACHINES = ("rs6k", "ss4", "clus2x2", "xdp")
LEVELS = (ScheduleLevel.NONE, ScheduleLevel.USEFUL,
          ScheduleLevel.SPECULATIVE)
#: the fixed cells the bytecode pass runs, on inputs from the fixed seed
COUNTED = ((0, "rs6k", ScheduleLevel.SPECULATIVE),
           (2, "ss4", ScheduleLevel.USEFUL),
           (1, "clus2x2", ScheduleLevel.NONE))


def _inputs(seed: int) -> list[tuple]:
    """One argument tuple per kernel, shared by all of its cells."""
    return [kernel.make_args(random.Random(derive_seed(seed, k)))
            for k, kernel in enumerate(KERNELS)]


def run_cell(cell, args, metrics=None, recorder=None):
    """Compile (verifier on), run, time and BSP-check one cell."""
    k, machine_name, level = cell
    kernel = KERNELS[k]
    machine = CONFIGS[machine_name]()
    span = recorder.begin("compile") if recorder is not None else None
    unit = compile_c(kernel.source, machine=machine, level=level,
                     config=PipelineConfig(level=level, verify=True,
                                           metrics=metrics))
    if span is not None:
        recorder.end(span)
    run = unit[kernel.entry].run(*corpus.copy_args(args[k]),
                                 call_handlers=kernel.call_handlers)
    verdict = bsp.check_bsp(run.execution.instr_trace, machine, run.cycles)
    return unit, run, verdict


def setup(seed: int) -> dict:
    cells = [(k, m, level) for k in range(len(KERNELS)) for m in MACHINES
             for level in LEVELS]
    random.Random(seed).shuffle(cells)
    args = _inputs(seed)
    # one fixed cell loads everything a cell needs lazily, whatever the seed
    run_cell(COUNTED[0], args)
    return {"cells": cells, "args": args}


def run(state: dict, seconds: float, trace: bool) -> measure.Result:
    result = measure.Result()
    cells, args = state["cells"], state["args"]
    outcomes: dict[tuple, tuple] = {}
    collector = MetricsCollector() if trace else None
    recorder = spans.SpanRecorder() if trace else None

    def rounds(r: int):
        return cells  # every run covers whole passes over the 60 cells

    def run_op(cell, traced: bool) -> bool:
        try:
            outcome = run_cell(cell, args, collector if traced else None,
                               recorder if traced else None)
        except Exception as exc:  # a verifier rejection lands here too
            result.check(False, f"cell {_label(cell)} raised {exc!r}")
            return False
        outcomes.setdefault(cell, outcome)
        return True

    plain, traced = measure.closed_loop(
        rounds, seconds, run_op, recorder=recorder,
        install=lambda: spans.install_compile_path(recorder))
    rss = measure.peak_rss_mb()
    result.attempted, result.failed = plain.attempted, plain.failed
    print(f"timed: {plain.attempted} cells in {plain.elapsed:.2f} s")

    # -- output checks against the hand-written oracles ----------------------
    for cell in cells:
        if cell not in outcomes:
            outcomes[cell] = run_cell(cell, args)
        unit, run_, verdict = outcomes[cell]
        kernel = KERNELS[cell[0]]
        expected_args = corpus.copy_args(args[cell[0]])
        expected = kernel.reference(*expected_args)
        arrays = [a for a in expected_args if isinstance(a, list)]
        label = _label(cell)
        result.check(run_.return_value == expected,
                     f"{label}: returned {run_.return_value}, the oracle "
                     f"says {expected}")
        result.check(run_.arrays == arrays,
                     f"{label}: final arrays differ from the oracle's")
        result.check(all(u.report.verify_reports for u in unit),
                     f"{label}: the verifier did not run")
        result.check(verdict.ok and run_.cycles >= verdict.bound.lower_bound,
                     f"{label}: {verdict.format()}")

    # -- exact counts over the fixed cells -----------------------------------
    fixed_args = _inputs(measure.FIXED_SEED)
    for cell in COUNTED:
        run_cell(cell, fixed_args)
    counter = bytecodes.BytecodeCounter(measure.PACKAGE, measure.HERE)
    with counter:
        for cell in COUNTED:
            run_cell(cell, fixed_args)
    bytecodes.report(result, counter.by_layer(), len(COUNTED), trace)

    if trace:
        measure.report_overhead(plain, traced)
        ops = len(traced.samples)
        spans.layer_report(result, recorder, ops)
        spans.figure7_share(result, recorder, "compile")
        result.metric("sched.motions", recorder.counts["sched.motions"] / ops,
                      "count")
        result.metric("sched.regions",
                      collector.counters.get("sched.regions", 0) / ops,
                      "count")
        result.metric("sim.dyn_instrs",
                      recorder.counts["sim.dyn_instrs"] / ops, "count")
        recorder.dump(measure.out_path("paper_kernels.spans.jsonl"))
        return result

    _figure8(outcomes)
    cycles = [outcomes[cell][1].cycles for cell in cells]
    instrs = sum(measure.static_instrs(outcomes[cell][0]) for cell in cells)
    result.latency(plain.ops_per_s, plain.samples)
    result.metric("peak_rss_mb", rss, "MB")
    result.metric("code_instrs", instrs, "count")
    result.metric("sim_cycles_geomean", measure.geomean(cycles), "cycles")
    return result


def _label(cell) -> str:
    k, machine_name, level = cell
    return f"{KERNELS[k].name}/{machine_name}/{level.value}"


def _figure8(outcomes) -> None:
    """Run-time improvement over BASE per kernel and machine (Figure 8)."""
    print("Figure 8 view: cycles at BASE and run-time improvement (RTI)")
    print(f"  {'kernel':<16}{'machine':<9}{'BASE':>8}{'USEFUL':>9}"
          f"{'SPEC':>9}")
    for k, kernel in enumerate(KERNELS):
        for machine_name in MACHINES:
            base, useful, spec = (outcomes[(k, machine_name, level)][1].cycles
                                  for level in LEVELS)
            print(f"  {kernel.paper_name[:15]:<16}{machine_name:<9}"
                  f"{base:>8}{100 * (base - useful) / base:>8.1f}%"
                  f"{100 * (base - spec) / base:>8.1f}%")
