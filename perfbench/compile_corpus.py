"""``compile_corpus``: a closed loop compiling a seeded corpus.

One op is one ``compile_c`` at the speculative level on ``rs6k``.  No
simulator, verifier or service runs inside an op, so the scheduler does
most of the work.  Each round is twelve corpus programs and one compile
of a fixed program with ``allow_duplication=True`` on ``ss2`` -- a
program on which the global scheduler stalls and raises (see
README.md).  Those compiles are counted as failed ops, one in every
thirteen, until the fault is mended.
"""

from __future__ import annotations

from repro.bench.programs import MINMAX_C
from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.obs.metrics import MetricsCollector
from repro.sched.candidates import ScheduleLevel
from repro.sim import bsp
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.xform.pipeline import PipelineConfig

import bytecodes
import corpus
import measure
import spans

#: 9 strata x 12 = 108 programs per seed, each compiled about eight
#: times in a run
PER_STRATUM = 12
#: corpus compiles per round, before the round's duplication compile
ROUND = 12
#: programs derive_seed(1991, i) that stall with duplication on ss2
STALL_INDICES = (30, 64, 140, 151)
STALL_MESSAGE = "scheduler stalled"
#: the fixed compile set (code_instrs, sim_cycles_geomean): 3 per stratum
REFERENCE_PER_STRATUM = 3
#: how many of the fixed set the bytecode pass compiles
COUNTED = 9

SPEC = ScheduleLevel.SPECULATIVE


def setup(seed: int) -> dict:
    state = {
        "corpus": corpus.stratified(seed, PER_STRATUM),
        "stalls": [generate_program(derive_seed(measure.FIXED_SEED, i))
                   for i in STALL_INDICES],
        "rs6k": CONFIGS["rs6k"](),
        "ss2": CONFIGS["ss2"](),
    }
    # one compile of each kind loads everything an op needs lazily; the
    # same programs for every seed, so set-up time does not follow the seed
    compile_c(MINMAX_C, machine=state["rs6k"], level=SPEC)
    _compile_stall(state, 0, None)
    return state


def _compile_stall(state, index: int, metrics):
    config = PipelineConfig(level=SPEC, allow_duplication=True,
                            metrics=metrics)
    try:
        return compile_c(state["stalls"][index].source, machine=state["ss2"],
                         level=SPEC, config=config)
    except RuntimeError as exc:
        if STALL_MESSAGE not in str(exc):
            raise
        return None


def run(state: dict, seconds: float, trace: bool) -> measure.Result:
    result = measure.Result()
    programs = state["corpus"]
    rs6k = state["rs6k"]
    compiled: dict[int, object] = {}
    stall_outcomes: dict[int, object] = {}
    collector = MetricsCollector() if trace else None

    def rounds(r: int):
        start = r * ROUND
        ops = [("corpus", (start + j) % len(programs)) for j in range(ROUND)]
        ops.append(("stall", r % len(STALL_INDICES)))
        return ops

    def run_op(op, traced: bool) -> bool:
        kind, index = op
        metrics = collector if traced else None
        try:
            if kind == "corpus":
                config = PipelineConfig(level=SPEC, metrics=metrics)
                compiled.setdefault(index, compile_c(
                    programs[index].source, machine=rs6k, level=SPEC,
                    config=config))
                return True
            # a stalled compile's counters must not reach the traced
            # figures, so it counts into a collector of its own
            own = MetricsCollector() if traced else None
            outcome = _compile_stall(state, index, own)
            if outcome is not None and traced:
                collector.merge(own)
            stall_outcomes.setdefault(index, outcome)
            return outcome is not None
        except Exception as exc:  # any other failure is a wrong answer
            result.check(False, f"{kind} op {index} raised {exc!r}")
            return False

    recorder = spans.SpanRecorder() if trace else None
    plain, traced = measure.closed_loop(
        rounds, seconds, run_op, recorder=recorder,
        install=lambda: spans.install_compile_path(recorder))
    rss = measure.peak_rss_mb()
    result.attempted, result.failed = plain.attempted, plain.failed
    print(f"timed: {plain.attempted} compiles in {plain.elapsed:.2f} s, "
          f"{plain.failed} failed (the duplication stall)")

    # -- output checks, outside the timed phase ---------------------------
    for index, program in enumerate(programs):
        unit = compiled.get(index) or compile_c(program.source,
                                                machine=rs6k, level=SPEC)
        _check_program(result, program, unit, f"corpus[{index}]")
    for index, outcome in stall_outcomes.items():
        if outcome is not None:  # the stall is mended: check it like any
            _check_program(result, state["stalls"][index], outcome,
                           f"duplication[{index}]")

    # -- exact counts over the fixed compile set ----------------------------
    reference = corpus.stratified(measure.FIXED_SEED, REFERENCE_PER_STRATUM)
    counted = reference[:COUNTED]
    for program in counted:  # warm: lazy state is built before counting
        compile_c(program.source, machine=rs6k, level=SPEC)
    counter = bytecodes.BytecodeCounter(measure.PACKAGE, measure.HERE)
    with counter:
        for program in counted:
            compile_c(program.source, machine=rs6k, level=SPEC)
    bytecodes.report(result, counter.by_layer(), len(counted), trace)

    if trace:
        measure.report_overhead(plain, traced)
        ops = len(traced.samples)  # the stalled compiles are left out
        spans.layer_report(result, recorder, ops)
        spans.figure7_share(result, recorder, "op")
        _per_op_counts(result, recorder, collector, ops)
        recorder.dump(measure.out_path("compile_corpus.spans.jsonl"))
        return result

    instrs = 0
    cycles = []
    for program in reference:
        unit = compile_c(program.source, machine=rs6k, level=SPEC)
        instrs += measure.static_instrs(unit)
        cycles.append(unit.run(program.entry, *program.entry_args).cycles)
    result.latency(plain.ops_per_s, plain.samples)
    result.metric("peak_rss_mb", rss, "MB")
    result.metric("code_instrs", instrs, "count")
    result.metric("sim_cycles_geomean", measure.geomean(cycles), "cycles")
    print(f"fixed compile set: {len(reference)} programs, {instrs} static "
          f"instructions, geomean {measure.geomean(cycles):.2f} cycles")
    return result


def _check_program(result, program, unit, label: str) -> None:
    run = corpus.check_semantics(result, program, unit, label)
    verdict = bsp.check_bsp(run.execution.instr_trace, unit.machine,
                            run.cycles)
    result.check(verdict.ok and run.cycles >= verdict.bound.lower_bound,
                 f"{label}: {verdict.format()}")


def _per_op_counts(result, recorder, collector, ops: int) -> None:
    result.metric("sched.motions", recorder.counts["sched.motions"] / ops,
                  "count")
    result.metric("sched.regions",
                  collector.counters.get("sched.regions", 0) / ops, "count")
    result.metric("sim.dyn_instrs", recorder.counts["sim.dyn_instrs"] / ops,
                  "count")

