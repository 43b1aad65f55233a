"""``fuzz_campaign``: differential fuzzing with the verifier on.

Each round is one ``verify.fuzz.fuzz`` campaign of five generated
programs on the default machines (rs6k, scalar, ss2), one worker, no
shrinking, with a checkpoint log.  One op is one program through three
levels x three machines; ops are timed between ``on_progress`` calls.
``verify_schedule`` does a large share of the work here and none in
``compile_corpus``.
"""

from __future__ import annotations

import os
import random
import time

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.sched.candidates import ScheduleLevel
from repro.verify.fuzz import derive_seed, fuzz
from repro.verify.differential import DEFAULT_MACHINES
from repro.verify.generator import generate_program

import bytecodes
import corpus
import measure
import spans

#: programs per campaign (one round), one from each length stratum
ROUND = len(corpus.SHORT_STRATA)
#: fuzzed programs re-checked against their unscheduled lowering
SAMPLE = 6
#: the fixed campaign the bytecode pass runs (one program)
COUNTED_SEED = measure.FIXED_SEED


def setup(seed: int) -> dict:
    # one warm-up campaign loads everything a program needs lazily
    fuzz(1, COUNTED_SEED, jobs=1, shrink=False)
    return {"seed": seed}


def _campaign(master: int, path: str, stats: measure.LoopStats,
              recorder=None):
    """One round: a campaign of ROUND programs, each timed as one op."""
    marks = [time.perf_counter()]
    current = [recorder.begin("op")] if recorder is not None else None

    def on_progress(done: int, _failures: int) -> None:
        marks.append(time.perf_counter())
        if recorder is not None:
            recorder.end(current[0])
            if done < ROUND:
                recorder.op += 1
                current[0] = recorder.begin("op")

    if recorder is not None:
        recorder.op += 1
    report = fuzz(ROUND, master, jobs=1, shrink=False,
                          checkpoint_path=path, on_progress=on_progress)
    stats.elapsed += time.perf_counter() - marks[0]
    stats.attempted += ROUND
    bad = len(report.failures) + len(report.quarantined)
    stats.failed += bad
    if not bad:
        stats.samples += [b - a for a, b in zip(marks, marks[1:])]
    return report


def run(state: dict, seconds: float, trace: bool) -> measure.Result:
    result = measure.Result()
    seed = state["seed"]
    plain = measure.LoopStats()
    traced = measure.LoopStats() if trace else None
    recorder = spans.SpanRecorder() if trace else None
    checkpoint_bytes = 0
    campaigns = []
    masters = corpus.balanced_campaigns(seed)

    def round_(master: int):
        path = measure.out_path(f"fuzz-{master}.ckpt")
        report = _campaign(master, path, plain)
        if trace:
            spans.install_compile_path(recorder)
            try:
                _campaign(master, path, traced, recorder)
            finally:
                recorder.uninstall()
            nonlocal checkpoint_bytes
            checkpoint_bytes += os.path.getsize(path)
        os.remove(path)
        return report

    while not campaigns or plain.elapsed + (
            traced.elapsed if trace else 0.0) < seconds:
        master = next(masters)
        campaigns.append((master, round_(master)))
    rss = measure.peak_rss_mb()
    result.attempted, result.failed = plain.attempted, plain.failed
    print(f"timed: {len(campaigns)} campaigns of {ROUND} programs in "
          f"{plain.elapsed:.2f} s")

    # -- output checks ------------------------------------------------------
    for master, report in campaigns:
        result.check(report.ok and not report.quarantined
                     and report.attempted == ROUND,
                     f"campaign {master}: {report.summary()}")
        for failure in report.failures[:3]:
            result.check(False, failure.format()[:300])
    rng = random.Random(seed)
    rs6k = CONFIGS["rs6k"]()
    fuzzed = sorted({(m, i) for m, _ in campaigns for i in range(ROUND)})
    for master, index in rng.sample(fuzzed, min(SAMPLE, len(fuzzed))):
        program = generate_program(derive_seed(master, index))
        unit = compile_c(program.source, machine=rs6k)
        corpus.check_semantics(result, program, unit,
                               f"fuzz {master}:{index}")

    # -- exact counts over the fixed campaign -------------------------------
    counter = bytecodes.BytecodeCounter(measure.PACKAGE, measure.HERE)
    with counter:
        fuzz(1, COUNTED_SEED, jobs=1, shrink=False)
    bytecodes.report(result, counter.by_layer(), 1, trace)

    if trace:
        measure.report_overhead(plain, traced)
        ops = traced.attempted
        spans.layer_report(result, recorder, ops)
        spans.figure7_share(result, recorder, "compile")
        result.metric("verify.checkpoint_kb",
                      checkpoint_bytes / 1024.0 / ops, "KB")
        result.metric("sched.motions", recorder.counts["sched.motions"] / ops,
                      "count")
        result.metric("sim.dyn_instrs",
                      recorder.counts["sim.dyn_instrs"] / ops, "count")
        recorder.dump(measure.out_path("fuzz_campaign.spans.jsonl"))
        return result

    # code size and cycles of the counted program across the matrix
    program = generate_program(derive_seed(COUNTED_SEED, 0))
    instrs = 0
    cycles = []
    for name in DEFAULT_MACHINES:
        for level in ScheduleLevel:
            unit = compile_c(program.source, machine=CONFIGS[name](),
                             level=level)
            instrs += measure.static_instrs(unit)
            cycles.append(unit.run(program.entry,
                                   *program.entry_args).cycles)
    result.latency(plain.ops_per_s, plain.samples)
    result.metric("peak_rss_mb", rss, "MB")
    result.metric("code_instrs", instrs, "count")
    result.metric("sim_cycles_geomean", measure.geomean(cycles), "cycles")
    print(f"fixed program: {instrs} static instructions over 9 compiles, "
          f"geomean {measure.geomean(cycles):.2f} cycles")
    return result
