"""Shared measuring helpers: latency statistics, the closed-loop timer,
set-up probes and the result record every workload fills in."""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
#: scratch space of a run (spans, checkpoints, journals); inside the
#: checkout and ignored by git
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: fresh-process set-ups timed per run; setup_s is their median
SETUP_PROBES = 5
#: the constant seed of every fixed (seed-independent) input set
FIXED_SEED = 1991


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def program_env() -> dict:
    """Environment for child processes: this checkout's ``src`` only,
    and the fixed hash seed the bytecode counts rely on."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves
    :data:`TAIL_BEYOND` samples beyond it.  Below four times that many
    samples such a percentile is no tail, and the median stands in."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 4 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def static_instrs(result) -> int:
    """Instructions in every function of one CompileResult."""
    return sum(len(block.instrs) for unit in result
               for block in unit.func.blocks)


@dataclass
class Result:
    """What one run reports: metrics by name, ops and failures, and the
    verdict of the output checks."""

    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def latency(self, ops_per_s: float, latencies_s: list[float]) -> None:
        """The three timing metrics every workload reports."""
        value, pct = tail(latencies_s)
        self.metric("ops_per_s", ops_per_s, "1/s")
        self.metric("op_ms_p50", statistics.median(latencies_s) * 1e3, "ms")
        self.metric("op_ms_tail", value * 1e3, "ms")
        beyond = (f"{TAIL_BEYOND} samples beyond" if pct > 50
                  else f"under {4 * TAIL_BEYOND} samples: the median")
        print(f"latency: {len(latencies_s)} samples, p50 "
              f"{statistics.median(latencies_s) * 1e3:.2f} ms, tail = "
              f"p{pct:.1f} ({beyond}) {value * 1e3:.2f} ms")


@dataclass
class LoopStats:
    """Timings of one closed-loop phase: every successful op's time."""

    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    @property
    def ops_per_s(self) -> float:
        """Successful ops per second of their own time: the timed phase
        less the failed ops, whose work is a fault's, not the program's."""
        return len(self.samples) / sum(self.samples)


def _run_round(ops, run_op, stats: LoopStats, recorder=None) -> None:
    started = time.perf_counter()
    for op in ops:
        span = recorder.begin_op() if recorder is not None else None
        t0 = time.perf_counter()
        ok = run_op(op, recorder is not None)
        t1 = time.perf_counter()
        if span is not None:
            recorder.end_op(span, ok)
        stats.attempted += 1
        if ok:
            stats.samples.append(t1 - t0)
        else:
            stats.failed += 1
    stats.elapsed += time.perf_counter() - started


def closed_loop(rounds, seconds: float, run_op, *, recorder=None,
                install=None) -> tuple[LoopStats, LoopStats | None]:
    """Run whole rounds of ops back to back until ``seconds`` have passed.

    ``rounds(r)`` lists round ``r``'s ops; ``run_op(op, traced)`` runs
    one op and returns False when it failed.  A failed op counts against
    ``attempted`` and gets no latency sample; in the traced run its
    spans and counts are dropped.  Whole rounds keep the share of each
    kind of op the same in every run.

    With a ``recorder`` (the traced run) every round runs twice, plain
    and under the wrappers ``install()`` puts in, the order alternating
    from round to round, so the two throughputs compare the same ops;
    returns (plain, traced) stats.
    """
    plain = LoopStats()
    traced = LoopStats() if recorder is not None else None
    started = time.perf_counter()
    r = 0
    while True:
        ops = list(rounds(r))
        if recorder is None or r % 2 == 0:
            _run_round(ops, run_op, plain)
        if recorder is not None:
            install()
            try:
                _run_round(ops, run_op, traced, recorder)
            finally:
                recorder.uninstall()
            if r % 2:
                _run_round(ops, run_op, plain)
        r += 1
        if time.perf_counter() - started >= seconds:
            break
    return plain, traced


def report_overhead(plain: LoopStats, traced: LoopStats) -> None:
    print(f"tracing overhead: traced {traced.ops_per_s:.2f} ops/s against "
          f"untraced {plain.ops_per_s:.2f} ops/s on the same ops "
          f"({100.0 * (plain.ops_per_s / traced.ops_per_s - 1):+.1f}% "
          f"time)")


def probe_setup(workload: str, seed: int, count: int = SETUP_PROBES
                ) -> list[float]:
    """Time ``count`` fresh processes from spawn until their workload is
    set up and one op could begin (they print ``ready`` and exit)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=program_env(), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit "
                               f"{proc.returncode}): {line!r}")
    return samples


def report_setup(result: Result, samples: list[float]) -> None:
    result.metric("setup_s", statistics.median(samples), "s")
    print("setup: " + ", ".join(f"{s:.3f}" for s in samples)
          + f" s over {len(samples)} fresh processes (median reported)")
