"""Per-phase counters, timers, and the paper-style scheduling report.

:class:`MetricsCollector` is the mutable aggregation point the pipeline
and scheduler feed; like the tracer, every hot-path site guards with
``if metrics.enabled:`` so the :data:`NULL_METRICS` default costs one
attribute load.  Collectors merge, so fuzz campaigns can fold per-program
summaries into campaign totals (and workers can ship summaries back as
plain dicts).

:func:`format_stats` renders the "what did the scheduler do" report in
the shape of the paper's evaluation tables: motions by kind per pass,
speculation accounting (considered / vetoed / renamed / accepted),
ready-list pressure, and schedule length per region and block.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class NullMetrics:
    """No-op collector; the scheduler's default."""

    enabled = False

    def inc(self, name: str, n: int = 1) -> None:  # pragma: no cover - dead
        pass

    def observe(self, name: str, value: float) -> None:  # pragma: no cover
        pass

    @contextmanager
    def phase(self, name: str):
        yield


#: process-wide default (stateless, safe to share)
NULL_METRICS = NullMetrics()


class MetricsCollector:
    """Counters + phase timers + value-series observations."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.timers: dict[str, float] = {}
        #: name -> (count, total, max)
        self.series: dict[str, tuple[int, float, float]] = {}

    def inc(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def observe(self, name: str, value: float) -> None:
        count, total, peak = self.series.get(name, (0, 0.0, 0.0))
        self.series[name] = (count + 1, total + value, max(peak, value))

    @contextmanager
    def phase(self, name: str):
        """Time a pipeline phase; elapsed seconds accumulate per name."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.timers[name] = (self.timers.get(name, 0.0)
                                 + time.perf_counter() - started)

    # -- aggregation ---------------------------------------------------------

    def mean(self, name: str) -> float:
        count, total, _peak = self.series.get(name, (0, 0.0, 0.0))
        return total / count if count else 0.0

    def peak(self, name: str) -> float:
        return self.series.get(name, (0, 0.0, 0.0))[2]

    def merge(self, other: "MetricsCollector") -> None:
        self.counters.update(other.counters)
        for name, secs in other.timers.items():
            self.timers[name] = self.timers.get(name, 0.0) + secs
        for name, (count, total, peak) in other.series.items():
            mine = self.series.get(name, (0, 0.0, 0.0))
            self.series[name] = (mine[0] + count, mine[1] + total,
                                 max(mine[2], peak))

    def summary(self) -> dict:
        """A flat, JSON-ready snapshot (fuzz workers return these)."""
        return {
            "counters": dict(self.counters),
            "timers_ms": {k: round(v * 1e3, 3)
                          for k, v in self.timers.items()},
            "series": {
                name: {"n": count, "mean": round(total / count, 3),
                       "max": peak}
                for name, (count, total, peak) in self.series.items()
                if count
            },
        }


# -- the paper-style report --------------------------------------------------

def _motion_row(label: str, motions) -> str:
    useful = sum(1 for m in motions if not m.speculative and not m.duplicated)
    spec = sum(1 for m in motions if m.speculative)
    dup = sum(1 for m in motions if m.duplicated)
    return (f"  {label:<18}{len(motions):>7}{useful:>8}"
            f"{spec:>13}{dup:>12}")


def format_stats(title: str, machine_name: str, level_name: str,
                 units, metrics: "MetricsCollector | None" = None) -> str:
    """Render the scheduling report.

    ``units`` is an iterable of ``(function_name, PipelineReport)`` pairs
    (duck-typed: only ``first_pass``/``second_pass``/``bb_cycles``/
    ``motions``/``elapsed_seconds`` are touched).  ``metrics`` supplies the
    counters the reports cannot carry (vetoes, renames, ready pressure,
    phase timers); it may be None when only motion tables are wanted.
    """
    lines = [f"== scheduling report: {title} "
             f"(machine {machine_name}, level {level_name}) =="]
    for name, report in units:
        lines.append("")
        lines.append(f"function {name}  "
                     f"({report.elapsed_seconds * 1e3:.1f} ms)")
        final_rung = getattr(report, "final_rung", None)
        if final_rung is not None:
            degradations = getattr(report, "degradations", ())
            suffix = (f"  ({len(degradations)} degradation event"
                      f"{'s' if len(degradations) != 1 else ''})"
                      if degradations else "")
            lines.append(f"  resilience rung: {final_rung}{suffix}")
        lines.append(f"  {'pass':<18}{'motions':>7}{'useful':>8}"
                     f"{'speculative':>13}{'duplicated':>12}")
        first = report.first_pass.motions if report.first_pass else []
        second = report.second_pass.motions if report.second_pass else []
        lines.append(_motion_row("first (inner)", first))
        lines.append(_motion_row("second (outer)", second))
        lines.append(_motion_row("total", list(first) + list(second)))
        for sweep_name, sweep in (("first", report.first_pass),
                                  ("second", report.second_pass)):
            if sweep is None:
                continue
            for region in sweep.regions:
                cycles = ", ".join(f"{label} {n}"
                                   for label, n in region.block_cycles.items())
                lines.append(f"  {sweep_name} pass region {region.header}: "
                             f"{cycles}")
        if report.bb_cycles:
            total = sum(report.bb_cycles.values())
            lines.append(f"  post-pass block cycles: {total} total over "
                         f"{len(report.bb_cycles)} blocks")

    if metrics is not None:
        c = metrics.counters
        considered = c.get("sched.candidates.speculative", 0)
        accepted = c.get("sched.motions.speculative", 0)
        total_motions = (accepted + c.get("sched.motions.useful", 0)
                         + c.get("sched.motions.duplicated", 0))
        lines.append("")
        lines.append("speculation")
        lines.append(f"  speculative candidates collected "
                     f"{considered:>6}")
        lines.append(f"  vetoed by live-on-exit rule      "
                     f"{c.get('sched.speculation.rejected_live', 0):>6}")
        lines.append(f"  admitted by renaming             "
                     f"{c.get('sched.speculation.renamed', 0):>6}")
        lines.append(f"  speculative motions performed    {accepted:>6}")
        if total_motions:
            lines.append(f"  speculation rate                 "
                         f"{accepted / total_motions:>6.1%}  "
                         f"({accepted}/{total_motions} motions)")
        ready_n = metrics.series.get("sched.ready", (0, 0.0, 0.0))[0]
        if ready_n:
            lines.append("")
            lines.append(f"ready-list pressure  avg {metrics.mean('sched.ready'):.2f}"
                         f"  max {metrics.peak('sched.ready'):.0f}"
                         f"  over {ready_n} cycles")
        soa_rows = (
            ("dense-table bytes interned",
             c.get("sched.soa.dense_bytes", 0)),
            ("liveness queries from bitmask",
             c.get("sched.soa.mask_queries", 0)),
            ("liveness bitmask updates",
             c.get("sched.soa.mask_updates", 0)),
        )
        if any(count for _, count in soa_rows):
            interns = metrics.series.get("sched.soa.intern_ms", (0, 0.0, 0.0))
            lines.append("")
            lines.append("struct-of-arrays core")
            for label, count in soa_rows:
                lines.append(f"  {label:<33}{count:>6}")
            if interns[0]:
                lines.append(f"  interning passes                 "
                             f"{interns[0]:>6}  "
                             f"({interns[1]:.2f} ms total, "
                             f"max {interns[2]:.2f} ms)")
        tables = c.get("analysis.dense.tables", 0)
        if tables:
            dense_rows = (
                ("register interning tables", tables),
                ("registers interned", c.get("analysis.dense.regs_interned",
                                             0)),
                ("CSR CFG snapshots", c.get("analysis.dense.cfg_builds", 0)),
                ("use/def mask builds", c.get("analysis.dense.usedef_builds",
                                              0)),
                ("use/def mask cache hits",
                 c.get("analysis.dense.usedef_hits", 0)),
                ("liveness bitmask solves",
                 c.get("analysis.dense.liveness_solves", 0)),
            )
            lines.append("")
            lines.append("dense analysis core")
            for label, count in dense_rows:
                lines.append(f"  {label:<33}{count:>6}")
        resilience = {name: count for name, count in sorted(c.items())
                      if name.startswith("resilience.") and count}
        if resilience:
            lines.append("")
            lines.append("resilience")
            for name, count in resilience.items():
                label = name[len("resilience."):].replace("_", " ")
                lines.append(f"  {label:<33}{count:>6}")
        if metrics.timers:
            lines.append("")
            lines.append("phase times (ms)  " + "  ".join(
                f"{name} {secs * 1e3:.1f}"
                for name, secs in metrics.timers.items()))
    return "\n".join(lines)
