"""MetricsCollector: counters, series, timers, merge, and the report."""

from repro.obs.metrics import (
    NULL_METRICS,
    MetricsCollector,
    NullMetrics,
    format_stats,
)


def test_null_metrics_is_disabled_and_inert():
    assert isinstance(NULL_METRICS, NullMetrics)
    assert NULL_METRICS.enabled is False
    NULL_METRICS.inc("x")
    NULL_METRICS.observe("x", 3)
    with NULL_METRICS.phase("p"):
        pass


def test_counters():
    m = MetricsCollector()
    m.inc("a")
    m.inc("a", 4)
    assert m.counters["a"] == 5
    assert m.counters["missing"] == 0


def test_series_mean_and_peak():
    m = MetricsCollector()
    for value in (2, 7, 3):
        m.observe("ready", value)
    count, total, peak = m.series["ready"]
    assert (count, total, peak) == (3, 12, 7)
    assert m.mean("ready") == 4.0
    assert m.peak("ready") == 7
    assert m.mean("absent") == 0.0
    assert m.peak("absent") == 0.0


def test_phase_timer_accumulates_per_name():
    m = MetricsCollector()
    with m.phase("p"):
        pass
    first = m.timers["p"]
    with m.phase("p"):
        pass
    assert m.timers["p"] >= first
    assert set(m.timers) == {"p"}


def test_phase_timer_records_on_exception():
    m = MetricsCollector()
    try:
        with m.phase("p"):
            raise RuntimeError
    except RuntimeError:
        pass
    assert "p" in m.timers


def test_merge_folds_counters_timers_series():
    a, b = MetricsCollector(), MetricsCollector()
    a.inc("n", 2)
    b.inc("n", 3)
    b.inc("only-b")
    a.observe("s", 10)
    b.observe("s", 4)
    b.observe("s", 4)
    with a.phase("t"):
        pass
    with b.phase("t"):
        pass
    a.merge(b)
    assert a.counters["n"] == 5
    assert a.counters["only-b"] == 1
    assert a.series["s"] == (3, 18, 10)
    assert a.timers["t"] > 0


def test_summary_is_json_shaped():
    m = MetricsCollector()
    m.inc("c", 2)
    m.observe("s", 4)
    with m.phase("t"):
        pass
    summary = m.summary()
    assert summary["counters"] == {"c": 2}
    assert summary["series"]["s"] == {"n": 1, "mean": 4.0, "max": 4}
    assert "t" in summary["timers_ms"]


class _Sweep:
    def __init__(self, motions):
        self.motions = motions
        self.regions = []


class _Motion:
    def __init__(self, speculative=False, duplicated=False):
        self.speculative = speculative
        self.duplicated = duplicated


class _Report:
    def __init__(self):
        self.first_pass = _Sweep([_Motion(), _Motion(speculative=True)])
        self.second_pass = _Sweep([_Motion()])
        self.bb_cycles = {"a": 3, "b": 2}
        self.elapsed_seconds = 0.004


def test_format_stats_report():
    m = MetricsCollector()
    m.inc("sched.candidates.speculative", 5)
    m.inc("sched.motions.useful", 2)
    m.inc("sched.motions.speculative", 1)
    m.inc("sched.speculation.rejected_live", 3)
    for value in (2, 4):
        m.observe("sched.ready", value)
    with m.phase("global-pass-1"):
        pass
    text = format_stats("demo.c", "rs6k", "speculative", [("f", _Report())],
                        m)
    assert "scheduling report: demo.c" in text
    assert "function f" in text
    # total row: 3 motions, 2 useful, 1 speculative
    assert any(line.split() == ["total", "3", "2", "1", "0"]
               for line in text.splitlines())
    assert "post-pass block cycles: 5 total over 2 blocks" in text
    assert "speculation rate" in text
    assert "33.3%" in text
    assert "avg 3.00" in text and "max 4" in text
    assert "global-pass-1" in text


def test_format_stats_without_metrics_only_tables():
    text = format_stats("demo.c", "rs6k", "useful", [("f", _Report())])
    assert "speculation" not in text
    assert "function f" in text


def test_format_stats_soa_core_block():
    m = MetricsCollector()
    m.inc("sched.soa.dense_bytes", 760)
    m.inc("sched.soa.mask_queries", 10)
    m.inc("sched.soa.mask_updates", 7)
    m.observe("sched.soa.intern_ms", 0.5)
    m.observe("sched.soa.intern_ms", 0.1)
    text = format_stats("demo.c", "rs6k", "speculative", [("f", _Report())],
                        m)
    assert "struct-of-arrays core" in text
    assert "packed" not in text
    assert "dense-table bytes interned" in text
    assert "liveness queries from bitmask" in text
    assert "interning passes" in text
    assert "0.60 ms total, max 0.50 ms" in text
    # the block is omitted entirely when the SoA engine never ran, and
    # any one of its counters opens it
    assert "struct-of-arrays" not in format_stats(
        "demo.c", "rs6k", "speculative", [("f", _Report())],
        MetricsCollector())
    only = MetricsCollector()
    only.inc("sched.soa.mask_queries", 3)
    assert "struct-of-arrays core" in format_stats(
        "demo.c", "rs6k", "speculative", [("f", _Report())], only)
