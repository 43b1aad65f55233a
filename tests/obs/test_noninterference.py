"""The observability layer must never change what the compiler produces.

The tentpole contract: compiling with the no-op tracer and compiling with
a real JSONL tracer + metrics collector yield byte-identical assembly, at
every scheduling level on every machine model.  Anything else means a
trace-guarded branch leaked into scheduling decisions.
"""

import io

import pytest

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.obs import CollectingTracer, JsonlTracer, MetricsCollector, TeeTracer
from repro.sched.candidates import ScheduleLevel
from repro.xform.pipeline import PipelineConfig

SOURCE = """
int minmax(int a[], int n, int out[]) {
    int min = a[0]; int max = min; int i = 1;
    while (i < n) {
        int u = a[i]; int v = a[i+1];
        if (u > v) { if (u > max) max = u; if (v < min) min = v; }
        else       { if (v > max) max = v; if (u < min) min = u; }
        i = i + 2;
    }
    out[0] = min; out[1] = max; return 0;
}
"""


def _assembly(level, machine, config=None):
    config = config or PipelineConfig(level=level)
    result = compile_c(SOURCE, machine=CONFIGS[machine](), level=level,
                       config=config)
    return "\n\n".join(unit.assembly() for unit in result)


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_tracing_never_changes_the_assembly(level, machine):
    baseline = _assembly(level, machine)
    stream = io.StringIO()
    traced = _assembly(level, machine, PipelineConfig(
        level=level,
        trace=TeeTracer(JsonlTracer(stream), CollectingTracer()),
        metrics=MetricsCollector(),
    ))
    assert traced == baseline
    assert stream.getvalue()  # the trace actually recorded something


def test_duplication_and_rename_paths_are_also_clean():
    """Exercise the optional scheduler paths (Definition 6 duplication,
    scheduling without on-demand renaming) under tracing too."""
    for kwargs in ({"allow_duplication": True},
                   {"rename_on_demand": False}):
        level = ScheduleLevel.SPECULATIVE
        baseline = _assembly(level, "rs6k", PipelineConfig(level=level,
                                                           **kwargs))
        traced = _assembly(level, "rs6k", PipelineConfig(
            level=level, trace=CollectingTracer(),
            metrics=MetricsCollector(), **kwargs))
        assert traced == baseline


def test_trace_replay_is_deterministic():
    """Two traced compilations of the same source produce the same event
    stream (modulo wall-clock elapsed_ms fields)."""
    def events():
        trace = CollectingTracer()
        compile_c(SOURCE, machine=CONFIGS["rs6k"](),
                  level=ScheduleLevel.SPECULATIVE,
                  config=PipelineConfig(trace=trace))
        return trace.events

    def scrub(stream):
        return [e.to_dict() | {"elapsed_ms": None}
                if "elapsed_ms" in e.to_dict() else e.to_dict()
                for e in stream]

    assert scrub(events()) == scrub(events())
