"""In-memory spans around the program's public functions.

The traced run replaces public functions of the program's layers with
wrappers that record one span per call -- name, start, end, parent span
and op index -- and restores the originals afterwards.  The program is
not changed; spans come from these wrappers alone and are written out
when the run ends.  A layer's self time is its spans' duration minus
the time their child spans cover.  The spans and counts of a failed op
are left out of every figure: they measure a fault's wasted work, not
the work of the layers it ran in.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

#: per-layer time metrics: metric name -> span name
TIME_METRICS = {
    "lang.parse_ms": "lang.parse",
    "lang.lower_ms": "lang.lower",
    "xform.transform_ms": "xform.transform",
    "ir.verify_ms": "ir.verify",
    "dataflow.analysis_ms": "dataflow.analysis",
    "pdg.region_pdg_ms": "pdg.region_pdg",
    "sched.global_ms": "sched.global",
    "sched.bb_ms": "sched.bb",
    "verify.schedule_ms": "verify.schedule",
    "sim.exec_ms": "sim.exec",
    "sim.timing_ms": "sim.run",
    "sim.bsp_ms": "sim.bsp",
    "service.key_ms": "service.key",
    "service.cache_ms": "service.cache",
    "service.journal_ms": "service.journal",
}

#: the scheduler's part of a compile, as in the paper's Figure 7
SCHEDULER_SPANS = ("pdg.region_pdg", "sched.global", "sched.bb")

#: (module, attribute path, span name): the compile and simulate path.
#: Names are patched where the caller looks them up -- the pipeline
#: imports its stages by name, so its module is the one patched.
COMPILE_SITES = [
    ("repro.compiler", "parse_c", "lang.parse"),
    ("repro.compiler", "lower_program", "lang.lower"),
    ("repro.xform.pipeline", "strength_reduce", "xform.transform"),
    ("repro.xform.pipeline", "unroll_loop", "xform.transform"),
    ("repro.xform.pipeline", "rotate_loop", "xform.transform"),
    ("repro.xform.pipeline", "verify_function", "ir.verify"),
    ("repro.xform.pipeline", "global_schedule", "sched.global"),
    ("repro.xform.pipeline", "schedule_function_blocks", "sched.bb"),
    ("repro.sched.driver", "build_region_pdg", "pdg.region_pdg"),
    ("repro.dataflow.cache", "AnalysisCache.cfg", "dataflow.analysis"),
    ("repro.dataflow.cache", "AnalysisCache.dominators",
     "dataflow.analysis"),
    ("repro.dataflow.cache", "AnalysisCache.loop_nest",
     "dataflow.analysis"),
    ("repro.dataflow.cache", "AnalysisCache.liveness", "dataflow.analysis"),
    ("repro.verify.verifier", "verify_schedule", "verify.schedule"),
    ("repro.sim.executor", "Executor.run", "sim.exec"),
    ("repro.compiler", "CompiledUnit.run", "sim.run"),
    ("repro.sim.bsp", "check_bsp", "sim.bsp"),
    ("repro.verify.differential", "check_bsp", "sim.bsp"),
    # whole compiles where the program makes them, for Figure 7's share
    ("repro.verify.differential", "compile_c", "compile"),
    ("repro.service.worker", "compile_c", "compile"),
]

#: the service layer, installed in the daemon process
SERVICE_SITES = [
    ("repro.service.daemon", "cache_key", "service.key"),
    ("repro.service.cache", "ArtifactCache.get", "service.cache"),
    ("repro.service.cache", "ArtifactCache.put", "service.cache"),
    ("repro.service.worker", "compile_request", "service.compile"),
    ("repro.service.journal", "Journal.record_request", "service.journal"),
    ("repro.service.journal", "Journal.record_done", "service.journal"),
]


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """Spans and counts of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.counts: Counter = Counter()
        self.failed_ops: set[int] = set()
        self.op = -1
        self._counts_before: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self.ops.append(self.op)
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> int:
        """Open the next op and its span."""
        self.op += 1
        self._counts_before = self.counts.copy()
        return self.begin("op")

    def end_op(self, index: int, ok: bool) -> None:
        """Close an op's span; a failed op is dropped from the figures."""
        self.end(index)
        if not ok:
            self.failed_ops.add(self.op)
            self.counts = self._counts_before

    def _kept(self):
        failed = self.failed_ops
        return (i for i, op in enumerate(self.ops) if op not in failed)

    def wrap(self, name: str, fn, on_call=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if on_call is not None:
                on_call(index, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, sites, hooks: dict | None = None) -> None:
        """Wrap every ``(module, attribute, span)`` site; ``hooks`` maps
        an attribute path to ``on_call(span_index, args, result)``."""
        hooks = hooks or {}
        for module, path, name in sites:
            owner, attr = _owner(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(path)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0.0] * len(self.names)
        for i in self._kept():
            if self.parents[i] >= 0:
                covered[self.parents[i]] += self.ends[i] - self.starts[i]
        out: Counter = Counter()
        for i in self._kept():
            out[self.names[i]] += self.ends[i] - self.starts[i] - covered[i]
        return dict(out)

    def total_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for i in self._kept():
            out[self.names[i]] += self.ends[i] - self.starts[i]
        return dict(out)

    @classmethod
    def load(cls, path: str) -> "SpanRecorder":
        """Read back what :meth:`dump` wrote (the daemon's spans)."""
        recorder = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                if "counts" in doc:
                    recorder.counts.update(doc["counts"])
                    recorder.failed_ops.update(doc["failed_ops"])
                    continue
                index = len(recorder.names)
                recorder.names.append(doc.pop("name"))
                recorder.starts.append(doc.pop("start"))
                recorder.ends.append(doc.pop("end"))
                recorder.parents.append(doc.pop("parent"))
                recorder.ops.append(doc.pop("op"))
                if doc:
                    recorder.attrs[index] = doc
        return recorder

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                doc = {"name": name, "start": self.starts[i],
                       "end": self.ends[i], "parent": self.parents[i],
                       "op": self.ops[i]}
                if i in self.attrs:
                    doc.update(self.attrs[i])
                fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "failed_ops": sorted(self.failed_ops)})
                     + "\n")


def compile_hooks(recorder: SpanRecorder) -> dict:
    """Counts taken from the values the compile and simulate path
    returns: global motions per compile, dynamic instructions per run."""
    def motions(_index, _args, report):
        recorder.counts["sched.motions"] += len(report.motions)

    def dyn_instrs(_index, _args, run):
        recorder.counts["sim.dyn_instrs"] += run.instructions

    return {"optimize": motions, "CompiledUnit.run": dyn_instrs}


def install_compile_path(recorder: SpanRecorder) -> None:
    sites = COMPILE_SITES + [("repro.compiler", "optimize", "xform.optimize")]
    recorder.install(sites, compile_hooks(recorder))


def layer_report(result, recorder: SpanRecorder, ops: int) -> None:
    """Every per-layer time metric as self time per op, in ms, over the
    ``ops`` traced ops that succeeded."""
    self_s = recorder.self_times()
    print(f"per-layer self time per op over {ops} traced ops that "
          f"succeeded (below)")
    for metric, span in TIME_METRICS.items():
        result.metric(metric, self_s.get(span, 0.0) * 1e3 / ops, "ms")


def figure7_share(result, recorder: SpanRecorder, compile_span: str) -> None:
    """The scheduler's share of compile time (Figure 7's view)."""
    self_s = recorder.self_times()
    compile_s = recorder.total_times().get(compile_span, 0.0)
    scheduler = sum(self_s.get(name, 0.0) for name in SCHEDULER_SPANS)
    share = 100.0 * scheduler / compile_s if compile_s else 0.0
    result.metric("sched.compile_share_pct", share, "%")
    print(f"Figure 7 view: scheduler (region PDG + global + bb) = "
          f"{share:.1f}% of compile time "
          f"({scheduler * 1e3:.1f} of {compile_s * 1e3:.1f} ms)")
