"""Exact bytecode counts, attributed to the package of the running code.

No hardware counter or instrumenting tool exists on the machines this
benchmark targets, so the program's own operations are counted: every
bytecode the interpreter executes in a traced frame raises one
``opcode`` event (``sys.settrace`` with ``f_trace_opcodes``).  Under a
fixed ``PYTHONHASHSEED`` the count for a given input repeats exactly.
Counting slows the code about twelvefold, so it runs in a pass of its
own, never inside a timed phase.
"""

from __future__ import annotations

import gc
import os
import sys

#: the layers of ``<layer>.bytecodes``; code outside them is "other"
LAYERS = ("lang", "ir", "cfg", "dataflow", "pdg", "sched", "xform",
          "machine", "sim", "verify", "resilience", "service", "obs",
          "other")


def _layer_of(filename: str, package_dir: str, skip_dir: str):
    """The layer of one code object's file; None for benchmark code."""
    if filename.startswith(skip_dir):
        return None
    if filename.startswith(package_dir):
        head, sep, _ = filename[len(package_dir):].partition(os.sep)
        if sep and head in LAYERS:
            return head
    return "other"


class BytecodeCounter:
    """Counts bytecodes while active (``with counter: ...``).

    Frames of the benchmark's own files are not counted, so a count
    covers the program and the standard library it calls, nothing else.
    Counts accumulate across activations.
    """

    def __init__(self, package_dir: str, skip_dir: str):
        self._package_dir = package_dir.rstrip(os.sep) + os.sep
        self._skip_dir = skip_dir.rstrip(os.sep) + os.sep
        self._getters = {}
        self._tracers = {}
        for layer in LAYERS:
            tracer, getter = self._make_tracer()
            self._tracers[layer] = tracer
            self._getters[layer] = getter
        by_code: dict = {}
        tracers = self._tracers
        package, skip = self._package_dir, self._skip_dir

        def on_call(frame, event, arg):
            code = frame.f_code
            try:
                tracer = by_code[code]
            except KeyError:
                layer = _layer_of(code.co_filename, package, skip)
                tracer = by_code[code] = (tracers[layer] if layer
                                          else None)
            if tracer is not None:
                frame.f_trace_lines = False
                frame.f_trace_opcodes = True
            return tracer

        self._on_call = on_call
        self._gc_was_enabled = False

    @staticmethod
    def _make_tracer():
        count = 0

        def tracer(frame, event, arg):
            nonlocal count
            if event == "opcode":
                count += 1
            return tracer

        def getter() -> int:
            return count

        return tracer, getter

    def __enter__(self) -> "BytecodeCounter":
        # a collection could run finalizers at an arbitrary point
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        if self._gc_was_enabled:
            gc.enable()

    def by_layer(self) -> dict[str, int]:
        return {layer: self._getters[layer]() for layer in LAYERS}


def report(result, by_layer: dict[str, int], ops: int, trace: bool) -> None:
    """``bytecodes_per_op`` (untraced runs) or ``<layer>.bytecodes``
    (traced runs), both per op of the counted pass."""
    total = sum(by_layer.values())
    print(f"bytecodes: {total} over {ops} counted op(s), "
          f"{total / ops:.1f} per op; by layer: "
          + ", ".join(f"{k} {v}" for k, v in by_layer.items() if v))
    if trace:
        for layer, count in by_layer.items():
            result.metric(f"{layer}.bytecodes", count / ops, "count")
    else:
        result.metric("bytecodes_per_op", total / ops, "count")
