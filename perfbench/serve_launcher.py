"""Run ``repro serve`` with the benchmark's instruments installed.

    python3 perfbench/serve_launcher.py --spans OUT -- <serve arguments>
    python3 perfbench/serve_launcher.py --count OUT -- <serve arguments>

``--spans`` wraps the compile path and the service layer's public
functions (``cache_key``, ``ArtifactCache.get``/``put``,
``worker.compile_request``, ``Journal.record_request``/``record_done``)
and writes the spans to OUT when the daemon exits.  ``--count`` counts
bytecodes from a request's ``record_request`` until its
``record_done`` returns -- the request's whole path through the daemon
-- and writes the per-layer counts to OUT.  The daemon itself is the
unchanged ``repro.__main__.main``.
"""

from __future__ import annotations

import json
import sys

import bytecodes
import measure
import spans


def _with_spans(out: str, argv: list[str]) -> int:
    recorder = spans.SpanRecorder()
    spans.install_compile_path(recorder)

    def journaled(index, args, _result):
        recorder.attrs[index] = {"seq": args[1]}

    def request(index, args, result):
        journaled(index, args, result)
        recorder.op = args[1]

    recorder.install(spans.SERVICE_SITES, {
        "Journal.record_request": request,
        "Journal.record_done": journaled,
    })
    import repro.__main__ as cli

    try:
        return cli.main(argv)
    finally:
        recorder.dump(out)


def _with_count(out: str, argv: list[str]) -> int:
    from repro.service.journal import Journal

    counter = bytecodes.BytecodeCounter(measure.PACKAGE, measure.HERE)
    record_request, record_done = Journal.record_request, Journal.record_done
    pending = [0]

    def counted_request(self, seq, line):
        if not pending[0]:
            counter.__enter__()
        pending[0] += 1
        return record_request(self, seq, line)

    def counted_done(self, *args, **kwargs):
        try:
            return record_done(self, *args, **kwargs)
        finally:
            pending[0] -= 1
            if not pending[0]:
                counter.__exit__(None, None, None)

    Journal.record_request = counted_request
    Journal.record_done = counted_done
    import repro.__main__ as cli

    try:
        return cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(counter.by_layer(), fh)


def main() -> int:
    mode, out, dashes, *argv = sys.argv[1:]
    if dashes != "--" or mode not in ("--spans", "--count"):
        print(__doc__, file=sys.stderr)
        return 2
    return (_with_spans if mode == "--spans" else _with_count)(out, argv)


if __name__ == "__main__":
    sys.exit(main())
