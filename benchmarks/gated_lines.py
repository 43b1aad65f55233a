"""Which function-body lines of ``src/repro`` no gated command runs.

CI's coverage job measures what the *tests* execute.  This script
measures what the commands CI gates on execute.  In one process, under a
``sys.settrace`` line collector (no ``coverage`` package is needed), it
runs these CLI commands inline at ``--jobs 1`` and at small N:

* the fuzz default arm, the zoo arm and a checkpoint/resume round trip;
* ``scorecard``, ``chaos`` and ``chaos --service`` (the pool workers
  its kill and hang scenarios fork are not traced);
* ``stats``, ``compile``, ``verify`` and ``run`` on ``examples/minmax.c``;
* a journaled ``serve`` session, then its ``--resume-journal`` after the
  journal's ``done`` records are stripped (a crash before any answer).

It prints, per file, how many function-body lines none of them executed,
then the total.  A function-body line is a line of the line table of a
function's (or comprehension's) code object, other than its first line.

    PYTHONPATH=src python benchmarks/gated_lines.py

About a minute on one core.  The name does not match ``bench_*``, so
``pytest benchmarks/`` does not collect it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
MINMAX = str(ROOT / "examples" / "minmax.c")
ZOO_ARM = "ss1,ss4,ss8,clus2x2,xdp,vliw8,ideal4"


def body_lines(path: Path) -> set[int]:
    """The function-body lines of one source file."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def commands(tmp: Path) -> list[tuple[list[str], str | None]]:
    """Each command's argv and the text it reads on stdin (None: none)."""
    ckpt, wal = str(tmp / "fuzz.ckpt"), str(tmp / "serve.wal")
    fuzz = ["fuzz", "--seed", "1991", "--no-shrink", "--jobs", "1"]
    requests = "".join(
        json.dumps({"id": i, "source": f"int f{i % 3}(int a, int b) "
                                       f"{{ return a * {i % 3} + b; }}"})
        + "\n" for i in range(6))
    return [
        (fuzz + ["--n", "6", "--metrics-out", str(tmp / "fuzz.json")], None),
        (fuzz + ["--n", "2", "--machines", ZOO_ARM], None),
        (fuzz + ["--n", "4", "--checkpoint", ckpt, "--interrupt-after", "2"],
         None),
        (fuzz + ["--n", "4", "--checkpoint", ckpt, "--resume", ckpt,
                 "--quarantine-out", str(tmp / "quarantine.json")], None),
        (["scorecard", "--out", str(tmp / "scorecard.json")], None),
        (["chaos", "--n", "10", "--seed", "1991"], None),
        (["chaos", "--service", "--n", "4", "--seed", "1991", "--jobs", "1"],
         None),
        (["stats", MINMAX], None),
        (["compile", MINMAX], None),
        (["verify", MINMAX], None),
        (["run", MINMAX, "minmax", "5,-3,8,1", "3", "0,0"], None),
        (["serve", "--jobs", "1", "--journal", wal, "--scorecard"], requests),
        (["serve", "--jobs", "1", "--journal", wal, "--resume-journal"], ""),
    ]


def run_cli(main, argv: list[str], stdin: str | None, tmp: Path) -> int:
    """One CLI command in this process, its output discarded."""
    saved = sys.stdin
    if argv[-1] == "--resume-journal":
        wal = Path(argv[argv.index("--journal") + 1])
        kept = [line for line in wal.read_text().splitlines(keepends=True)
                if '"j":"done"' not in line]
        wal.write_text("".join(kept))
    if stdin is not None:
        path = tmp / "stdin.jsonl"
        path.write_text(stdin)
        sys.stdin = open(path)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        if sys.stdin is not saved and sys.stdin is not None:
            sys.stdin.close()
        sys.stdin = saved


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE)
    ours: dict[str, bool] = {}
    hit: set[tuple[str, int]] = set()
    add = hit.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        mine = ours.get(filename)
        if mine is None:
            mine = ours[filename] = filename.startswith(prefix)
        return local if mine else None

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        from repro.__main__ import main as cli
        with tempfile.TemporaryDirectory() as tmp:
            for argv, stdin in commands(Path(tmp)):
                code = run_cli(cli, argv, stdin, Path(tmp))
                print(f"exit {code}: repro {' '.join(argv)}", file=sys.stderr)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = unrun = 0
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = body_lines(path)
        missed = sum((str(path), line) not in hit for line in lines)
        total += len(lines)
        unrun += missed
        if missed:
            rows.append((missed, len(lines), path.relative_to(PACKAGE.parent)))
    for missed, count, path in sorted(rows, key=lambda r: (-r[0], r[2])):
        print(f"{missed:5d} of {count:5d}  {path}")
    print(f"{unrun} of {total} function-body lines of src/repro ran in "
          f"no gated command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
