"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload compile_corpus --seed 1 \\
        --seconds 20 --trace 0

The program measured is the one in this checkout's ``src/``: the
package is not installed, any inherited ``PYTHONPATH`` is dropped, and
the run prints the ``repro`` path it resolved and the git commit.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  See README.md for the workloads and what each metric
means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

import measure  # imports nothing of the program, so safe before re-exec

ROOT = measure.ROOT

WORKLOADS = ("compile_corpus", "fuzz_campaign", "paper_kernels",
             "serve_mixed")


def _reexec_in_program_env() -> None:
    """Bytecode counts repeat exactly only under one hash seed, and the
    checkout's own ``src`` must be the only program on the path."""
    env = measure.program_env()
    if all(os.environ.get(name) == env[name]
           for name in ("PYTHONHASHSEED", "PYTHONPATH")):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                               *sys.argv[1:]], env)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() if out.returncode == 0 \
        else "unknown (not a git checkout)"


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    _reexec_in_program_env()
    import repro

    module = importlib.import_module(args.workload)
    if args.setup_probe:
        module.setup(args.seed)
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print(f"program: {os.path.dirname(repro.__file__)} at commit {_commit()}")
    if args.trace:
        setup = None
    elif hasattr(module, "probe_setup"):
        setup = module.probe_setup(args.seed)
    else:
        setup = measure.probe_setup(args.workload, args.seed)
    state = module.setup(args.seed)
    result = module.run(state, args.seconds, bool(args.trace))
    if setup is not None:
        measure.report_setup(result, setup)

    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name not in result.metrics:
            if not args.trace:
                result.check(False, f"metric {name} was not measured")
                continue
            # a layer this workload never reaches did no work
            result.metric(name, 0.0, spec["unit"])
        metrics[name] = result.metrics[name]
    for name, value in metrics.items():
        print(f"  {name:<26} {value['value']:>14.4f} {value['unit']}")
    print(f"attempted {result.attempted}, failed {result.failed}, "
          f"checks {'passed' if result.correct else 'FAILED'}")
    for problem in result.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": result.correct,
                      "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
