"""Service-boundary chaos: prove the daemon survives its environment.

PR 4's chaos harness injects faults *inside* one compile; this module
injects them at the *service* boundary -- ``repro chaos --service`` --
where the failure modes are processes and sockets, not passes:

* ``worker.kill``         -- SIGKILL every pool worker mid-batch;
* ``worker.hang``         -- a worker wedges past the hang deadline;
* ``client.disconnect``   -- the client vanishes before reading replies;
* ``journal.torn-write``  -- the WAL's final record is half-flushed and
  the daemon restarts with ``--resume-journal``;
* ``socket.partial-frame`` -- frames arrive split across packets,
  oversized, or cut off by EOF.

Each case derives a deterministic request batch from its seed (distinct
sources with ``verify`` forced on, a duplicate, a malformed line, and --
for the worker sites -- a ``chaos_hang_s`` sleeper), computes a clean
single-process **reference** response set, certifies the reference
compiles against the BSP lower-bound gate (Papp et al.), then runs the
batch through a daemon with the fault armed.  The service resilience
property, per case:

* every request id is answered, and each answer is byte-identical to
  the reference (``cache-hit`` and ``ok`` count as the same answer --
  the artifact bytes are what matters) **or** a typed substitute
  (``error`` / ``quarantined`` / ``overloaded``);
* the daemon never hangs (a case deadline backstops every scenario),
  never dies, and never emits an answer that diverges from the
  verified, BSP-checked reference -- that would be a serving miscompile.

Outcomes reuse the PR-4 vocabulary: ``absorbed`` (every answer matched
the reference), ``typed-error`` (some answers were typed substitutes),
``baseline-error`` (the clean reference itself failed), ``VIOLATION``.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import tempfile
import threading
import time
import traceback
from random import Random

from .budget import watchdog
from .chaos import ChaosResult
from .errors import BudgetExceeded
from .faults import SERVICE_SITES, plan_for_seed

#: statuses that are acceptable typed substitutes for a reference answer
TYPED_STATUSES = frozenset({"error", "quarantined", "overloaded"})

#: wall-clock backstop per case: a scenario past this is a hang VIOLATION
CASE_DEADLINE_S = 60.0


# -- deterministic request batches -------------------------------------------

def _case_requests(case_seed: int, site: str):
    """(lines, expected_ids): the seed's request batch.  Every
    well-formed request carries an explicit id and ``verify: true`` so
    anything the daemon answers with an artifact was verifier-certified."""
    rng = Random(case_seed)
    lines: list[str] = []
    expected: list[int] = []
    sources: list[str] = []
    for i in range(3):
        a, b = rng.randrange(1, 50), rng.randrange(1, 20)
        source = (f"int f{i}(int x) {{ int y; y = x * {a} + {b}; "
                  f"if (y > {a}) y = y - {b}; return y + {i}; }}")
        sources.append(source)
        lines.append(json.dumps({"id": i, "source": source,
                                 "config": {"verify": True}}))
        expected.append(i)
    # a duplicate of source 0 under its own id: exercises in-batch dedupe
    lines.append(json.dumps({"id": 3, "source": sources[0],
                             "config": {"verify": True}}))
    expected.append(3)
    # one malformed line: a typed error in every run, faulted or not
    lines.append('{"id": 4, "source": unterminated')
    if site in ("worker.kill", "worker.hang"):
        # a *distinct* source: a duplicate would ride the dedupe path
        # and the injected sleep would never run
        c = rng.randrange(1, 30)
        sleeper = (f"int f3(int x) {{ int z; z = x + {c}; "
                   f"return z * 2 - {c}; }}")
        sources.append(sleeper)
        hang_s = 0.25 if site == "worker.kill" else 3.0
        lines.append(json.dumps({"id": 5, "source": sleeper,
                                 "config": {"verify": True},
                                 "chaos_hang_s": hang_s}))
        expected.append(5)
    return lines, expected, sources


def _normalize(response: dict) -> dict:
    """``cache-hit`` and ``ok`` are the same answer: the cache serves
    byte-identical artifacts by construction."""
    out = dict(response)
    if out.get("status") == "cache-hit":
        out["status"] = "ok"
    return out


def _reference(lines: list[str], machine_name: str,
               sources: list[str]) -> dict[int, dict]:
    """Clean single-process response set, BSP-certified."""
    from ..machine.configs import CONFIGS
    from ..sched.candidates import ScheduleLevel
    from ..sim.bsp import check_bsp
    from ..xform.pipeline import PipelineConfig

    # certify the reference compiles against the BSP lower-bound gate:
    # a reference answer that under-runs the cost model is not a real
    # schedule and must never become the yardstick
    from ..compiler import compile_c

    for i, source in enumerate(sources):
        unit = compile_c(source, machine=CONFIGS[machine_name](),
                         level=ScheduleLevel.SPECULATIVE,
                         config=PipelineConfig(verify=True))[f"f{i}"]
        run = unit.run(i + 2)
        bsp = check_bsp(run.execution.instr_trace, unit.machine, run.cycles)
        if not bsp.ok:
            raise RuntimeError(
                f"BSP cross-check failed for f{i}: {bsp.violations}")

    from ..service import Daemon, ServeConfig

    config = ServeConfig(jobs=1, machine=machine_name, allow_chaos=True,
                         timeout_s=0.5)
    with Daemon(config) as daemon:
        responses = daemon.serve_batch_lines(lines)
    return {r["id"]: _normalize(r) for r in responses
            if isinstance(r.get("id"), int)}


def _classify(reference: dict[int, dict], expected_ids: list[int],
              collected: list[dict]) -> tuple[str, str]:
    """Apply the service resilience property to one scenario's answers."""
    substituted = 0
    for rid in expected_ids:
        answers = [r for r in collected if r.get("id") == rid]
        if not answers:
            return "VIOLATION", f"request id {rid} was never answered"
        for answer in answers:
            if _normalize(answer) == reference.get(rid):
                continue
            if answer.get("status") in TYPED_STATUSES:
                substituted += 1
                continue
            return "VIOLATION", (
                f"id {rid}: non-typed divergence from the reference: "
                f"got {json.dumps(answer, sort_keys=True)[:200]}")
    for answer in collected:
        if answer.get("id") not in reference \
                and answer.get("status") not in TYPED_STATUSES:
            return "VIOLATION", (
                f"unexpected non-typed response "
                f"{json.dumps(answer, sort_keys=True)[:200]}")
    if substituted:
        return "typed-error", f"{substituted} typed substitution(s)"
    return "absorbed", ""


# -- scenarios ----------------------------------------------------------------

def _scenario_worker_kill(lines, machine_name, jobs, param):
    """SIGKILL every worker mid-batch; the pool must rebuild them and
    the batch must still complete with reference answers."""
    from ..service import Daemon, ServeConfig

    config = ServeConfig(jobs=max(jobs, 2), machine=machine_name,
                         allow_chaos=True, timeout_s=None,
                         hang_timeout_s=5.0)
    with Daemon(config) as daemon:
        pool = daemon.pool
        pids = list(pool.worker_pids())

        def storm():
            time.sleep(0.1)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

        killer = threading.Thread(target=storm, daemon=True)
        killer.start()
        responses = daemon.serve_batch_lines(lines)
        killer.join()
    return responses


def _scenario_worker_hang(lines, machine_name, jobs, param):
    """One request wedges far past the pool's hang deadline; the pool
    must quarantine it and answer everything else."""
    from ..service import Daemon, ServeConfig

    config = ServeConfig(jobs=max(jobs, 2), machine=machine_name,
                         allow_chaos=True, timeout_s=None,
                         hang_timeout_s=0.5)
    with Daemon(config) as daemon:
        return daemon.serve_batch_lines(lines)


def _socket_daemon(config, sock_path):
    """A daemon serving ``sock_path`` on a background thread."""
    from ..service import Daemon

    daemon = Daemon(config)
    ready = threading.Event()
    thread = threading.Thread(target=daemon.serve_socket,
                              args=(sock_path,),
                              kwargs={"ready": ready}, daemon=True)
    thread.start()
    if not ready.wait(10.0):
        raise RuntimeError("daemon socket never came up")
    return daemon, thread


def _finish_socket_daemon(daemon, thread) -> None:
    daemon.request_shutdown()
    thread.join(timeout=15.0)
    alive = thread.is_alive()
    daemon.close()
    if alive:
        raise RuntimeError("daemon failed to shut down -- service hang")


def _recv_responses(sk) -> list[dict]:
    sk.settimeout(30.0)
    data = b""
    while True:
        chunk = sk.recv(65536)
        if not chunk:
            break
        data += chunk
    return [json.loads(line) for line in data.decode("utf-8").splitlines()
            if line.strip()]


def _scenario_client_disconnect(lines, machine_name, jobs, param):
    """Session 1 sends the batch and vanishes without reading; the
    daemon must survive and serve session 2 the full reference set."""
    from ..service import ServeConfig

    payload = "".join(line + "\n" for line in lines).encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        sock_path = os.path.join(tmp, "serve.sock")
        config = ServeConfig(jobs=jobs, machine=machine_name,
                             allow_chaos=True, timeout_s=0.5)
        daemon, thread = _socket_daemon(config, sock_path)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
                sk.connect(sock_path)
                sk.sendall(payload)
                # vanish: no shutdown handshake, no reads
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
                sk.settimeout(30.0)
                deadline = time.monotonic() + 20.0
                while True:  # the listener is busy until session 1 drops
                    try:
                        sk.connect(sock_path)
                        break
                    except (ConnectionRefusedError, FileNotFoundError):
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
                sk.sendall(payload)
                sk.shutdown(socket.SHUT_WR)
                responses = _recv_responses(sk)
        finally:
            _finish_socket_daemon(daemon, thread)
    return responses


def _scenario_partial_frame(lines, machine_name, jobs, param):
    """Frames arrive split across packets, oversized, and cut off by
    EOF; every well-formed request still gets its reference answer and
    every broken frame a typed error."""
    from ..service import ServeConfig

    with tempfile.TemporaryDirectory() as tmp:
        sock_path = os.path.join(tmp, "serve.sock")
        config = ServeConfig(jobs=jobs, machine=machine_name,
                             allow_chaos=True, timeout_s=0.5,
                             max_request_bytes=4096,
                             read_deadline_s=10.0)
        daemon, thread = _socket_daemon(config, sock_path)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sk:
                sk.connect(sock_path)
                first = (lines[0] + "\n").encode("utf-8")
                split = max(1, len(first) // param)
                sk.sendall(first[:split])
                time.sleep(0.15)  # straddle a batch-gather window
                sk.sendall(first[split:])
                rest = "".join(line + "\n" for line in lines[1:])
                sk.sendall(rest.encode("utf-8"))
                sk.sendall(b"x" * 5000 + b"\n")       # oversized frame
                sk.sendall(b'{"id": 99, "source"')    # cut off by EOF
                sk.shutdown(socket.SHUT_WR)
                responses = _recv_responses(sk)
        finally:
            _finish_socket_daemon(daemon, thread)
    return responses


def _scenario_journal_torn(lines, machine_name, jobs, param):
    """Serve with the WAL on, tear its final record as a crash mid-write
    would, and resume: the replayed answers must match the reference."""
    from ..service import Daemon, ServeConfig

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "serve.wal")
        config = ServeConfig(jobs=jobs, machine=machine_name,
                             allow_chaos=True, timeout_s=0.5,
                             journal_path=journal_path)
        out = io.StringIO()
        with Daemon(config) as daemon:
            daemon.start_journal()
            daemon.serve_stream(
                io.StringIO("".join(line + "\n" for line in lines)), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()
                     if line.strip()]

        with open(journal_path, "rb") as fh:
            raw = fh.read()
        body = raw.rstrip(b"\n")
        last_line = body[body.rfind(b"\n") + 1:]
        cut = min(param, max(1, len(last_line) - 1))
        with open(journal_path, "wb") as fh:
            fh.write(body[:-cut])

        resume = ServeConfig(jobs=jobs, machine=machine_name,
                             allow_chaos=True, timeout_s=0.5,
                             journal_path=journal_path,
                             resume_journal=True)
        out2 = io.StringIO()
        with Daemon(resume) as daemon:
            daemon.resume_from_journal(out2)
        responses += [json.loads(line)
                      for line in out2.getvalue().splitlines()
                      if line.strip()]
    return responses


_SCENARIOS = {
    "worker.kill": _scenario_worker_kill,
    "worker.hang": _scenario_worker_hang,
    "client.disconnect": _scenario_client_disconnect,
    "socket.partial-frame": _scenario_partial_frame,
    "journal.torn-write": _scenario_journal_torn,
}


# -- the case -----------------------------------------------------------------

def run_service_chaos_case(case_seed: int, *, machine_name: str = "rs6k",
                           jobs: int = 2) -> ChaosResult:
    """Run one service fault plan end to end (see module docstring)."""
    plan = plan_for_seed(case_seed, SERVICE_SITES)
    lines, expected_ids, sources = _case_requests(case_seed, plan.site)
    try:
        reference = _reference(lines, machine_name, sources)
    except Exception as exc:
        return ChaosResult(case_seed=case_seed, plan=plan,
                           outcome="baseline-error",
                           detail=f"clean reference failed: {exc!r}")
    scenario = _SCENARIOS[plan.site]
    try:
        with watchdog(CASE_DEADLINE_S, f"service-chaos:{case_seed}"):
            collected = scenario(lines, machine_name, jobs, plan.param)
    except BudgetExceeded:
        return ChaosResult(case_seed=case_seed, plan=plan,
                           outcome="VIOLATION", fired=True,
                           detail=f"scenario exceeded the "
                                  f"{CASE_DEADLINE_S:.0f}s case deadline "
                                  f"-- service hang")
    except Exception:
        return ChaosResult(
            case_seed=case_seed, plan=plan, outcome="VIOLATION", fired=True,
            detail="uncaught exception:\n" + traceback.format_exc())
    outcome, detail = _classify(reference, expected_ids, collected)
    return ChaosResult(case_seed=case_seed, plan=plan, outcome=outcome,
                       fired=True, detail=detail)
