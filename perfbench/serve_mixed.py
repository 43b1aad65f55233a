"""``serve_mixed``: an open loop of compile requests to ``repro serve``.

One client process drives one daemon (``python -m repro serve --jobs 1
--journal ... --high-water ...``) over stdin/stdout, with one writer
thread sending each request at its due time and one reader thread
taking the responses.  Requests come in rounds of five: one cold compile
of a distinct generated program (machine, level, options and
``resilient`` drawn from the seed) and four repeats of earlier requests,
which the artifact cache should answer.  One request in ten asks for the
decision trace.  Latency counts from a request's due time.
"""

from __future__ import annotations

import json
import os
import random
import re
import statistics
import subprocess
import sys
import threading
import time

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.resilience.ladder import ResilienceConfig
from repro.sched.candidates import ScheduleLevel
from repro.service.journal import load_journal
from repro.xform.pipeline import PipelineConfig

import bytecodes
import corpus
import measure
import spans

#: offered load, requests per second (well under this daemon's capacity)
RATE = 20.0
#: one cold compile in every round of this many requests
ROUND = 5
TRACE_SHARE = 0.1
RESILIENT_SHARE = 0.25
OVERRIDE_SHARE = 0.1
MACHINES = ("rs6k", "ss2", "ss4", "scalar")
LEVELS = ("none", "useful", "speculative")
HIGH_WATER = 64
CACHE_ENTRIES = 1024
#: latency limit on op_ms_tail used to choose RATE
TAIL_LIMIT_MS = 100.0
#: requests in the fixed bytecode-counting session
COUNTED_REQUESTS = 15
#: the writer's busy wait before each due time
SPIN_S = 0.002
#: the first request of every session: tells when the daemon is ready
WARMUP = {"id": "warmup", "source": "int ready(int a) { return a + 1; }"}


def _schedule(seed: int, count: int) -> list[dict]:
    """``count`` requests (whole rounds) drawn from ``seed``."""
    rng = random.Random(seed)
    programs = _cold_programs(seed, count)
    distinct: list[dict] = []
    requests = []
    for i in range(count):
        if i % ROUND == 0:
            payload = {"source": programs[len(distinct)].source,
                       "machine": rng.choice(MACHINES),
                       "level": rng.choice(LEVELS)}
            if rng.random() < OVERRIDE_SHARE:
                payload["config"] = {"rotate_max_blocks": 0}
            if rng.random() < RESILIENT_SHARE:
                payload["resilient"] = True
            distinct.append(payload)
        else:
            payload = rng.choice(distinct)
        request = dict(payload, id=i)
        if rng.random() < TRACE_SHARE:
            request["trace"] = True
        requests.append(request)
    return requests


def _cold_programs(seed: int, count: int) -> list:
    """Enough short stratified programs for the cold compiles among
    ``count`` requests."""
    strata = corpus.SHORT_STRATA
    return corpus.stratified(seed, -(-count // (ROUND * len(strata))),
                             strata)


def _key(request: dict) -> tuple:
    """What makes two requests the same compile; ``trace`` is not."""
    return (request["source"], request["machine"], request["level"],
            json.dumps(request.get("config", {}), sort_keys=True),
            bool(request.get("resilient", False)))


class Daemon:
    """One ``repro serve`` process and its files."""

    def __init__(self, tag: str, launcher: tuple = ()):
        self.journal = measure.out_path(f"serve-{tag}.wal")
        self.stderr_path = measure.out_path(f"serve-{tag}.err")
        self.instrument = measure.out_path(f"serve-{tag}.json")
        if launcher:
            head = [sys.executable, os.path.join(measure.HERE,
                                                 "serve_launcher.py"),
                    launcher[0], self.instrument, "--", "serve"]
        else:
            head = [sys.executable, "-m", "repro", "serve"]
        cmd = head + ["--jobs", "1", "--journal", self.journal,
                      "--high-water", str(HIGH_WATER),
                      "--cache-entries", str(CACHE_ENTRIES)]
        self._err = open(self.stderr_path, "wb")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self._err,
                                     env=measure.program_env(),
                                     cwd=measure.ROOT)
        self.rusage = None

    def send(self, request: dict) -> None:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        self.proc.stdin.flush()

    def receive(self) -> bytes:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"daemon closed its output; see "
                               f"{self.stderr_path}")
        return line

    def ask(self, request: dict) -> dict:
        self.send(request)
        return json.loads(self.receive())

    def close(self, timeout: float = 60.0) -> int:
        """Close the daemon's input, let it drain, and reap it."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        deadline = time.monotonic() + timeout
        while True:
            pid, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.rusage = rusage
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                self.proc.wait()
                break
            time.sleep(0.02)
        self.proc.stdout.close()
        self._err.close()
        return self.proc.returncode

    def summary(self) -> dict:
        """Counts from the daemon's closing line on stderr."""
        with open(self.stderr_path, encoding="utf-8",
                  errors="replace") as fh:
            text = fh.read()
        found = re.search(r"serve: (\d+) request\(s\) in (\d+) batch\(es\), "
                          r"(\d+) cache hit\(s\)", text)
        if not found:
            return {}
        requests, batches, hits = map(int, found.groups())
        return {"requests": requests, "batches": batches, "hits": hits}


def probe_setup(seed: int) -> list[float]:
    """Daemon spawn until its first answer, in fresh daemons."""
    samples = []
    for n in range(measure.SETUP_PROBES):
        daemon = Daemon(f"setup{n}")
        try:
            daemon.ask(WARMUP)
            samples.append(time.perf_counter() - daemon.spawned)
        finally:
            daemon.close()
    return samples


def setup(seed: int) -> dict:
    return {"seed": seed}


def _session(requests: list[dict], daemon: Daemon) -> dict:
    """Send ``requests`` open-loop at :data:`RATE` and collect the
    answers."""
    ready = daemon.ask(WARMUP)
    lines = [json.dumps(r).encode() + b"\n" for r in requests]
    n = len(lines)
    sent = [0.0] * n
    received = [0.0] * n
    raw = [b""] * n
    start = time.perf_counter() + 0.05
    errors = []

    def writer():
        try:
            for i, line in enumerate(lines):
                due = start + i / RATE
                # a sleep overshoots by about a millisecond here, as much
                # as a cached answer takes: sleep short, then spin
                pause = due - time.perf_counter() - SPIN_S
                if pause > 0:
                    time.sleep(pause)
                while time.perf_counter() < due:
                    pass
                daemon.proc.stdin.write(line)
                daemon.proc.stdin.flush()
                sent[i] = time.perf_counter()
        except OSError as exc:
            errors.append(f"writer: {exc!r}")

    def reader():
        try:
            for i in range(n):
                raw[i] = daemon.receive()
                received[i] = time.perf_counter()
        except (OSError, RuntimeError) as exc:
            errors.append(f"reader: {exc!r}")

    threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=n / RATE + 120)
    if any(thread.is_alive() for thread in threads):
        errors.append("session did not finish in time")
    code = daemon.close()
    if code != 0:
        errors.append(f"daemon exited with {code}")
    due = [start + i / RATE for i in range(n)]
    return {"ready": ready, "raw": raw, "due": due,
            "sent": sent, "received": received, "errors": errors,
            "summary": daemon.summary(), "daemon": daemon}


def run(state: dict, seconds: float, trace: bool) -> measure.Result:
    result = measure.Result()
    seed = state["seed"]
    count = ROUND * max(1, round(RATE * seconds / ROUND))
    if trace:  # half the time untraced, half traced, same requests
        count = ROUND * max(1, round(RATE * seconds / 2 / ROUND))
    requests = _schedule(seed, count)
    plain = _session(requests, Daemon("plain"))
    traced = (_session(requests, Daemon("traced", ("--spans",)))
              if trace else None)
    for session in filter(None, (plain, traced)):
        _check_session(result, requests, session)
    result.attempted = len(requests)
    result.failed = sum(1 for line in plain["raw"]
                        if _status(line) not in ("ok", "cache-hit"))
    latencies = [r - d for r, d in zip(plain["received"], plain["due"])]
    late = [s - d for s, d in zip(plain["sent"], plain["due"])]
    print(f"open loop: {len(requests)} requests at {RATE:g}/s; generator "
          f"late by p50 {statistics.median(late) * 1e3:.2f} ms, max "
          f"{max(late) * 1e3:.2f} ms")
    ops_per_s = len(requests) / (max(plain["received"]) - plain["due"][0])
    _check_assembly(result, requests, plain)

    counts, code_instrs, cycles = _counted_session()
    bytecodes.report(result, counts, COUNTED_REQUESTS, trace)

    if trace:
        _layers(result, requests, traced)
        t_lat = [r - d for r, d in zip(traced["received"], traced["due"])]
        t_ops = len(requests) / (max(traced["received"]) - traced["due"][0])
        print(f"tracing overhead: traced {t_ops:.2f} against untraced "
              f"{ops_per_s:.2f} requests/s at the offered rate; p50 "
              f"latency {statistics.median(t_lat) * 1e3:.2f} against "
              f"{statistics.median(latencies) * 1e3:.2f} ms")
        return result

    result.latency(ops_per_s, latencies)
    value, _ = measure.tail(latencies)
    print(f"latency limit on op_ms_tail: {TAIL_LIMIT_MS:g} ms -- "
          f"{'met' if value * 1e3 <= TAIL_LIMIT_MS else 'MISSED'}")
    result.metric("peak_rss_mb",
                  plain["daemon"].rusage.ru_maxrss / 1024.0, "MB")
    result.metric("code_instrs", code_instrs, "count")
    result.metric("sim_cycles_geomean", measure.geomean(cycles), "cycles")
    return result


def _status(line: bytes) -> str:
    try:
        return json.loads(line).get("status", "?")
    except ValueError:
        return "?"


def _check_session(result, requests, session) -> None:
    for error in session["errors"]:
        result.check(False, error)
    result.check(session["ready"].get("status") == "ok",
                 f"warm-up request answered {session['ready']}")
    seen: set = set()
    for request, line in zip(requests, session["raw"]):
        try:
            response = json.loads(line)
        except ValueError:
            result.check(False, f"request {request['id']}: no response")
            continue
        key = _key(request)
        expected = "cache-hit" if key in seen else "ok"
        seen.add(key)
        result.check(response.get("id") == request["id"],
                     f"response {response.get('id')} out of order, "
                     f"expected {request['id']}")
        result.check(response.get("status") == expected,
                     f"request {request['id']}: status "
                     f"{response.get('status')}, expected {expected}")
        result.check(("trace" in response) == bool(request.get("trace")),
                     f"request {request['id']}: trace field mismatch")
    result.check(len(seen) + 1 <= CACHE_ENTRIES,
                 f"{len(seen)} distinct keys exceed the cache")
    state = load_journal(session["daemon"].journal)
    result.check(not state.incomplete() and not state.torn_tail,
                 f"journal: {len(state.incomplete())} incomplete request(s)")


def _compile(request: dict):
    level = ScheduleLevel(request["level"])
    config = PipelineConfig(level=level, **request.get("config", {}))
    if request.get("resilient"):
        config.resilience = ResilienceConfig()
    return compile_c(request["source"], machine=CONFIGS[request["machine"]](),
                     level=level, config=config)


def _check_assembly(result, requests, session) -> None:
    """Every distinct request's assembly equals a compile made here."""
    first: dict = {}
    for request, line in zip(requests, session["raw"]):
        try:
            assembly = json.loads(line).get("assembly")
        except ValueError:
            continue
        key = _key(request)
        if key in first:
            result.check(assembly == first[key],
                         f"request {request['id']}: a repeat's assembly "
                         f"differs from the first answer")
            continue
        first[key] = assembly
        local = {unit.name: unit.assembly() for unit in _compile(request)}
        result.check(assembly == local,
                     f"request {request['id']}: served assembly differs "
                     f"from compile_c")


def _counted_session():
    """Bytecodes per request over a fixed closed-loop session, and the
    code size and cycles of its distinct programs."""
    requests = _schedule(measure.FIXED_SEED, COUNTED_REQUESTS)
    daemon = Daemon("count", ("--count",))
    try:
        for request in requests:
            daemon.ask(request)
    finally:
        daemon.close()
    with open(daemon.instrument, encoding="utf-8") as fh:
        counts = json.load(fh)
    instrs = 0
    cycles = []
    programs = {p.source: p for p in _cold_programs(measure.FIXED_SEED,
                                                    COUNTED_REQUESTS)}
    for request in requests[::ROUND]:
        unit = _compile(request)
        program = programs[request["source"]]
        instrs += measure.static_instrs(unit)
        cycles.append(unit.run(program.entry, *program.entry_args).cycles)
    return counts, instrs, cycles


def _layers(result, requests, session) -> None:
    """Per-layer numbers of the traced session, per request."""
    n = len(requests)
    recorder = spans.SpanRecorder.load(session["daemon"].instrument)
    spans.layer_report(result, recorder, n)
    spans.figure7_share(result, recorder, "compile")
    totals = recorder.total_times()
    result.metric("service.compile_ms",
                  totals.get("service.compile", 0.0) * 1e3 / n, "ms")
    # a request's own service time: journaled until its completion record
    begun, done = {}, {}
    for i, name in enumerate(recorder.names):
        seq = recorder.attrs.get(i, {}).get("seq")
        if name == "service.journal" and seq is not None:
            begun.setdefault(seq, recorder.starts[i])
            done[seq] = recorder.ends[i]
    waits = []
    for i in range(n):  # seq 0 is the warm-up request
        own = done[i + 1] - begun[i + 1]
        waits.append(session["received"][i] - session["due"][i] - own)
    result.metric("service.wait_ms", statistics.mean(waits) * 1e3, "ms")
    journal = session["daemon"].journal
    result.metric("service.journal_kb",
                  os.path.getsize(journal) / 1024.0 / (n + 1), "KB")
    result.metric("service.response_kb",
                  statistics.mean(map(len, session["raw"])) / 1024.0, "KB")
    result.metric("service.hits", sum(
        1 for line in session["raw"] if _status(line) == "cache-hit"),
        "count")
    result.metric("service.batches",
                  session["summary"].get("batches", 0), "count")
    artifacts = [doc for _key, doc in load_journal(journal).artifacts]
    cold = artifacts[1:]  # the first is the warm-up's
    result.metric("obs.trace_events",
                  statistics.mean(len(doc["trace"]) for doc in cold), "count")
    result.metric("sched.regions", sum(
        doc["counters"].get("sched.regions", 0) for doc in cold) / n,
        "count")
    result.metric("sched.motions", recorder.counts["sched.motions"] / n,
                  "count")
    print(f"traced session: {n} requests at {RATE:g}/s, "
          f"{len(cold)} cold compiles")

