"""The ``repro serve`` front door: JSONL requests in, JSONL responses out.

A *request* is one JSON object per line::

    {"id": 7, "source": "int f(int x) { return x + 1; }",
     "machine": "rs6k", "level": "speculative",
     "config": {"unroll_max_blocks": 0}, "resilient": true}

Only ``source`` is required; ``machine``/``level``/``resilient`` default
to the daemon's flags, ``config`` may override scalar
:class:`~repro.xform.pipeline.PipelineConfig` fields, and ``trace: true``
asks for the decision trace in the response.  Any *other* top-level key
is refused with a per-request typed error -- an unknown field is more
likely a protocol mismatch than a request we should half-honour.  A
*response* echoes the request ``id`` (or its ordinal when absent) and
carries a status:

* ``ok``         -- compiled at the requested aggressiveness;
* ``degraded``   -- compiled, but the PR-4 ladder had to fall back, or
  admission control shed the request one rung down
  (``--degrade-under-load``; the shed-rung schedule is re-verified);
* ``cache-hit``  -- served from the content-addressed artifact cache
  (byte-identical to the compile that seeded it), including duplicates
  inside one batch, which compile once and share the artifact;
* ``quarantined`` -- the job crashed or hung twice and was parked;
* ``overloaded`` -- admission control is above high water and the
  daemon fast-failed the request instead of queueing it;
* ``error``      -- a malformed/oversized/unknown-field request or a
  typed front-end error (parse/lowering), reported without retry.

Responses always come back **in request order**, and -- because every
status above is decided by batch position, never by completion order --
a batch's responses are byte-identical for every ``--jobs`` value.

Three service-hardening layers ride on top of the batch engine:

* **supervision** -- the :class:`~repro.service.jobs.JobPool` detects
  dead or hung workers and rebuilds them in place; repeated rebuilds
  trip a circuit breaker into inline mode (see ``jobs.py``);
* **write-ahead journal** -- ``--journal`` records accepted requests
  and completions so ``--resume-journal`` can replay whatever a crash
  interrupted (see ``journal.py``);
* **admission control** -- ``--high-water``/``--low-water`` bound the
  unserved-request depth with hysteresis; above high water new work is
  fast-failed (``overloaded``) or, with ``--degrade-under-load``, shed
  one ladder rung down and re-verified.  ``--max-request-bytes`` and
  ``--read-deadline`` harden the framing: an oversized or half-sent
  line becomes a typed error, never a wedged session.

Shutdown is graceful: SIGTERM/SIGINT stop the intake, every request
already read is still compiled and answered, then the pool drains and
the daemon exits -- an accepted job is never lost.  A malformed or
hanging request can never take the daemon down: malformed lines become
``error`` responses, hangs are bounded by the per-job deadline and
quarantined by the job layer, and a client that disconnects mid-batch
only ends its own session.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import threading
import time
from dataclasses import dataclass, fields as dataclass_fields

from ..machine.configs import CONFIGS
from ..obs.events import AdmissionEvent
from ..obs.metrics import MetricsCollector
from ..obs.tracer import NULL_TRACER
from ..sched.candidates import ScheduleLevel
from ..xform.pipeline import PipelineConfig
from . import worker
from .cache import Artifact, ArtifactCache, cache_key
from .jobs import ERROR, OK, QUARANTINED, JobPool, JobSpec, SupervisorConfig
from .journal import Journal, load_journal
from .scorecard import format_scorecard

_LEVELS = {level.value: level for level in ScheduleLevel}

#: PipelineConfig fields a request's ``config`` object may override --
#: the scalar knobs; level/observability/resilience have dedicated keys
_OVERRIDABLE = frozenset(
    f.name for f in dataclass_fields(PipelineConfig)
    if f.name not in {"level", "trace", "metrics", "profile", "resilience"})

#: the complete request vocabulary; anything else is a typed error
_REQUEST_KEYS = frozenset({"id", "source", "machine", "level", "config",
                           "resilient", "trace", "chaos_hang_s"})

#: ``--degrade-under-load``: one scheduling rung down per shed request
_SHED_LEVEL = {"speculative": "useful", "useful": "none", "none": "none"}


@dataclass
class ServeConfig:
    """Knobs of one daemon instance (the ``repro serve`` flags)."""

    jobs: int = 1
    machine: str = "rs6k"
    level: str = "speculative"
    #: per-job wall-clock deadline (None = unbounded)
    timeout_s: float | None = None
    #: default for requests that do not carry ``resilient``
    resilient: bool = False
    cache_entries: int = 256
    cache_dir: str | None = None
    batch_size: int = 32
    queue_size: int = 64
    #: admit the ``chaos_hang_s`` fault-injection hook (tests/CI only)
    allow_chaos: bool = False
    #: print a scorecard to stderr after every batch
    scorecard: bool = False
    # -- supervision ---------------------------------------------------------
    #: supervisor hang deadline for in-flight jobs (None = watchdog only)
    hang_timeout_s: float | None = None
    #: pool rebuilds inside the window before the breaker trips
    max_rebuilds: int = 3
    rebuild_window_s: float = 60.0
    # -- write-ahead journal -------------------------------------------------
    journal_path: str | None = None
    #: replay the journal's incomplete requests before serving new ones
    resume_journal: bool = False
    # -- admission control ---------------------------------------------------
    #: unserved-request depth that starts shedding (None = admission off)
    high_water: int | None = None
    #: depth at which shedding stops (default: high_water // 2)
    low_water: int | None = None
    #: shed by degrading one ladder rung instead of fast-failing
    degrade_under_load: bool = False
    # -- protocol hardening --------------------------------------------------
    #: longest request line accepted (None = unbounded)
    max_request_bytes: int | None = None
    #: socket read deadline per client, seconds (None = patient)
    read_deadline_s: float | None = None


class _BadRequest(ValueError):
    """A request the daemon refuses before compiling anything.

    ``reason`` is the typed tag the response carries -- ``bad-json`` for
    unparsable lines, ``unknown-field`` for vocabulary violations,
    ``oversized`` for frames past ``--max-request-bytes``, and
    ``bad-request`` for everything else.
    """

    def __init__(self, message: str, reason: str = "bad-request"):
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class _Oversized:
    """Sentinel the bounded reader yields instead of a too-long line."""

    prefix: str


def _bounded_lines(stream, max_bytes: int):
    """Iterate lines of ``stream``, replacing any line longer than
    ``max_bytes`` with an :class:`_Oversized` sentinel.  The remainder
    of the long line is swallowed so framing stays intact -- one bad
    frame costs one typed error, not the session."""
    while True:
        line = stream.readline(max_bytes + 1)
        if not line:
            return
        if len(line) > max_bytes and not line.endswith("\n"):
            while True:
                rest = stream.readline(max_bytes + 1)
                if not rest or rest.endswith("\n"):
                    break
            yield _Oversized(prefix=line[:80])
        else:
            yield line


def _read_lines(stream, sink: queue.SimpleQueue,
                max_bytes: int | None = None) -> None:
    """Reader-thread body: forward lines, then an EOF sentinel.  Keeping
    the blocking read off the main thread lets SIGTERM drain promptly
    even while the peer holds the stream open."""
    try:
        source = (stream if max_bytes is None
                  else _bounded_lines(stream, max_bytes))
        for line in source:
            sink.put(line)
    except (OSError, ValueError):
        pass  # peer vanished or went quiet past its deadline: EOF
    sink.put(None)


class AdmissionController:
    """High/low-watermark hysteresis over the unserved-request depth.

    Above ``high_water`` the daemon starts shedding; it keeps shedding
    until the depth falls to ``low_water`` -- the gap is what stops the
    service flapping between accept and shed at the boundary.  Both
    transitions are emitted as typed :class:`AdmissionEvent`s.
    """

    def __init__(self, high_water: int, low_water: int | None = None, *,
                 metrics=None, tracer=None):
        if high_water < 1:
            raise ValueError(
                f"high_water must be a positive integer, got {high_water}")
        if low_water is None:
            low_water = high_water // 2
        if low_water >= high_water:
            raise ValueError(
                f"low_water ({low_water}) must be below "
                f"high_water ({high_water})")
        self.high_water = high_water
        self.low_water = low_water
        self.shedding = False
        self.sheds = 0
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def update(self, depth: int) -> bool:
        """Fold one depth observation; returns the shedding state."""
        if not self.shedding and depth > self.high_water:
            self.shedding = True
            self.sheds += 1
            self._emit("shed-start", depth)
        elif self.shedding and depth <= self.low_water:
            self.shedding = False
            self._emit("shed-stop", depth)
        return self.shedding

    def _emit(self, action: str, depth: int) -> None:
        if self._metrics is not None:
            self._metrics.inc(
                f"service.admission.{action.replace('-', '_')}")
        if self._tracer.enabled:
            self._tracer.emit(AdmissionEvent(
                action=action, depth=depth,
                high_water=self.high_water, low_water=self.low_water))


class Daemon:
    """A long-lived batch-compile service over one self-healing pool."""

    def __init__(self, config: ServeConfig | None = None,
                 metrics: MetricsCollector | None = None, tracer=None):
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cache = ArtifactCache(self.config.cache_entries,
                                   disk_dir=self.config.cache_dir,
                                   metrics=self.metrics)
        self._pool = None
        self._journal: Journal | None = None
        self._admission: AdmissionController | None = None
        if self.config.high_water is not None:
            self._admission = AdmissionController(
                self.config.high_water, self.config.low_water,
                metrics=self.metrics, tracer=self.tracer)
        self._shutdown = threading.Event()
        self._seq = 0
        self._started = time.perf_counter()

    # -- lifecycle -----------------------------------------------------------

    @property
    def pool(self) -> JobPool:
        if self._pool is None:
            self._pool = JobPool(
                worker.compile_request,
                jobs=self.config.jobs,
                queue_size=self.config.queue_size,
                timeout_s=self.config.timeout_s,
                typed_errors=worker.TYPED_ERRORS,
                metrics=self.metrics,
                tracer=self.tracer,
                supervisor=SupervisorConfig(
                    hang_timeout_s=self.config.hang_timeout_s,
                    max_rebuilds=self.config.max_rebuilds,
                    rebuild_window_s=self.config.rebuild_window_s),
            )
        return self._pool

    def supervisor_stats(self) -> dict | None:
        return self._pool.stats() if self._pool is not None else None

    def request_shutdown(self) -> None:
        """Stop accepting new requests; already-accepted work drains."""
        self._shutdown.set()

    @property
    def shutting_down(self) -> bool:
        return self._shutdown.is_set()

    def install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: self.request_shutdown())

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the write-ahead journal ---------------------------------------------

    def start_journal(self) -> None:
        """Open a fresh journal at ``--journal`` (truncating any old one)."""
        if self.config.journal_path is not None and self._journal is None:
            self._journal = Journal(self.config.journal_path)

    def resume_from_journal(self, out_stream, err_stream=None) -> int:
        """Recover from ``--journal``: seed the cache with every recorded
        artifact, truncate a torn tail, then replay each request that has
        no completion record through the normal batch path (responses go
        to ``out_stream``).  Returns the number of requests replayed.
        Raises :class:`~repro.service.journal.JournalError` on a journal
        corrupt beyond its final line."""
        path = self.config.journal_path
        state = load_journal(path)
        for key, doc in state.artifacts:
            self.cache.put(key, Artifact.from_json(doc))
        self._journal = Journal(path, resume_from=state)
        self._seq = state.max_seq + 1
        pending = state.incomplete()
        if pending:
            self.metrics.inc("service.journal.replayed", len(pending))
        size = self.config.batch_size
        for start in range(0, len(pending), size):
            answers = self._serve_batch(pending[start:start + size])
            self._write_answers(answers, out_stream, err_stream)
        return len(pending)

    # -- request parsing -----------------------------------------------------

    def _parse_request(self, line: str):
        """(id, payload, wants_trace) -- raises :class:`_BadRequest`."""
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"not valid JSON: {exc}",
                              reason="bad-json") from exc
        if not isinstance(doc, dict):
            raise _BadRequest("request must be a JSON object",
                              reason="bad-json")
        unknown = sorted(set(doc) - _REQUEST_KEYS)
        if unknown:
            raise _BadRequest(
                f"unknown request field(s) {unknown}; allowed: "
                f"{sorted(_REQUEST_KEYS)}", reason="unknown-field")
        source = doc.get("source")
        if not isinstance(source, str):
            raise _BadRequest("request needs a string 'source'")
        machine = doc.get("machine", self.config.machine)
        if machine not in CONFIGS:
            raise _BadRequest(f"unknown machine {machine!r}; choose from "
                              f"{sorted(CONFIGS)}")
        level = doc.get("level", self.config.level)
        if level not in _LEVELS:
            raise _BadRequest(f"unknown level {level!r}; choose from "
                              f"{sorted(_LEVELS)}")
        overrides = doc.get("config") or {}
        if not isinstance(overrides, dict):
            raise _BadRequest("'config' must be a JSON object")
        for key, value in overrides.items():
            if key not in _OVERRIDABLE:
                raise _BadRequest(
                    f"config field {key!r} is not overridable; allowed: "
                    f"{sorted(_OVERRIDABLE)}", reason="unknown-field")
            if not isinstance(value, (bool, int)):
                raise _BadRequest(
                    f"config field {key!r} must be a scalar, "
                    f"got {type(value).__name__}")
        resilient = bool(doc.get("resilient", self.config.resilient))
        payload = {"source": source, "machine": machine, "level": level,
                   "config": dict(sorted(overrides.items())),
                   "resilient": resilient}
        hang_s = doc.get("chaos_hang_s")
        if hang_s is not None:
            if not self.config.allow_chaos:
                raise _BadRequest(
                    "'chaos_hang_s' requires the daemon's --chaos flag")
            if not isinstance(hang_s, (int, float)) \
                    or isinstance(hang_s, bool):
                raise _BadRequest("'chaos_hang_s' must be a number")
            payload["chaos_hang_s"] = float(hang_s)
        return doc.get("id"), payload, bool(doc.get("trace", False))

    @staticmethod
    def _shed_payload(payload: dict) -> dict:
        """The ``--degrade-under-load`` transform: one scheduling rung
        down, and ``verify`` forced on so the shed-rung schedule is
        proven before it is served."""
        shed = dict(payload)
        shed["level"] = _SHED_LEVEL[payload["level"]]
        overrides = dict(payload["config"])
        overrides["verify"] = True
        shed["config"] = dict(sorted(overrides.items()))
        return shed

    # -- the batch engine ----------------------------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def serve_batch_lines(self, lines: list[str]) -> list[dict]:
        """Answer one batch of raw JSONL request lines, in order.

        Requests sharing a cache key compile once: the first occurrence
        runs (or hits the cache), every duplicate shares its outcome --
        so the status vector is a function of the batch alone, identical
        for any pool width.
        """
        pairs = [(self._next_seq(), line) for line in lines]
        return [answer["response"] for answer in self._serve_batch(pairs)]

    def _serve_batch(self, pairs: list[tuple[int, object]],
                     *, shed: bool = False) -> list[dict]:
        """Serve ``(seq, line)`` pairs; each answer carries the response
        plus what the journal's completion record needs (``seq``, and
        the cache ``key``/``artifact`` for ``ok`` compiles)."""
        entries = []
        for seq, line in pairs:
            self.metrics.inc("service.requests")
            entry = {"seq": seq, "rid": seq, "payload": None, "err": None,
                     "reason": "bad-request", "trace": False, "shed": None}
            if isinstance(line, _Oversized):
                entry["err"] = (
                    "request line exceeds --max-request-bytes "
                    f"({self.config.max_request_bytes}); "
                    f"starts: {json.dumps(line.prefix)[:60]}")
                entry["reason"] = "oversized"
            else:
                try:
                    req_id, payload, wants_trace = self._parse_request(line)
                    if req_id is not None:
                        entry["rid"] = req_id
                    entry["payload"] = payload
                    entry["trace"] = wants_trace
                except _BadRequest as exc:
                    entry["err"] = str(exc)
                    entry["reason"] = exc.reason
            if shed and entry["payload"] is not None:
                if self.config.degrade_under_load:
                    entry["payload"] = self._shed_payload(entry["payload"])
                    entry["shed"] = "degraded"
                else:
                    entry["payload"] = None
                    entry["shed"] = "overloaded"
            entries.append(entry)

        # content-address every compile and dedupe within the batch
        first_of: dict[str, int] = {}
        jobs: list[JobSpec] = []
        keyed = []  # per entry: (key, is_first, cached_artifact|None)
        for index, entry in enumerate(entries):
            payload = entry["payload"]
            if payload is None:
                keyed.append((None, False, None))
                continue
            key = cache_key(payload["source"], payload["machine"],
                            worker.build_config(payload["level"],
                                                payload["config"],
                                                payload["resilient"]))
            if key in first_of:
                keyed.append((key, False, None))
                continue
            first_of[key] = index
            artifact = self.cache.get(key)
            if artifact is None:
                jobs.append(JobSpec(id=index, payload=payload))
            keyed.append((key, True, artifact))

        by_index = {}
        if jobs:  # a fully-cached batch never needs (or forks) the pool
            for spec in jobs:
                self.pool.submit(spec)
            by_index = {result.id: result for result in self.pool.drain()}

        # fold outcomes back into request order
        outcomes: dict[str, dict] = {}
        answers = []
        for index, entry in enumerate(entries):
            answer = {"seq": entry["seq"], "key": None, "artifact": None}
            if entry["shed"] == "overloaded":
                answer["response"] = self._finish(
                    {"id": entry["rid"], "status": "overloaded",
                     "reason": "queue-depth",
                     "error": "service above high water; retry later"})
                answers.append(answer)
                continue
            if entry["err"] is not None:
                answer["response"] = self._finish(
                    {"id": entry["rid"], "status": "error",
                     "reason": entry["reason"], "error": entry["err"]})
                answers.append(answer)
                continue
            key, is_first, cached = keyed[index]
            if is_first:
                outcomes[key] = self._first_outcome(
                    key, entry["payload"], cached, by_index.get(index))
            elif outcomes[key].get("artifact") is not None:
                # a shared in-batch artifact is a cache hit in all but
                # timing; count it so the hit rate reflects work saved
                self.cache.hits += 1
                self.metrics.inc("service.cache.hit")
            response = self._respond(entry["rid"], outcomes[key],
                                     is_first=is_first,
                                     wants_trace=entry["trace"])
            if entry["shed"] == "degraded" \
                    and response["status"] in ("ok", "cache-hit"):
                response["status"] = "degraded"
                response["reason"] = "overload"
            if outcomes[key]["status"] == "ok":
                answer["key"] = key
                answer["artifact"] = outcomes[key]["artifact"].to_json()
            answer["response"] = self._finish(response)
            answers.append(answer)
        self.metrics.inc("service.batches")
        return answers

    def _first_outcome(self, key: str, payload: dict,
                       cached: Artifact | None, result) -> dict:
        """Classify the first occurrence of a cache key in this batch."""
        if cached is not None:
            return {"status": "cache-hit", "artifact": cached}
        if result is None:  # defensive: the pool lost track of the job
            return {"status": "error", "reason": "internal",
                    "error": "job result missing"}
        if result.status == OK:
            artifact = Artifact.from_json(result.value)
            requested = worker.start_rung(worker.build_config(
                payload["level"], payload["config"],
                payload["resilient"])).value
            if artifact.rung == requested:
                self.cache.put(key, artifact)
                return {"status": "ok", "artifact": artifact}
            return {"status": "degraded", "artifact": artifact}
        if result.status == ERROR:
            return {"status": "error", "reason": result.reason,
                    "error": result.detail}
        if result.status == QUARANTINED:
            return {"status": "quarantined", "reason": result.reason}
        # CRASHED: the pool could not run the job at all (its error
        # callback, e.g. a result that did not pickle) -- a typed error
        return {"status": "error", "reason": "crash", "error": result.detail}

    def _respond(self, rid, outcome: dict, *, is_first: bool,
                 wants_trace: bool) -> dict:
        status = outcome["status"]
        if not is_first and status in ("ok", "degraded", "cache-hit"):
            # duplicates share the first occurrence's artifact; a shared
            # full-quality artifact is by definition a cache hit
            status = "cache-hit" if status != "degraded" else "degraded"
        response = {"id": rid, "status": status}
        artifact = outcome.get("artifact")
        if artifact is not None:
            response["rung"] = artifact.rung
            response["assembly"] = artifact.assembly
            response["counters"] = artifact.counters
            if wants_trace:
                response["trace"] = artifact.trace
        if "reason" in outcome:
            response["reason"] = outcome["reason"]
        if "error" in outcome:
            response["error"] = outcome["error"]
        return response

    def _finish(self, response: dict) -> dict:
        self.metrics.inc(f"service.status.{response['status']}")
        if "rung" in response:
            self.metrics.inc(f"service.rung.{response['rung']}")
        return response

    # -- stream / socket front ends ------------------------------------------

    def serve_stream(self, in_stream, out_stream,
                     err_stream=None) -> dict:
        """Serve JSONL from a text stream until EOF or shutdown.

        Lines are gathered into batches of at most ``batch_size`` (or
        whatever has arrived when the stream goes quiet) and answered in
        order; responses are flushed per batch so a live client sees
        progress.  On shutdown, every line already read is still
        answered before the daemon stops.
        """
        # fork the workers *before* the reader thread can block holding
        # ``in_stream``'s buffer lock: a worker forked mid-read inherits
        # the locked (possibly sys.stdin) buffer and its bootstrap
        # deadlocks in multiprocessing's _close_stdin
        self.pool
        lines: queue.SimpleQueue = queue.SimpleQueue()
        reader = threading.Thread(
            target=_read_lines,
            args=(in_stream, lines, self.config.max_request_bytes),
            daemon=True)
        reader.start()
        eof = False
        while not eof and not self.shutting_down:
            batch: list = []
            while len(batch) < self.config.batch_size:
                try:
                    line = (lines.get(timeout=0.1) if not batch
                            else lines.get_nowait())
                except queue.Empty:
                    if batch or self.shutting_down:
                        break
                    continue
                if line is None:
                    eof = True
                    break
                if isinstance(line, _Oversized) or line.strip():
                    batch.append(line)
            if batch:
                shed = False
                if self._admission is not None:
                    shed = self._admission.update(lines.qsize())
                self._emit(batch, out_stream, err_stream, shed=shed)
        # drain: answer every line the reader already handed us
        final: list = []
        while True:
            try:
                line = lines.get_nowait()
            except queue.Empty:
                break
            if line is None:
                break
            if isinstance(line, _Oversized) or line.strip():
                final.append(line)
        if final:
            shed = False
            if self._admission is not None:
                shed = self._admission.update(0)
            self._emit(final, out_stream, err_stream, shed=shed)
        return self.summary()

    def _emit(self, batch: list, out_stream, err_stream,
              *, shed: bool = False) -> None:
        pairs = [(self._next_seq(), line) for line in batch]
        if self._journal is not None:
            for seq, line in pairs:
                raw = line.prefix if isinstance(line, _Oversized) else line
                self._journal.record_request(seq, raw)
        answers = self._serve_batch(pairs, shed=shed)
        self._write_answers(answers, out_stream, err_stream)

    def _write_answers(self, answers: list[dict], out_stream,
                       err_stream) -> None:
        """Write responses, then journal each completion.  A client that
        vanishes mid-batch stops the writes but never the journal -- the
        work is done either way -- and surfaces as a session-ending
        :class:`BrokenPipeError` after the records are safe."""
        broken = False
        for answer in answers:
            if not broken:
                try:
                    out_stream.write(json.dumps(answer["response"],
                                                separators=(",", ":")))
                    out_stream.write("\n")
                except OSError:
                    broken = True
                    self.metrics.inc("service.client.disconnects")
            if self._journal is not None:
                self._journal.record_done(
                    answer["seq"], answer["response"]["id"],
                    answer["response"]["status"],
                    answer["key"], answer["artifact"])
        if not broken:
            try:
                out_stream.flush()
            except OSError:
                broken = True
                self.metrics.inc("service.client.disconnects")
        if self.config.scorecard and err_stream is not None:
            print(self.scorecard(), file=err_stream, flush=True)
        if broken:
            raise BrokenPipeError("client disconnected mid-batch")

    def serve_socket(self, path: str, err_stream=None,
                     *, ready: threading.Event | None = None) -> dict:
        """Serve JSONL sessions on a Unix socket, one client at a time.

        A session that misbehaves -- disconnects mid-batch, stalls past
        ``--read-deadline`` -- costs only itself; the listener and the
        pool keep serving the next client.
        """
        # fork the workers before any client connects: a worker forked
        # after accept() inherits the connection fd and holds it open,
        # so the client never sees EOF when its session ends
        self.pool
        try:
            os.unlink(path)
        except OSError:
            pass
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            listener.bind(path)
            listener.listen(1)
            listener.settimeout(0.2)
            if ready is not None:
                ready.set()
            while not self.shutting_down:
                try:
                    conn, _addr = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    if self.config.read_deadline_s is not None:
                        # a slow-loris client trips this in the reader
                        # thread, which treats it as that session's EOF
                        conn.settimeout(self.config.read_deadline_s)
                    rfile = conn.makefile("r", encoding="utf-8")
                    wfile = conn.makefile("w", encoding="utf-8")
                    try:
                        self.serve_stream(rfile, wfile, err_stream)
                    except OSError:
                        self.metrics.inc("service.sessions.dropped")
                    finally:
                        # the makefile wrappers keep the socket fd alive
                        # past ``conn.close()``; close them so the client
                        # sees EOF once its session is answered
                        for stream in (wfile, rfile):
                            try:
                                stream.close()
                            except OSError:
                                pass
        finally:
            listener.close()
            try:
                os.unlink(path)
            except OSError:
                pass
        return self.summary()

    # -- reporting -----------------------------------------------------------

    def summary(self) -> dict:
        counters = self.metrics.counters
        out = {
            "requests": counters.get("service.requests", 0),
            "batches": counters.get("service.batches", 0),
            "statuses": {name.rsplit(".", 1)[1]: count
                         for name, count in sorted(counters.items())
                         if name.startswith("service.status.")},
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
            "elapsed_s": time.perf_counter() - self._started,
        }
        stats = self.supervisor_stats()
        if stats is not None:
            out["supervisor"] = stats
        if self._journal is not None:
            out["journal_records"] = self._journal.records
        if self._admission is not None:
            out["sheds"] = self._admission.sheds
        return out

    def scorecard(self) -> str:
        return format_scorecard(self.metrics, self.cache, self.config,
                                elapsed_s=time.perf_counter() - self._started,
                                supervisor=self.supervisor_stats())
