"""The one batch-job layer of fuzz and serve: bounded queue, sharded
pool, quarantine, supervision.

A :class:`JobPool` runs picklable *jobs* -- ``(id, payload)`` pairs
handed to one module-level handler function -- on a sharded
:mod:`multiprocessing` pool.  The fuzz campaign streams through
:meth:`JobPool.run`; the daemon's batches go through :meth:`submit` +
:meth:`drain`.  Both get the same guarantees:

* **bounded queue with backpressure** -- at most ``queue_size`` jobs are
  in flight; :meth:`JobPool.submit` *blocks* the producer until a slot
  frees.  Nothing is ever dropped;
* **per-job deadlines** -- every attempt runs under the resilience
  layer's :func:`~repro.resilience.budget.watchdog` (SIGALRM in the
  worker process), so a hanging handler is interrupted mid-flight;
* **retry-once-then-quarantine** -- a crash or timeout is retried after
  a short exponential backoff and then parked as a ``quarantined``
  result, traceback in its detail, while the pool keeps serving;
* **typed errors** -- exception types listed in ``typed_errors`` (e.g. a
  parse error) are *expected* failures: reported once as an ``error``
  result, never retried, never quarantined;
* **supervision** -- ``multiprocessing`` replaces a worker that *dies*,
  but the job it was running vanishes, and a worker that *hangs* past
  the in-worker watchdog (or on a pool with no deadline) wedges the
  batch.  So whenever the pool has worker processes, every wait for a
  result polls a health check: a dead worker, or a job in flight past
  :attr:`SupervisorConfig.hang_timeout_s`, makes the pool **rebuild its
  workers in place** -- results that came back are kept, a hung job is
  parked as a typed ``quarantined`` result, everything else is
  resubmitted.  After :attr:`SupervisorConfig.max_rebuilds` rebuilds
  inside a sliding window the **circuit breaker** trips: the workers are
  abandoned and every remaining and future job runs inline in the
  calling process (slower, but it cannot lose work to a worker it no
  longer has).  Every action is a typed
  :class:`~repro.obs.events.SupervisorEvent` and a
  ``service.supervisor.*`` counter;
* **graceful drain/shutdown** -- :meth:`drain` waits for every accepted
  job and returns results sorted by id; closing the pool with work still
  outstanding kills the workers (a fuzz campaign stopped by
  ``interrupt_after``).

Determinism: a job's result is a pure function of its payload, so the
*sorted* result list of a batch is identical for every ``jobs`` value --
and a resubmitted job answers byte-identically, so supervision never
changes what a batch answers, only whether it answers at all.

Jobs run in forked workers when ``jobs > 1`` and inline (same process,
same code path, nothing to supervise) when ``jobs == 1``, which keeps
single-process runs trivially deterministic and debuggable.
"""

from __future__ import annotations

import functools
import os
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..obs.events import SupervisorEvent
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..resilience.budget import watchdog
from ..resilience.errors import BudgetExceeded

#: sleep before the retry of a crashed/timed-out job, doubled per attempt
#: (transient faults -- memory pressure, signal races -- get one breath
#: of air before the job is given up on)
RETRY_BACKOFF_S = 0.05
#: attempts per job before quarantine: the first run plus one retry
MAX_ATTEMPTS = 2
#: how long a kill-close waits for the result-handler thread to stop
_HANDLER_JOIN_S = 1.0

#: result statuses
OK = "ok"
ERROR = "error"              # an expected, typed failure -- not retried
QUARANTINED = "quarantined"  # crashed/hung twice; parked, pool continues
CRASHED = "crashed"          # the pool could not run the job (reason crash)


@dataclass(frozen=True)
class JobSpec:
    """One unit of work: an orderable id plus a picklable payload."""

    id: Any
    payload: Any


@dataclass
class JobResult:
    """The outcome of one job, whatever happened to it."""

    id: Any
    status: str
    value: Any = None
    #: exception class name for ERROR; "crash" | "timeout" | "hang" for
    #: QUARANTINED/CRASHED
    reason: str = ""
    detail: str = ""
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class SupervisorConfig:
    """Knobs of the pool's supervision (all inert until a fault happens)."""

    #: seconds between health checks while waiting on results
    poll_interval_s: float = 0.05
    #: a job in flight longer than this is declared hung and the workers
    #: rebuilt (None = rely on the in-worker watchdog alone)
    hang_timeout_s: float | None = None
    #: rebuilds inside :attr:`rebuild_window_s` before the breaker trips
    max_rebuilds: int = 3
    #: sliding window for the rebuild counter, seconds
    rebuild_window_s: float = 60.0


def _execute(task) -> JobResult:
    """Worker entry point: run one job, never raise.

    ``task`` carries everything the attempt needs because the pool
    workers share no state with the parent beyond this tuple.
    """
    handler, spec, timeout_s, typed_errors = task
    attempts = 0
    started = time.perf_counter()
    while True:
        attempts += 1
        try:
            with watchdog(timeout_s, f"job:{spec.id}"):
                value = handler(spec.payload)
            return JobResult(spec.id, OK, value=value, attempts=attempts,
                             elapsed_s=time.perf_counter() - started)
        except typed_errors as exc:
            return JobResult(spec.id, ERROR, reason=type(exc).__name__,
                             detail=str(exc), attempts=attempts,
                             elapsed_s=time.perf_counter() - started)
        except BudgetExceeded as exc:
            reason, detail = "timeout", str(exc)
        except Exception:
            reason, detail = "crash", traceback.format_exc()
        if attempts >= MAX_ATTEMPTS:
            return JobResult(spec.id, QUARANTINED, reason=reason,
                             detail=detail, attempts=attempts,
                             elapsed_s=time.perf_counter() - started)
        time.sleep(RETRY_BACKOFF_S * (2 ** (attempts - 1)))


def _discard(_obj) -> None:
    """Stands in for the result queue's ``put`` during a kill-close."""


class JobPool:
    """A bounded, sharded, quarantining, self-healing executor for
    picklable jobs.

    ``handler`` must be a module-level function (it is pickled by
    reference into the workers).  Use either the streaming API
    (:meth:`run` -- yields results as they complete) or the submit/drain
    API (:meth:`submit` + :meth:`drain`); do not mix them on one pool.
    Not thread-safe: one thread submits and collects.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        *,
        jobs: int = 1,
        queue_size: int = 64,
        timeout_s: float | None = None,
        typed_errors: tuple = (),
        metrics=None,
        tracer=None,
        supervisor: SupervisorConfig | None = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs}")
        if queue_size < 1:
            raise ValueError(
                f"queue_size must be a positive integer, got {queue_size}")
        self.jobs = jobs
        self.queue_size = queue_size
        self.config = supervisor or SupervisorConfig()
        self._handler = handler
        self._timeout_s = timeout_s
        self._typed_errors = tuple(typed_errors)
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: in-flight cap: submit() blocks here -- the backpressure valve
        self._slots = threading.BoundedSemaphore(queue_size)
        #: results the pool's result-handler thread delivered
        self._completed: queue.SimpleQueue = queue.SimpleQueue()
        #: job id -> (spec, dispatch time) for every job handed to the
        #: workers and not yet collected
        self._inflight: dict = {}
        #: results settled but not yet handed out (inline runs, rebuilds)
        self._ready: list[JobResult] = []
        self._rebuild_times: deque[float] = deque()
        self.rebuilds = 0
        self.workers_lost = 0
        self.hangs = 0
        self.breaker_open = False
        self._closed = False
        self._pool = None
        self._known_pids: set[int] = set()
        if jobs > 1:
            self._start_workers()

    # -- internals -----------------------------------------------------------

    def _start_workers(self) -> None:
        import multiprocessing

        self._pool = multiprocessing.get_context().Pool(processes=self.jobs)
        self._known_pids = set(self.worker_pids())

    def _task(self, spec: JobSpec):
        return (self._handler, spec, self._timeout_s, self._typed_errors)

    def _on_done(self, result: JobResult) -> None:
        # runs on the pool's result-handler thread: enqueue, free a slot
        self._completed.put(result)
        self._slots.release()

    def _on_error(self, job_id, exc: BaseException) -> None:
        # _execute never raises, so this only fires on infrastructure
        # failures (e.g. an unpicklable result); synthesize a crash so
        # the accounting -- and the backpressure slot -- stays balanced
        self._completed.put(JobResult(job_id, CRASHED, reason="crash",
                                      detail=repr(exc)))
        self._slots.release()

    def _send(self, spec: JobSpec) -> None:
        """Hand one job to the workers; its slot is already held."""
        self._inflight[spec.id] = (spec, time.monotonic())
        self._pool.apply_async(
            _execute, (self._task(spec),), callback=self._on_done,
            error_callback=functools.partial(self._on_error, spec.id))

    def _wait(self) -> list[JobResult]:
        """Block until some accepted job settles; hand out every settled
        result.  A poll that sees no result runs the health check, so a
        lost or hung worker cannot make this wait forever."""
        while not self._ready:
            try:
                result = self._completed.get(
                    timeout=self.config.poll_interval_s)
            except queue.Empty:
                self._health_check()
                continue
            self._inflight.pop(result.id, None)
            self._ready.append(result)
        ready, self._ready = self._ready, []
        return ready

    # -- submit / drain (the daemon shape) -----------------------------------

    @property
    def pending(self) -> int:
        """Jobs accepted but not yet collected."""
        return len(self._inflight) + len(self._ready)

    def submit(self, spec: JobSpec) -> None:
        """Accept one job.  Blocks while ``queue_size`` jobs are in
        flight -- bounded-queue backpressure, never a drop.  Inline pools
        (one job, or a tripped breaker) run it right here."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._pool is None:
            self._ready.append(_execute(self._task(spec)))
        else:
            self._slots.acquire()
            self._send(spec)
        if self._metrics.enabled:
            self._metrics.observe("service.queue.depth", self.pending)

    def drain(self) -> list[JobResult]:
        """Wait for every accepted job; results sorted by id."""
        out = []
        while self.pending:
            out.extend(self._wait())
        out.sort(key=lambda r: (r.id is None, r.id))
        return out

    # -- streaming (the fuzz-campaign shape) ---------------------------------

    def run(self, specs: Iterable[JobSpec]) -> Iterator[JobResult]:
        """Submit every spec, yielding results as they complete.

        At most ``queue_size`` jobs are in flight (inline pools run one
        job per result handed out), so breaking out early (a fuzz
        campaign's ``interrupt_after``) leaves the remaining work unrun.
        Yield order is completion order; ids let the caller sort.
        """
        it = iter(specs)
        spec = next(it, None)
        while True:
            while spec is not None and (
                    not self._ready if self._pool is None
                    else len(self._inflight) < self.queue_size):
                self.submit(spec)
                spec = next(it, None)
            if not self.pending:
                return
            yield from self._wait()

    # -- supervision ---------------------------------------------------------

    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes ([] for inline pools)."""
        if self._pool is None:
            return []
        return [p.pid for p in self._pool._pool if p.pid is not None]

    def stats(self) -> dict:
        return {"rebuilds": self.rebuilds,
                "workers_lost": self.workers_lost,
                "hangs": self.hangs,
                "breaker_open": self.breaker_open}

    def _emit(self, action: str, detail: str) -> None:
        self._metrics.inc(f"service.supervisor.{action.replace('-', '_')}")
        if self._tracer.enabled:
            self._tracer.emit(SupervisorEvent(
                action=action, rebuilds=self.rebuilds,
                inflight=len(self._inflight), detail=detail))

    def _lost_workers(self) -> int:
        """Workers gone since the last snapshot, plus exited but unreaped
        ones."""
        pids = set(self.worker_pids())
        return len(self._known_pids - pids) + sum(
            1 for p in self._pool._pool if p.exitcode is not None)

    def _health_check(self) -> None:
        """One supervision beat: compare worker PIDs against the last
        snapshot (multiprocessing silently replaces dead processes, so a
        *changed* set means a worker died since we last looked) and age
        every in-flight job against the hang deadline."""
        lost = self._lost_workers()
        hung = []
        if self.config.hang_timeout_s is not None:
            now = time.monotonic()
            hung = [job_id for job_id, (_spec, started)
                    in self._inflight.items()
                    if now - started > self.config.hang_timeout_s]
        if lost:
            self.workers_lost += lost
            self._emit("worker-lost",
                       f"{lost} worker process(es) died with "
                       f"{len(self._inflight)} job(s) in flight")
        for job_id in hung:
            self.hangs += 1
            self._emit("worker-hung",
                       f"job {job_id} exceeded the "
                       f"{self.config.hang_timeout_s:.1f}s hang deadline")
        if lost or hung:
            self._rebuild(hung)

    def _rebuild(self, hung_ids) -> None:
        """Replace the workers: kill the old ones, keep the results that
        came back, quarantine hung jobs, resubmit the rest -- or trip the
        breaker and finish inline."""
        self.rebuilds += 1
        now = time.monotonic()
        self._rebuild_times.append(now)
        window = self.config.rebuild_window_s
        while self._rebuild_times[0] < now - window:
            self._rebuild_times.popleft()

        self._kill_workers()
        # the result handler is stopped: whatever came back is all there is
        while True:
            try:
                result = self._completed.get_nowait()
            except queue.Empty:
                break
            self._inflight.pop(result.id, None)
            self._ready.append(result)
        # a job past the hang deadline is parked, not retried: resending
        # a known-wedging payload would just wedge the next pool too
        for job_id in hung_ids:
            if self._inflight.pop(job_id, None) is None:
                continue
            self._slots.release()
            self._ready.append(JobResult(
                job_id, QUARANTINED, reason="hang",
                detail=f"supervisor: job {job_id} still running after "
                       f"{self.config.hang_timeout_s:.1f}s; worker killed",
                attempts=1))

        survivors = [spec for spec, _started in self._inflight.values()]
        if len(self._rebuild_times) >= self.config.max_rebuilds:
            self.breaker_open = True
            self._emit("breaker-tripped",
                       f"{len(self._rebuild_times)} rebuilds inside "
                       f"{window:.0f}s; finishing "
                       f"{len(survivors)} job(s) inline")
            self._inflight.clear()
            for spec in survivors:
                self._slots.release()
                self._ready.append(_execute(self._task(spec)))
            return
        self._start_workers()
        self._emit("pool-rebuilt",
                   f"fresh pool of {self.jobs}; "
                   f"{len(survivors)} job(s) resubmitted")
        for spec in survivors:
            self._send(spec)

    def _kill_workers(self) -> None:
        """SIGKILL the workers and stop the pool's three threads without
        taking a lock of either queue.

        A SIGKILLed worker can die *holding* the task queue's read lock
        or the result queue's write lock, and ``Pool.terminate()`` takes
        the first to flush the queue -- so this path never calls it.  It
        disarms the pool's exit finalizer; stops the worker-respawn
        thread *before* the kill (a worker it forked after the kill loop
        would never be killed, and the reap would wait on it forever);
        kills and reaps the workers; then, with no worker left to race,
        stops the task handler (its result-queue sentinel, which takes
        the write lock, is swapped for a no-op, and the task pipe is
        drained in case it blocked on a full one) and the result handler
        (its sentinel is written without the lock)."""
        from multiprocessing.pool import TERMINATE

        pool, self._pool = self._pool, None
        pool._outqueue.put = _discard
        pool._state = TERMINATE
        pool._terminate.cancel()
        pool._worker_handler._state = TERMINATE
        pool._change_notifier.put(None)
        pool._worker_handler.join()
        for proc in pool._pool:
            if proc.exitcode is None:
                try:
                    proc.kill()
                except OSError:
                    pass
        for proc in pool._pool:
            proc.join()
        pool._task_handler._state = TERMINATE
        tasks = pool._inqueue._reader
        while pool._task_handler.is_alive():
            while tasks.poll():
                os.read(tasks.fileno(), 1 << 16)
            pool._task_handler.join(0.01)
        pool._result_handler._state = TERMINATE
        pool._outqueue._writer.send(None)
        pool._result_handler.join(_HANDLER_JOIN_S)

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, kill: bool = False) -> None:
        """Shut the pool down.  A drained, healthy pool closes
        gracefully.  Outstanding jobs (an early break out of :meth:`run`)
        are abandoned by killing the workers, as is a pool that lost a
        worker (the dead one may hold a queue lock a graceful close would
        wait on) and any pool on ``kill=True``."""
        if self._closed:
            return
        self._closed = True
        if self._pool is None:
            return
        if kill or self._inflight or self._lost_workers():
            self._kill_workers()
            return
        self._pool.close()
        self._pool.join()
        self._pool = None

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
