"""Reusable batch-job layer: bounded queue, sharded pool, quarantine.

This is the worker-management substrate of ``verify/fuzz.py`` (PRs 2 and
4) generalized into a service-grade primitive.  A :class:`JobPool` runs
picklable *jobs* -- ``(id, payload)`` pairs handed to one module-level
handler function -- on a sharded :mod:`multiprocessing` pool:

* **bounded queue with backpressure** -- at most ``queue_size`` jobs are
  in flight; :meth:`JobPool.submit` *blocks* the producer until a slot
  frees.  Nothing is ever dropped;
* **per-job deadlines** -- every attempt runs under the resilience
  layer's :func:`~repro.resilience.budget.watchdog` (SIGALRM in the
  worker process), so a hanging handler is interrupted mid-flight;
* **retry-once-then-quarantine** -- a crash or timeout is retried after
  a short exponential backoff and then parked as a ``quarantined``
  result while the pool keeps serving (``quarantine=False`` restores
  fail-fast semantics: the raw traceback comes back as a ``crashed``
  result for the caller to raise);
* **typed errors** -- exception types listed in ``typed_errors`` (e.g. a
  parse error) are *expected* failures: reported once as an ``error``
  result, never retried, never quarantined;
* **graceful drain/shutdown** -- :meth:`drain` waits for every accepted
  job and returns results sorted by id; closing the pool with work still
  outstanding terminates the workers (the fuzz ``stop_after`` path).

Determinism: a job's result is a pure function of its payload, so the
*sorted* result list of a batch is identical for every ``jobs`` value --
the property the differential fuzzer has relied on since PR 2, now free
for every client of the layer.

Jobs run in forked workers when ``jobs > 1`` and inline (same process,
same code path) when ``jobs == 1``, which keeps single-process runs
trivially deterministic and debuggable.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from ..obs.metrics import NULL_METRICS
from ..resilience.budget import watchdog
from ..resilience.errors import BudgetExceeded

#: sleep before the retry of a crashed/timed-out job, doubled per attempt
DEFAULT_RETRY_BACKOFF_S = 0.05
#: attempts per job before quarantine: the first run plus one retry
DEFAULT_MAX_ATTEMPTS = 2

#: result statuses
OK = "ok"
ERROR = "error"              # an expected, typed failure -- not retried
QUARANTINED = "quarantined"  # crashed/hung twice; parked, pool continues
CRASHED = "crashed"          # quarantine=False: raw traceback for caller


class JobWorkerError(RuntimeError):
    """A job handler died on an unexpected exception (``quarantine=False``
    pools only -- the caller turns the ``crashed`` result into this)."""

    def __init__(self, job_id, worker_traceback: str):
        super().__init__(
            f"job worker crashed on job {job_id}:\n{worker_traceback}")
        self.job_id = job_id
        self.worker_traceback = worker_traceback


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
    #: exception class name for ERROR; "crash" | "timeout" for
    #: QUARANTINED/CRASHED
    reason: str = ""
    detail: str = ""
    attempts: int = 1
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def raise_if_crashed(self) -> "JobResult":
        if self.status == CRASHED:
            raise JobWorkerError(self.id, self.detail)
        return self


def _execute(task) -> JobResult:
    """Worker entry point: run one job, never raise.

    ``task`` carries everything the attempt needs because the pool
    workers share no state with the parent beyond this tuple.
    """
    (handler, spec, timeout_s, quarantine, typed_errors,
     max_attempts, backoff_s) = task
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
        if not quarantine:
            return JobResult(spec.id, CRASHED, reason=reason, detail=detail,
                             attempts=attempts,
                             elapsed_s=time.perf_counter() - started)
        if attempts >= max_attempts:
            return JobResult(spec.id, QUARANTINED, reason=reason,
                             detail=detail, attempts=attempts,
                             elapsed_s=time.perf_counter() - started)
        time.sleep(backoff_s * (2 ** (attempts - 1)))


class JobPool:
    """A bounded, sharded, quarantining executor for picklable jobs.

    ``handler`` must be a module-level function (it is pickled by
    reference into the workers).  Use either the streaming API
    (:meth:`run` -- yields results as they complete, the fuzz campaign
    shape) or the submit/drain API (:meth:`submit` + :meth:`drain` --
    the daemon's batch shape); do not mix them on one pool.
    """

    def __init__(
        self,
        handler: Callable[[Any], Any],
        *,
        jobs: int = 1,
        queue_size: int = 64,
        timeout_s: float | None = None,
        quarantine: bool = True,
        typed_errors: tuple = (),
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
        metrics=None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs}")
        if queue_size < 1:
            raise ValueError(
                f"queue_size must be a positive integer, got {queue_size}")
        self.jobs = jobs
        self.queue_size = queue_size
        self._handler = handler
        self._timeout_s = timeout_s
        self._quarantine = quarantine
        self._typed_errors = tuple(typed_errors)
        self._max_attempts = max_attempts
        self._backoff_s = retry_backoff_s
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._pool = None
        if jobs > 1:
            import multiprocessing

            self._pool = multiprocessing.get_context().Pool(processes=jobs)
        #: in-flight cap: submit() blocks here -- the backpressure valve
        self._slots = threading.BoundedSemaphore(queue_size)
        self._completed: queue.SimpleQueue = queue.SimpleQueue()
        # both counters are touched by the submitting thread only
        self._submitted = 0
        self._collected = 0
        self._closed = False

    # -- internals -----------------------------------------------------------

    def _task(self, spec: JobSpec):
        return (self._handler, spec, self._timeout_s, self._quarantine,
                self._typed_errors, self._max_attempts, self._backoff_s)

    def _on_done(self, result: JobResult) -> None:
        # runs on the pool's result-handler thread: enqueue, free a slot
        self._completed.put(result)
        self._slots.release()

    def _on_error(self, exc: BaseException) -> None:
        # _execute never raises, so this only fires on infrastructure
        # failures (e.g. an unpicklable result); synthesize a crash so
        # the accounting -- and the backpressure slot -- stays balanced
        self._completed.put(JobResult(None, CRASHED, reason="crash",
                                      detail=repr(exc)))
        self._slots.release()

    def _dispatch(self, spec: JobSpec) -> None:
        self._submitted += 1
        if self._metrics.enabled:
            self._metrics.observe("service.queue.depth", self.pending)
        self._pool.apply_async(_execute, (self._task(spec),),
                               callback=self._on_done,
                               error_callback=self._on_error)

    # -- submit / drain (the daemon shape) -----------------------------------

    @property
    def pending(self) -> int:
        """Jobs accepted but not yet collected."""
        return self._submitted - self._collected

    def submit(self, spec: JobSpec) -> None:
        """Accept one job.  Blocks while ``queue_size`` jobs are in
        flight -- bounded-queue backpressure, never a drop."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if self._pool is None:
            self._submitted += 1
            if self._metrics.enabled:
                self._metrics.observe("service.queue.depth", self.pending)
            self._completed.put(_execute(self._task(spec)))
            return
        self._slots.acquire()
        self._dispatch(spec)

    def next_result(self, timeout: float | None = None) -> JobResult:
        """Block until one accepted job finishes and return its result.

        With a ``timeout`` (seconds), raises :class:`queue.Empty` when no
        result arrives in time -- the supervisor's polling hook."""
        if self.pending <= 0:
            raise RuntimeError("no jobs outstanding")
        result = (self._completed.get() if timeout is None
                  else self._completed.get(timeout=timeout))
        self._collected += 1
        return result

    def run_inline(self, spec: JobSpec) -> JobResult:
        """Execute one job in the calling process, bypassing the workers
        -- the circuit breaker's fallback path.  The job still runs under
        the watchdog/retry/quarantine ladder; the result is returned
        directly and never enters the pool's accounting."""
        return _execute(self._task(spec))

    def worker_pids(self) -> list[int]:
        """PIDs of the current worker processes ([] for inline pools).
        The supervisor compares successive snapshots to detect deaths --
        multiprocessing replaces a dead worker's *process*, but the job it
        was running is lost without this layer noticing."""
        if self._pool is None:
            return []
        return [p.pid for p in self._pool._pool if p.pid is not None]

    def dead_workers(self) -> int:
        """Workers whose process has exited but not yet been reaped."""
        if self._pool is None:
            return 0
        return sum(1 for p in self._pool._pool if p.exitcode is not None)

    def drain(self) -> list[JobResult]:
        """Wait for every accepted job; results sorted by id."""
        out = []
        while self.pending > 0:
            out.append(self.next_result())
        out.sort(key=lambda r: (r.id is None, r.id))
        return out

    # -- streaming (the fuzz-campaign shape) ---------------------------------

    def run(self, specs: Iterable[JobSpec]) -> Iterator[JobResult]:
        """Submit every spec, yielding results as they complete.

        At most ``queue_size`` jobs are in flight; the generator
        interleaves submission with collection, so breaking out early
        (``stop_after``) leaves the remaining work undispatched.  Yield
        order is completion order (serial pools complete in submission
        order); ids let the caller sort.
        """
        if self._pool is None:
            for spec in specs:
                self._submitted += 1
                result = _execute(self._task(spec))
                self._collected += 1
                yield result
            return
        it = iter(specs)
        exhausted = False
        while True:
            while not exhausted and self._slots.acquire(blocking=False):
                spec = next(it, None)
                if spec is None:
                    self._slots.release()
                    exhausted = True
                    break
                self._dispatch(spec)
            if self.pending == 0:
                if exhausted:
                    return
                continue
            yield self.next_result()

    # -- lifecycle -----------------------------------------------------------

    def close(self, *, kill: bool = False) -> None:
        """Shut the pool down.  Outstanding jobs (an early break out of
        :meth:`run`) are abandoned by terminating the workers; a drained
        pool closes gracefully.  ``kill=True`` SIGKILLs the workers --
        the supervisor's rebuild path, where a worker may be too hung to
        honour SIGTERM.  A SIGKILLed worker can die *holding the shared
        task-queue lock*, which deadlocks ``Pool.terminate()`` (it
        blocks acquiring that lock to flush the queue) -- so the kill
        path never calls terminate: it disarms the pool's exit
        finalizer, stops the worker-respawn thread, kills and reaps the
        processes, and abandons the daemonic handler threads.  The
        respawn thread is woken and joined *before* the kill: it replaces
        dead workers, so one it forked after the kill loop would never be
        killed and the reap would wait on it forever."""
        if self._closed:
            return
        self._closed = True
        if self._pool is None:
            return
        if kill:
            from multiprocessing.pool import TERMINATE

            self._pool._terminate.cancel()
            self._pool._worker_handler._state = TERMINATE
            self._pool._change_notifier.put(None)
            self._pool._worker_handler.join()
            for proc in self._pool._pool:
                if proc.exitcode is None:
                    try:
                        proc.kill()
                    except OSError:
                        pass
            for proc in self._pool._pool:
                proc.join()
            return
        if self.pending > 0:
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()

    def __enter__(self) -> "JobPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
