"""Job-layer isolation tests (ISSUE 6 satellite).

The three service-grade guarantees, each exercised on its own:

* backpressure **blocks** producers at the queue bound -- it never drops;
* a deadline expiry quarantines the one job without poisoning the pool;
* a worker crash surfaces as a typed result and the pool keeps serving.

Handlers are module-level so the pool can pickle them by reference.
"""

import os
import signal
import threading
import time

import pytest

from repro.service.jobs import (
    CRASHED,
    ERROR,
    OK,
    QUARANTINED,
    JobPool,
    JobSpec,
    JobWorkerError,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

_FAST = dict(retry_backoff_s=0.001)


# -- module-level handlers (picklable by reference) ---------------------------

def _double(payload):
    return payload * 2


def _sleep_then_echo(payload):
    time.sleep(payload)
    return payload


def _crash_on_negative(payload):
    if payload < 0:
        raise RuntimeError(f"boom on {payload}")
    return payload


class _TypedFailure(ValueError):
    pass


def _typed_on_negative(payload):
    if payload < 0:
        raise _TypedFailure(f"expected failure on {payload}")
    return payload


# -- construction -------------------------------------------------------------

@pytest.mark.parametrize("jobs", [0, -2])
def test_invalid_jobs_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be a positive"):
        JobPool(_double, jobs=jobs)


def test_invalid_queue_size_rejected():
    with pytest.raises(ValueError, match="queue_size must be a positive"):
        JobPool(_double, queue_size=0)


# -- the happy path, both shapes ----------------------------------------------

@pytest.mark.parametrize("jobs", [1, 3])
def test_drain_returns_every_job_sorted(jobs):
    with JobPool(_double, jobs=jobs, **_FAST) as pool:
        for index in reversed(range(8)):
            pool.submit(JobSpec(id=index, payload=index))
        results = pool.drain()
    assert [r.id for r in results] == list(range(8))
    assert all(r.status == OK for r in results)
    assert [r.value for r in results] == [2 * i for i in range(8)]


@pytest.mark.parametrize("jobs", [1, 3])
def test_streaming_results_sorted_identically(jobs):
    specs = [JobSpec(id=i, payload=i) for i in range(10)]
    with JobPool(_double, jobs=jobs, queue_size=4, **_FAST) as pool:
        results = sorted(pool.run(specs), key=lambda r: r.id)
    assert [(r.id, r.value) for r in results] == [(i, 2 * i)
                                                 for i in range(10)]


# -- backpressure: blocks, never drops ----------------------------------------

@pytest.mark.slow
def test_backpressure_blocks_producer_and_drops_nothing():
    """With ``queue_size=2`` full of sleeping jobs, a third ``submit``
    blocks until a slot frees -- and every job is still answered."""
    with JobPool(_sleep_then_echo, jobs=2, queue_size=2, **_FAST) as pool:
        pool.submit(JobSpec(id=0, payload=0.4))
        pool.submit(JobSpec(id=1, payload=0.4))

        third_accepted = threading.Event()

        def producer():
            pool.submit(JobSpec(id=2, payload=0.0))
            third_accepted.set()

        thread = threading.Thread(target=producer, daemon=True)
        thread.start()
        # the queue is at its bound: the producer must be blocked
        assert not third_accepted.wait(timeout=0.15)
        # a slot frees once a sleeper finishes; the producer unblocks
        assert third_accepted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        results = pool.drain()
    assert sorted(r.id for r in results) == [0, 1, 2]
    assert all(r.status == OK for r in results)


# -- deadlines: expiry quarantines without poisoning the pool -----------------

@pytest.mark.slow
@pytest.mark.parametrize("jobs", [1, 2])
def test_deadline_expiry_quarantines_only_the_hanging_job(jobs):
    with JobPool(_sleep_then_echo, jobs=jobs, timeout_s=0.15,
                 **_FAST) as pool:
        pool.submit(JobSpec(id=99, payload=30.0))  # the hang
        for index in range(3):
            pool.submit(JobSpec(id=index, payload=0.0))
        results = {r.id: r for r in pool.drain()}

        hang = results[99]
        assert hang.status == QUARANTINED
        assert hang.reason == "timeout"
        assert hang.attempts == 2
        for index in range(3):
            assert results[index].status == OK

        # the pool is not poisoned: it keeps serving new work
        pool.submit(JobSpec(id=100, payload=0.0))
        (after,) = pool.drain()
    assert after.status == OK and after.id == 100


# -- crashes: typed result, pool keeps serving --------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_crash_is_quarantined_and_pool_keeps_serving(jobs):
    with JobPool(_crash_on_negative, jobs=jobs, **_FAST) as pool:
        pool.submit(JobSpec(id=0, payload=-1))  # the crash
        pool.submit(JobSpec(id=1, payload=5))
        results = {r.id: r for r in pool.drain()}

        bad = results[0]
        assert bad.status == QUARANTINED
        assert bad.reason == "crash"
        assert bad.attempts == 2
        assert "boom on -1" in bad.detail
        assert results[1].status == OK

        pool.submit(JobSpec(id=2, payload=7))
        (again,) = pool.drain()
    assert again.status == OK and again.value == 7


@pytest.mark.parametrize("jobs", [1, 2])
def test_failfast_crash_surfaces_as_typed_worker_error(jobs):
    with JobPool(_crash_on_negative, jobs=jobs, quarantine=False,
                 **_FAST) as pool:
        pool.submit(JobSpec(id=9, payload=-3))
        (result,) = pool.drain()
    assert result.status == CRASHED
    assert result.attempts == 1
    with pytest.raises(JobWorkerError) as excinfo:
        result.raise_if_crashed()
    assert excinfo.value.job_id == 9
    assert "boom on -3" in excinfo.value.worker_traceback


@pytest.mark.parametrize("jobs", [1, 2])
def test_typed_errors_reported_once_never_retried(jobs):
    with JobPool(_typed_on_negative, jobs=jobs,
                 typed_errors=(_TypedFailure,), **_FAST) as pool:
        pool.submit(JobSpec(id=0, payload=-2))  # the typed failure
        pool.submit(JobSpec(id=1, payload=2))
        results = {r.id: r for r in pool.drain()}
    typed = results[0]
    assert typed.status == ERROR
    assert typed.reason == "_TypedFailure"
    assert typed.attempts == 1
    assert "expected failure on -2" in typed.detail
    assert results[1].status == OK


def test_submit_after_close_is_refused():
    pool = JobPool(_double, jobs=1)
    pool.close()
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(JobSpec(id=0, payload=0))


def test_kill_close_reaps_workers_respawned_during_the_close():
    """``close(kill=True)`` stops the pool's respawn thread before the
    kill: a replacement worker forked after the kill loop would outlive
    the close, and reaping it would wait forever."""
    for _ in range(20):
        pool = JobPool(_double, jobs=2)
        inner = pool._pool
        # a dead worker makes the respawn thread fork a replacement
        os.kill(pool.worker_pids()[0], signal.SIGKILL)
        closer = threading.Thread(target=pool.close, kwargs={"kill": True},
                                  daemon=True)
        closer.start()
        closer.join(timeout=30.0)
        assert not closer.is_alive(), "close(kill=True) hung reaping"
        assert not inner._worker_handler.is_alive()
        assert all(proc.exitcode is not None for proc in inner._pool)
