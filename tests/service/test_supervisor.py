"""Worker-crash-storm battery for the supervision in
:class:`repro.service.jobs.JobPool`.

Kill every worker mid-drain and the pool must rebuild its workers with
no job lost or duplicated; results stay sorted and
byte-identical to an inline (``jobs=1``) run.  Hung jobs are parked as
typed ``quarantined`` results, and a crash storm that keeps eating pools
trips the circuit breaker into inline mode instead of thrashing forever.

Handlers live at module level (pickled by reference into the forked
workers); the poison handler only SIGKILLs itself when it is *not* the
main process, so the breaker's inline fallback survives it.
"""

import os
import signal
import threading
import time

from repro.obs.metrics import MetricsCollector
from repro.service.jobs import JobPool, JobSpec, SupervisorConfig

_FAST = SupervisorConfig(poll_interval_s=0.02)


def _storm_handler(payload):
    """(kind, arg) jobs: compute, dawdle-then-compute, wedge, or SIGKILL
    the worker process (arg = the test process pid to spare)."""
    kind, arg = payload
    if kind == "ok":
        return arg * 3 + 1
    if kind == "sleep":
        time.sleep(0.2)
        return arg * 3 + 1
    if kind == "hang":
        time.sleep(30.0)
        return arg
    if kind == "die":
        if os.getpid() != arg:
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived-inline"
    raise AssertionError(f"unknown job kind {kind!r}")


def _run(jobs, specs, *, supervisor=_FAST, metrics=None, killer=None):
    with JobPool(_storm_handler, jobs=jobs, supervisor=supervisor,
                 metrics=metrics) as pool:
        for spec in specs:
            pool.submit(spec)
        thread = None
        if killer is not None:
            thread = threading.Thread(target=killer, args=(pool,))
            thread.start()
        results = pool.drain()
        if thread is not None:
            thread.join()
        return pool, results


class TestCrashStorm:
    def test_kill_every_worker_mid_drain_loses_nothing(self):
        """All four workers SIGKILLed mid-batch: the supervisor rebuilds
        and every job is answered exactly once, in id order."""
        specs = [JobSpec(id=i, payload=("sleep", i)) for i in range(8)]

        def killer(pool):
            time.sleep(0.1)
            for pid in pool.worker_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

        metrics = MetricsCollector()
        pool, results = _run(4, specs, metrics=metrics, killer=killer)
        assert [r.id for r in results] == list(range(8))  # no loss, no dup
        assert all(r.status == "ok" for r in results)
        assert pool.workers_lost >= 1
        assert pool.rebuilds >= 1
        assert metrics.counters["service.supervisor.worker_lost"] >= 1
        assert metrics.counters["service.supervisor.pool_rebuilt"] >= 1

    def test_storm_results_identical_to_inline_run(self):
        """The determinism contract under fire: the killed-and-rebuilt
        parallel run answers byte-for-byte what ``jobs=1`` answers."""
        specs = [JobSpec(id=i, payload=("sleep", i)) for i in range(8)]

        def killer(pool):
            time.sleep(0.1)
            for pid in pool.worker_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

        _, stormed = _run(4, specs, killer=killer)
        _, inline = _run(1, specs)
        assert ([(r.id, r.status, r.value) for r in stormed]
                == [(r.id, r.status, r.value) for r in inline])


class TestHangDetection:
    def test_hung_job_is_quarantined_not_retried(self):
        config = SupervisorConfig(poll_interval_s=0.02, hang_timeout_s=0.3)
        specs = [JobSpec(id=0, payload=("hang", 0))] + [
            JobSpec(id=i, payload=("ok", i)) for i in range(1, 4)]
        pool, results = _run(2, specs, supervisor=config)
        assert [r.id for r in results] == [0, 1, 2, 3]
        hung = results[0]
        assert hung.status == "quarantined"
        assert hung.reason == "hang"
        assert "supervisor" in hung.detail
        assert all(r.status == "ok" for r in results[1:])
        assert pool.hangs == 1


class TestCircuitBreaker:
    def test_poison_job_trips_breaker_into_inline_mode(self):
        """A job that kills whichever worker picks it up forces rebuild
        after rebuild; at ``max_rebuilds`` the breaker opens and the
        survivors -- poison included -- finish inline."""
        config = SupervisorConfig(poll_interval_s=0.02, max_rebuilds=2,
                                  rebuild_window_s=60.0)
        specs = [JobSpec(id=0, payload=("die", os.getpid())),
                 JobSpec(id=1, payload=("ok", 1)),
                 JobSpec(id=2, payload=("ok", 2))]
        metrics = MetricsCollector()
        pool, results = _run(2, specs, supervisor=config, metrics=metrics)
        assert pool.breaker_open
        assert pool.stats()["breaker_open"]
        assert [r.id for r in results] == [0, 1, 2]
        assert results[0].value == "survived-inline"
        assert [r.value for r in results[1:]] == [4, 7]
        assert metrics.counters["service.supervisor.breaker_tripped"] == 1

    def test_breaker_open_pool_keeps_serving_inline(self):
        config = SupervisorConfig(poll_interval_s=0.02, max_rebuilds=1,
                                  rebuild_window_s=60.0)
        specs = [JobSpec(id=0, payload=("die", os.getpid()))]
        pool, _ = _run(2, specs, supervisor=config)
        assert pool.breaker_open
        assert pool.worker_pids() == []  # no processes left to lose
        pool._closed = False  # reopen the context-managed pool for a beat
        pool.submit(JobSpec(id=9, payload=("ok", 9)))
        results = pool.drain()
        assert [(r.id, r.value) for r in results] == [(9, 28)]
        pool.close()


class TestInertPassthrough:
    def test_jobs_1_is_an_unsupervised_passthrough(self, monkeypatch):
        """Supervision costs nothing on an inline pool: no wait ever
        polls, so the health check never runs, on either API."""
        def no_beat(pool):
            raise AssertionError("health check ran on an inline pool")

        monkeypatch.setattr(JobPool, "_health_check", no_beat)
        specs = [JobSpec(id=i, payload=("ok", i)) for i in range(3)]
        pool, results = _run(1, specs)
        assert pool.worker_pids() == []
        assert [(r.id, r.value) for r in results] == [
            (0, 1), (1, 4), (2, 7)]
        assert pool.stats() == {"rebuilds": 0, "workers_lost": 0,
                                "hangs": 0, "breaker_open": False}
        with JobPool(_storm_handler, jobs=1, supervisor=_FAST) as pool:
            streamed = sorted(pool.run(specs), key=lambda r: r.id)
        assert [r.value for r in streamed] == [1, 4, 7]

    def test_fault_free_batch_never_rebuilds(self):
        """With nothing failing, the health checks a two-worker batch
        runs while it waits find nothing: no rebuild, no lost worker, no
        hang, and the answers of the inline run."""
        specs = [JobSpec(id=i, payload=("sleep", i)) for i in range(4)]
        pool, parallel = _run(2, specs)
        _, inline = _run(1, specs)
        assert pool.stats() == {"rebuilds": 0, "workers_lost": 0,
                                "hangs": 0, "breaker_open": False}
        assert ([(r.id, r.status, r.value) for r in parallel]
                == [(r.id, r.status, r.value) for r in inline])
