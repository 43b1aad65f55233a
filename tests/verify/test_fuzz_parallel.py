"""Parallel fuzz campaigns: determinism, validation and crash handling.

Campaign results must be a pure function of ``(seed, n)``: the sorted
failure list is identical for every ``--jobs`` value.  A program the
pool cannot run (as opposed to one that finds a differential failure)
must be parked in ``report.quarantined`` with reason ``crash`` and its
traceback, never hang the pool or silently drop the program.
"""

from __future__ import annotations

import importlib
import os

import pytest

from repro.__main__ import main as cli_main
from repro.resilience import watchdog
from repro.service import jobs as jobs_module
from repro.verify import fuzz
from repro.verify.fuzz import derive_seed

#: the submodule itself (``repro.verify`` re-exports the ``fuzz``
#: *function* under the same name, shadowing the module attribute)
fuzz_module = importlib.import_module("repro.verify.fuzz")

CAMPAIGN_N = 6
CAMPAIGN_SEED = 424242


def _failure_keys(report):
    return [(f.index, f.seed, f.detail) for f in report.failures]


def test_parallel_campaign_matches_serial():
    serial = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False)
    parallel = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=2)
    assert parallel.attempted == serial.attempted == CAMPAIGN_N
    assert _failure_keys(parallel) == _failure_keys(serial)


def test_parallel_progress_counts_every_program():
    seen = []
    fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=2,
         on_progress=lambda done, failures: seen.append(done))
    assert seen == list(range(1, CAMPAIGN_N + 1))


@pytest.mark.parametrize("jobs", [0, -1, -4])
def test_invalid_jobs_rejected(jobs):
    with pytest.raises(ValueError, match="jobs must be a positive"):
        fuzz(3, 1, jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashing_program_is_parked_at_every_job_count(monkeypatch, jobs):
    boom_seed = derive_seed(CAMPAIGN_SEED, 2)
    real_generate = fuzz_module.generate_program

    def exploding_generate(seed):
        if seed == boom_seed:
            raise RuntimeError("injected worker crash")
        return real_generate(seed)

    # fork-based workers inherit the patched module, so at jobs=2 the
    # crash happens inside the pool and its traceback comes back parked
    monkeypatch.setattr(fuzz_module, "generate_program", exploding_generate)
    monkeypatch.setattr(jobs_module, "RETRY_BACKOFF_S", 0.001)
    report = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=jobs)
    assert report.attempted == CAMPAIGN_N
    assert [(q.index, q.reason, q.attempts)
            for q in report.quarantined] == [(2, "crash", 2)]
    assert "injected worker crash" in report.quarantined[0].detail


def test_result_the_pool_cannot_return_is_parked_as_a_crash(monkeypatch):
    """A result that does not pickle never leaves its worker: the pool's
    error callback reports the job as crashed, and the campaign parks it
    with reason ``crash`` instead of stopping."""
    real_harness = fuzz_module._harness

    def unpicklable_summary(master_seed, index, *rest):
        failure, summary = real_harness(master_seed, index, *rest)
        if index == 1:
            return failure, {"index": index, "bad": lambda: None}
        return failure, summary

    monkeypatch.setattr(fuzz_module, "_harness", unpicklable_summary)
    report = fuzz(3, CAMPAIGN_SEED, shrink=False, jobs=2)
    assert report.attempted == 3
    assert [(q.index, q.reason, q.attempts)
            for q in report.quarantined] == [(1, "crash", 1)]


def test_campaign_survives_a_worker_that_dies(monkeypatch, tmp_path):
    """A worker that exits mid-program loses that program's job; the
    pool's supervision notices the death, rebuilds the workers and
    re-runs the job, so the campaign finishes with the undisturbed
    report.  The deadline turns a lost job back into a failure rather
    than a hang."""
    straight = fuzz(4, 1991, shrink=False)
    marker = tmp_path / "died"
    parent = os.getpid()
    real_harness = fuzz_module._harness

    def dies_once(master_seed, index, *rest):
        if index == 1 and os.getpid() != parent and not marker.exists():
            marker.touch()
            os._exit(1)
        return real_harness(master_seed, index, *rest)

    monkeypatch.setattr(fuzz_module, "_harness", dies_once)
    with watchdog(60.0, "fuzz campaign with a dead worker"):
        report = fuzz(4, 1991, shrink=False, jobs=2)
    assert marker.exists()  # the worker really died mid-program
    assert report.attempted == straight.attempted == 4
    assert _failure_keys(report) == _failure_keys(straight)
    assert report.quarantined == straight.quarantined == []


def test_cli_rejects_bad_jobs(capsys):
    assert cli_main(["fuzz", "--n", "1", "--jobs", "0"]) == 2
    assert "--jobs must be a positive integer" in capsys.readouterr().err


def test_cli_reproduce_ignores_jobs(capsys):
    code = cli_main(["fuzz", "--reproduce", f"{CAMPAIGN_SEED}:0",
                     "--jobs", "3", "--no-shrink"])
    captured = capsys.readouterr()
    assert "single-process" in captured.err
    assert code in (0, 1)  # pass or genuine differential failure
