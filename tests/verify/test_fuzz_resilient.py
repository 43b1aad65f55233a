"""Resilient fuzz campaigns: quarantine, timeouts, checkpoint/resume.

A campaign must be able to outlive a misbehaving program: a crash or
per-program timeout is retried once (with backoff) and then *parked* in
``report.quarantined`` while the sweep continues.  A checkpointed
campaign interrupted mid-run and resumed must produce result lists
byte-identical to an uninterrupted run's, for any ``jobs`` value.
"""

from __future__ import annotations

import dataclasses
import importlib
import json

import pytest

from repro.resilience import CheckpointError
from repro.service import jobs as jobs_module
from repro.verify import fuzz
from repro.verify.fuzz import derive_seed

fuzz_module = importlib.import_module("repro.verify.fuzz")

CAMPAIGN_N = 6
CAMPAIGN_SEED = 424242


def _keys(report):
    return ([(f.index, f.seed, f.detail) for f in report.failures],
            [dataclasses.astuple(q) for q in report.quarantined])


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(jobs_module, "RETRY_BACKOFF_S", 0.001)


# -- quarantine ---------------------------------------------------------------

class TestQuarantine:
    def test_crash_is_retried_then_parked_and_campaign_continues(
            self, monkeypatch):
        boom_seed = derive_seed(CAMPAIGN_SEED, 2)
        real_generate = fuzz_module.generate_program
        calls = []

        def exploding_generate(seed):
            if seed == boom_seed:
                calls.append(seed)
                raise RuntimeError("persistent crash")
            return real_generate(seed)

        monkeypatch.setattr(fuzz_module, "generate_program",
                            exploding_generate)
        report = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False)
        assert report.attempted == CAMPAIGN_N
        assert len(report.quarantined) == 1
        parked = report.quarantined[0]
        assert parked.index == 2
        assert parked.seed == boom_seed
        assert parked.reason == "crash"
        assert parked.attempts == 2  # first run + one retry
        assert "persistent crash" in parked.detail
        assert len(calls) == 2
        assert "1 quarantined" in report.summary()
        assert "quarantined #2" in parked.format()

    def test_transient_crash_recovers_on_the_retry(self, monkeypatch):
        boom_seed = derive_seed(CAMPAIGN_SEED, 1)
        real_generate = fuzz_module.generate_program
        failed_once = []

        def flaky_generate(seed):
            if seed == boom_seed and not failed_once:
                failed_once.append(seed)
                raise RuntimeError("transient crash")
            return real_generate(seed)

        monkeypatch.setattr(fuzz_module, "generate_program", flaky_generate)
        report = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False)
        assert report.attempted == CAMPAIGN_N
        assert not report.quarantined  # the retry absorbed it

    def test_timeout_quarantines_with_reason(self, monkeypatch):
        from repro.resilience import BudgetExceeded

        slow_seed = derive_seed(CAMPAIGN_SEED, 3)
        real_generate = fuzz_module.generate_program

        def hanging_generate(seed):
            if seed == slow_seed:
                # model the watchdog firing without burning wall clock
                raise BudgetExceeded(f"fuzz:program-3", 0.01, 0.02)
            return real_generate(seed)

        monkeypatch.setattr(fuzz_module, "generate_program",
                            hanging_generate)
        report = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False,
                      timeout_s=30.0)
        assert [q.reason for q in report.quarantined] == ["timeout"]
        assert report.attempted == CAMPAIGN_N

    def test_real_timeout_fires_on_a_hung_program(self, monkeypatch):
        slow_seed = derive_seed(CAMPAIGN_SEED, 0)
        real_generate = fuzz_module.generate_program

        def sleepy_generate(seed):
            if seed == slow_seed:
                while True:
                    pass
            return real_generate(seed)

        monkeypatch.setattr(fuzz_module, "generate_program", sleepy_generate)
        report = fuzz(1, CAMPAIGN_SEED, shrink=False, timeout_s=0.2)
        assert [q.index for q in report.quarantined] == [0]
        assert report.quarantined[0].reason == "timeout"
        assert report.quarantined[0].attempts == 2


# -- checkpoint / resume ------------------------------------------------------

class TestCheckpointResume:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_interrupted_resume_matches_uninterrupted(self, tmp_path, jobs):
        """ISSUE acceptance criterion: interrupt after 2 programs, resume,
        and compare against the straight-through run byte for byte."""
        straight = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=jobs)

        path = str(tmp_path / "campaign.json")
        partial = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=jobs,
                       checkpoint_path=path, interrupt_after=2)
        assert partial.attempted == 2
        resumed = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False, jobs=jobs,
                       checkpoint_path=path, resume_path=path)
        assert resumed.attempted == CAMPAIGN_N
        assert _keys(resumed) == _keys(straight)
        assert resumed.metric_summaries == straight.metric_summaries
        lines = (tmp_path / "campaign.json").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 2
        assert sorted(json.loads(l)["done"] for l in lines[1:]) \
            == list(range(CAMPAIGN_N))

    def test_resume_with_mismatched_params_is_a_typed_error(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        fuzz(3, CAMPAIGN_SEED, shrink=False, checkpoint_path=path)
        with pytest.raises(CheckpointError, match="different campaign"):
            fuzz(3, CAMPAIGN_SEED + 1, shrink=False, resume_path=path)
        with pytest.raises(CheckpointError, match="different campaign"):
            fuzz(5, CAMPAIGN_SEED, shrink=False, resume_path=path)

    def test_resume_from_corrupt_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            fuzz(3, CAMPAIGN_SEED, shrink=False, resume_path=str(path))
        with pytest.raises(CheckpointError, match="cannot read"):
            fuzz(3, CAMPAIGN_SEED, shrink=False,
                 resume_path=str(tmp_path / "missing.json"))

    def test_resume_of_finished_campaign_runs_nothing(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "campaign.json")
        first = fuzz(3, CAMPAIGN_SEED, shrink=False, checkpoint_path=path)

        def no_generate(seed):  # resuming a finished run must not compile
            raise AssertionError("generate_program called on full resume")

        monkeypatch.setattr(fuzz_module, "generate_program", no_generate)
        resumed = fuzz(3, CAMPAIGN_SEED, shrink=False, resume_path=path)
        assert resumed.attempted == 3
        assert _keys(resumed) == _keys(first)

    def test_torn_final_line_is_tolerated_and_rerun(self, tmp_path):
        """ISSUE satellite: the v2 checkpoint is a JSONL WAL, so a
        ``kill -9`` can tear at most the final entry -- resume drops it,
        re-runs that index, and still matches the straight-through run."""
        straight = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False)
        path = tmp_path / "campaign.json"
        fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False,
             checkpoint_path=str(path), interrupt_after=3)
        torn = path.read_text()[:-7]  # cut into the final entry
        assert not torn.endswith("\n")
        path.write_text(torn)
        resumed = fuzz(CAMPAIGN_N, CAMPAIGN_SEED, shrink=False,
                       checkpoint_path=str(path), resume_path=str(path))
        assert resumed.attempted == CAMPAIGN_N
        assert _keys(resumed) == _keys(straight)
        # and the rewritten WAL is whole again
        lines = path.read_text().splitlines()
        assert sorted(json.loads(l)["done"] for l in lines[1:]) \
            == list(range(CAMPAIGN_N))

    def test_damage_before_the_tail_is_a_typed_error(self, tmp_path):
        path = tmp_path / "campaign.json"
        fuzz(3, CAMPAIGN_SEED, shrink=False, checkpoint_path=str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # tear a *non-final* entry
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            fuzz(3, CAMPAIGN_SEED, shrink=False, resume_path=str(path))

    def test_quarantined_results_survive_the_checkpoint(self, tmp_path,
                                                        monkeypatch):
        boom_seed = derive_seed(CAMPAIGN_SEED, 0)
        real_generate = fuzz_module.generate_program

        def exploding_generate(seed):
            if seed == boom_seed:
                raise RuntimeError("checkpointed crash")
            return real_generate(seed)

        monkeypatch.setattr(fuzz_module, "generate_program",
                            exploding_generate)
        path = str(tmp_path / "campaign.json")
        fuzz(4, CAMPAIGN_SEED, shrink=False, checkpoint_path=path,
             interrupt_after=2)
        resumed = fuzz(4, CAMPAIGN_SEED, shrink=False, resume_path=path)
        assert [q.index for q in resumed.quarantined] == [0]
        assert resumed.attempted == 4
