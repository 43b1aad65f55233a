"""Structural checks for the tracked perf gates (benchmarks/perf/).

The real campaign (committed ``BENCH_pipeline.json``) runs in CI via
``python benchmarks/perf/run_pipeline_bench.py``; these checks keep the
script importable and the committed scorecard well formed.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "benchmarks" / "perf" / "run_pipeline_bench.py"


@pytest.fixture(scope="module")
def suite():
    spec = importlib.util.spec_from_file_location("run_pipeline_bench",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_is_fixed_seed(suite):
    a = suite._corpus(2)
    b = suite._corpus(2)
    assert [p.source for p in a] == [p.source for p in b]


def test_committed_scorecard_is_well_formed():
    """The repo ships the last full run; keep it parseable and gated."""
    data = json.loads((REPO_ROOT / "BENCH_pipeline.json").read_text())
    assert set(data) == {"meta", "service_throughput", "resilience",
                         "thresholds"}
    assert data["thresholds"]["service_ok"] is True
    assert data["thresholds"]["resilience_ok"] is True
