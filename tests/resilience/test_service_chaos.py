"""The service chaos property: boundary faults never cost the service.

ISSUE 9 tentpole: every seeded fault at the service boundary -- worker
SIGKILLs, wedged workers, vanishing clients, torn journal writes,
split/oversized/cut-off socket frames -- must end as *absorbed* (the
full BSP-certified reference answer set comes back) or as a per-request
*typed error*; a hang, a traceback, or a silently wrong answer is a
property violation.

The fast tier runs one case per fault site plus a small sweep; the
acceptance-sized 50-plan sweep runs in CI via ``repro chaos --service``
and is marked ``slow`` here.
"""

from __future__ import annotations

import pytest

from repro.resilience import plan_for_seed, run_chaos, run_service_chaos_case
from repro.resilience.faults import SERVICE_SITES

MASTER_SEED = 1991


def _seed_for_site(site: str) -> int:
    for seed in range(500):
        if plan_for_seed(seed, SERVICE_SITES).site == site:
            return seed
    raise AssertionError(f"no seed below 500 selects {site}")


def test_every_service_site_is_reachable_by_some_seed():
    assert {plan_for_seed(s, SERVICE_SITES).site for s in range(500)} \
        == set(SERVICE_SITES)


@pytest.mark.parametrize("site", SERVICE_SITES)
def test_one_case_per_site_holds_the_property(site):
    result = run_service_chaos_case(_seed_for_site(site))
    assert result.plan.site == site
    assert result.outcome in ("absorbed", "typed-error"), result.format()
    assert result.fired


def test_fast_sweep_holds_the_property():
    report = run_chaos(6, MASTER_SEED, case=run_service_chaos_case)
    assert report.ok, "\n".join(r.format() for r in report.violations)
    assert len(report.results) == 6
    assert all(r.fired for r in report.results)
    assert "fault plans" in report.summary()


@pytest.mark.slow
def test_acceptance_sweep_50_plans():
    """ISSUE 9 acceptance criterion: a seeded 50-plan sweep with zero
    hangs, miscompiles, or tracebacks."""
    report = run_chaos(50, MASTER_SEED, case=run_service_chaos_case)
    assert report.ok, "\n".join(r.format() for r in report.violations)
    assert len(report.results) == 50
