"""The degradation ladder: aggressiveness rungs and their pipeline configs.

The paper's safety argument (Section 2: hardware interlocks guarantee
correctness, freeing the scheduler to be aggressive) has a software
analogue here: because the PR-1 verifier can certify any schedule after
the fact, a failing compile never has to die -- it retries one rung down:

    speculative  ->  useful  ->  bb  ->  identity

* ``speculative`` -- the full Section 6 flow with 1-branch speculation;
* ``useful``      -- global motion between equivalent blocks only;
* ``bb``          -- no global scheduling, :mod:`repro.sched.bb_sched`
  per block (the BASE compiler);
* ``identity``    -- the original instruction order, untouched; it cannot
  fail and needs no verification, so the ladder always terminates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

from ..sched.candidates import ScheduleLevel


class Rung(Enum):
    """One aggressiveness level of the degradation ladder."""

    SPECULATIVE = "speculative"
    USEFUL = "useful"
    BB = "bb"
    IDENTITY = "identity"


#: most- to least-aggressive; every ladder is a suffix of this
LADDER: tuple[Rung, ...] = (Rung.SPECULATIVE, Rung.USEFUL, Rung.BB,
                            Rung.IDENTITY)

_RUNG_LEVEL = {
    Rung.SPECULATIVE: ScheduleLevel.SPECULATIVE,
    Rung.USEFUL: ScheduleLevel.USEFUL,
    Rung.BB: ScheduleLevel.NONE,
}


@dataclass
class ResilienceConfig:
    """Knobs of the fail-soft pipeline (``PipelineConfig.resilience``).

    All defaults are inert: no budgets, no faults -- the guards then cost
    a few context managers and one pristine clone per function.  Hung
    passes are interrupted by SIGALRM where it exists (a Unix main
    thread) and detected cooperatively elsewhere, and every fallback
    rung runs the schedule verifier, so a degraded schedule is certified
    before it ships.
    """

    #: wall-clock budget per pipeline stage (None = unlimited)
    pass_budget_s: float | None = None
    #: wall-clock budget for the whole function, across every rung
    #: attempt; once spent, the ladder jumps straight to ``identity``
    program_budget_s: float | None = None
    #: an armed chaos fault (:class:`repro.resilience.faults.ActiveFault`)
    #: -- None outside fault-injection runs
    fault: object | None = None


def start_rung(config) -> Rung:
    """The rung matching a :class:`~repro.xform.pipeline.PipelineConfig`'s
    requested aggressiveness."""
    if config.level is ScheduleLevel.SPECULATIVE:
        return Rung.SPECULATIVE
    if config.level is ScheduleLevel.USEFUL:
        return Rung.USEFUL
    return Rung.BB if config.post_bb_pass else Rung.IDENTITY


def ladder_for(config) -> list[Rung]:
    """The rungs to attempt, most aggressive first, ending in IDENTITY."""
    first = LADDER.index(start_rung(config))
    rungs = [r for r in LADDER[first:]
             # a caller that disabled the block post-pass never asked for
             # bb scheduling, so that rung is not a valid fallback either
             if not (r is Rung.BB and not config.post_bb_pass)]
    return rungs


def rung_config(base, rung: Rung, *, fallback: bool):
    """Derive the pipeline config for one rung attempt (None = identity:
    no pipeline runs at all); a fallback rung always verifies."""
    if rung is Rung.IDENTITY:
        return None
    return dataclasses.replace(base, level=_RUNG_LEVEL[rung],
                               verify=base.verify or fallback)


def worst_rung(names) -> str:
    """The least aggressive (furthest degraded) of several rung names --
    campaign tooling summarises per-function reports with it."""
    order = [r.value for r in LADDER]
    names = list(names)
    if not names:
        return Rung.IDENTITY.value
    return max(names, key=order.index)
