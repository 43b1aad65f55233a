"""Fail-soft compilation: pass isolation, budgets, degradation, chaos.

The paper trusts hardware interlocks to keep aggressive scheduling safe
(Section 2); this package is the software analogue for the *compiler
itself*.  Because the PR-1 verifier can certify any schedule after the
fact, no pipeline failure needs to be fatal:

* :mod:`~repro.resilience.guard` isolates each Section 6 stage --
  optional transforms that crash or overrun are rolled back and skipped;
* :mod:`~repro.resilience.budget` bounds passes and whole functions with
  monotonic-clock watchdogs (preemptive SIGALRM where available);
* :mod:`~repro.resilience.ladder` + :mod:`~repro.resilience.runner`
  retry failed compiles down speculative -> useful -> bb -> identity,
  verifying every fallback rung;
* :mod:`~repro.resilience.faults` + :mod:`~repro.resilience.chaos`
  prove it all works by injecting seeded faults and checking that none
  ever escapes as a traceback or a miscompile.

Enable via ``PipelineConfig(resilience=ResilienceConfig(...))``.
"""

from .budget import Deadline, can_preempt, watchdog
from .chaos import ChaosReport, ChaosResult, run_chaos, run_chaos_case
from .errors import (
    BudgetExceeded,
    CheckpointError,
    DegradationExhausted,
    InjectedFault,
    ResilienceError,
)
from .faults import (
    SERVICE_SITES,
    SITES,
    ActiveFault,
    FaultPlan,
    plan_for_seed,
)
from .ladder import LADDER, ResilienceConfig, Rung, worst_rung
from .service_chaos import run_service_chaos_case
from .runner import (
    AttemptRecord,
    ResilientPipelineReport,
    resilient_optimize,
)

__all__ = [
    "LADDER",
    "SITES",
    "ActiveFault",
    "AttemptRecord",
    "BudgetExceeded",
    "ChaosReport",
    "ChaosResult",
    "CheckpointError",
    "Deadline",
    "DegradationExhausted",
    "FaultPlan",
    "InjectedFault",
    "ResilienceConfig",
    "ResilienceError",
    "ResilientPipelineReport",
    "Rung",
    "SERVICE_SITES",
    "can_preempt",
    "plan_for_seed",
    "resilient_optimize",
    "run_chaos",
    "run_chaos_case",
    "run_service_chaos_case",
    "watchdog",
    "worst_rung",
]
