"""Chaos harness: prove injected faults never escape the safety net.

For each case seed the harness derives a :class:`FaultPlan` and a
generated program, compiles the program *clean* for a reference
observation, then compiles it again with the fault armed and the
resilient pipeline on (verification forced at every rung).  The
resilience property, checked per case:

* the faulted compile either finishes -- in which case every emitted
  schedule was certified at some ladder rung *and* the program's
  observable behaviour (return value, array contents, call sequence)
  matches the clean compile -- or raises a *typed*, reported error;
* an uncaught traceback, or a surviving miscompile, is a property
  violation and fails the case.

``repro chaos --n 200 --seed 1991`` sweeps 200 plans; CI runs a 50-plan
smoke on every push.  :func:`run_chaos` is also the sweep of the
service-boundary cases (``repro chaos --service``, see
:mod:`repro.resilience.service_chaos`).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

from ..sched.candidates import ScheduleLevel
from .errors import ResilienceError
from .faults import ActiveFault, FaultPlan, plan_for_seed
from .ladder import ResilienceConfig, worst_rung


@dataclass
class ChaosResult:
    """Outcome of one fault plan against one generated program."""

    case_seed: int
    plan: FaultPlan
    #: "absorbed" (compile finished, observation matched),
    #: "typed-error" (a typed error was reported),
    #: "baseline-error" (the *clean* compile failed -- a pre-existing
    #: bug, not a resilience violation), or "VIOLATION"
    outcome: str
    #: least aggressive rung any function of the unit landed on
    final_rung: str | None = None
    degradations: int = 0
    fired: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome != "VIOLATION"

    def format(self) -> str:
        rung = f" rung={self.final_rung}" if self.final_rung else ""
        note = f" -- {self.detail}" if self.detail else ""
        return (f"seed {self.case_seed}: {self.plan.describe()} -> "
                f"{self.outcome}{rung}"
                f" degradations={self.degradations}{note}")


@dataclass
class ChaosReport:
    """One chaos sweep: every case and the property verdict."""

    master_seed: int
    results: list[ChaosResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def violations(self) -> list[ChaosResult]:
        return [r for r in self.results if not r.ok]

    def summary(self) -> str:
        absorbed = sum(r.outcome == "absorbed" for r in self.results)
        typed = sum(r.outcome == "typed-error" for r in self.results)
        fired = sum(r.fired for r in self.results)
        status = ("ok" if self.ok
                  else f"{len(self.violations)} PROPERTY VIOLATION(S)")
        return (f"chaos: {len(self.results)} fault plans, seed "
                f"{self.master_seed}: {absorbed} absorbed, {typed} typed "
                f"errors, {fired} fired: {status}")


def _observe(unit, program):
    run = unit.run(program.entry, *program.entry_args)
    return (run.return_value, run.arrays, list(run.execution.calls))


def run_chaos_case(case_seed: int, *,
                   machine_name: str = "rs6k") -> ChaosResult:
    """Run one fault plan against one generated program (see module
    docstring for the property checked)."""
    # imported here (not at module level): repro.verify.fuzz pulls in the
    # resilience package for its watchdog, so a module-level import back
    # into repro.verify would be circular
    from ..compiler import compile_c
    from ..machine.configs import CONFIGS
    from ..verify.generator import generate_program
    from ..verify.verifier import ScheduleVerificationError
    from ..xform.pipeline import PipelineConfig

    plan = plan_for_seed(case_seed)
    program = generate_program(case_seed)

    try:
        clean = compile_c(
            program.source, machine=CONFIGS[machine_name](),
            level=ScheduleLevel.SPECULATIVE,
            config=PipelineConfig(verify=True))
        reference = _observe(clean, program)
    except Exception as exc:
        return ChaosResult(case_seed=case_seed, plan=plan,
                           outcome="baseline-error",
                           detail=f"clean compile failed: {exc!r}")

    fault = ActiveFault(plan)
    config = PipelineConfig(
        verify=True,
        resilience=ResilienceConfig(fault=fault))
    try:
        with fault.installed():
            unit = compile_c(
                program.source, machine=CONFIGS[machine_name](),
                level=ScheduleLevel.SPECULATIVE, config=config)
    except (ResilienceError, ScheduleVerificationError) as exc:
        return ChaosResult(case_seed=case_seed, plan=plan,
                           outcome="typed-error", fired=fault.fired,
                           detail=f"{type(exc).__name__}: {exc}")
    except Exception:
        return ChaosResult(
            case_seed=case_seed, plan=plan, outcome="VIOLATION",
            fired=fault.fired,
            detail="uncaught exception:\n" + traceback.format_exc())

    reports = [u.report for u in unit]
    final = worst_rung(getattr(r, "final_rung", "speculative")
                       for r in reports)
    degradations = sum(len(getattr(r, "degradations", ())) for r in reports)
    try:
        observation = _observe(unit, program)
    except Exception as exc:
        # the degraded binary must still run: identity restores the
        # original order, and every other rung was verifier-certified
        return ChaosResult(
            case_seed=case_seed, plan=plan, outcome="VIOLATION",
            final_rung=final, degradations=degradations, fired=fault.fired,
            detail=f"faulted binary crashed at runtime: {exc!r}")
    if observation != reference:
        return ChaosResult(
            case_seed=case_seed, plan=plan, outcome="VIOLATION",
            final_rung=final, degradations=degradations, fired=fault.fired,
            detail=(f"surviving miscompile: observation {observation!r} "
                    f"!= clean {reference!r}"))
    return ChaosResult(case_seed=case_seed, plan=plan, outcome="absorbed",
                       final_rung=final, degradations=degradations,
                       fired=fault.fired)


def run_chaos(n: int, seed: int, *,
              case: Callable[..., ChaosResult] = run_chaos_case,
              on_progress: Callable[[ChaosResult], None] | None = None,
              **options) -> ChaosReport:
    """Sweep ``n`` seeded fault plans through ``case`` (the pipeline's
    :func:`run_chaos_case`, or the service's
    :func:`~repro.resilience.service_chaos.run_service_chaos_case`),
    passing ``options`` on; case ``i`` uses ``derive_seed(seed, i)`` so
    any violation reproduces from (seed, i)."""
    from ..verify.fuzz import derive_seed

    report = ChaosReport(master_seed=seed)
    for index in range(n):
        result = case(derive_seed(seed, index), **options)
        report.results.append(result)
        if on_progress is not None:
            on_progress(result)
    return report
