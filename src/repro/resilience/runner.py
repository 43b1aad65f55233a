"""The fail-soft pipeline driver: retry down the degradation ladder.

:func:`resilient_optimize` is what :func:`repro.xform.pipeline.optimize`
delegates to when ``PipelineConfig.resilience`` is set.  It runs the
normal Section 6 flow (``_optimize_once``) under a :class:`StageGuard`
and, when an attempt fails outright -- a scheduling stage crashed, a
budget expired, the verifier rejected the result -- restores the function
from a pristine snapshot and retries one rung down:

    speculative -> useful -> bb -> identity

An exhausted *program* budget short-circuits straight to identity.  The
identity rung restores the original instruction order and cannot fail,
so every compile terminates with either a scheduled-and-(optionally)
verified function or the untouched input -- never a traceback.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from ..ir.function import Function
from ..machine.model import MachineModel
from ..obs.events import DegradationEvent
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..sched.candidates import ScheduleLevel
from ..verify.verifier import ScheduleVerificationError
from ..xform.pipeline import PipelineConfig, PipelineReport, _optimize_once
from .budget import PROGRAM_SITE, Deadline, watchdog
from .errors import BudgetExceeded, DegradationExhausted
from .guard import StageGuard, classify_fault, describe_fault
from .ladder import Rung, ladder_for, rung_config


@dataclass
class AttemptRecord:
    """One ladder rung tried for one function."""

    rung: str
    #: "ok" | "failed"
    outcome: str
    #: failure classification ("" when ok)
    reason: str = ""
    detail: str = ""
    elapsed_s: float = 0.0


@dataclass
class ResilientPipelineReport(PipelineReport):
    """A :class:`PipelineReport` plus the resilience story of the compile.

    The inherited fields describe the *successful* attempt (all empty for
    an identity-rung outcome); ``attempts`` records every rung tried.
    """

    final_rung: str = Rung.SPECULATIVE.value
    attempts: list[AttemptRecord] = field(default_factory=list)
    degradations: list[DegradationEvent] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return (self.final_rung != self.attempts[0].rung
                if self.attempts else False)


_REPORT_FIELDS = fields(PipelineReport)


def _promote(inner: PipelineReport | None, level: ScheduleLevel,
             elapsed_s: float) -> ResilientPipelineReport:
    """Lift the winning attempt's plain report into the resilient one."""
    if inner is None:
        return ResilientPipelineReport(level=level, elapsed_seconds=elapsed_s)
    values = {f.name: getattr(inner, f.name) for f in _REPORT_FIELDS}
    values["elapsed_seconds"] = elapsed_s
    return ResilientPipelineReport(**values)


def resilient_optimize(
    func: Function,
    machine: MachineModel,
    config: PipelineConfig,
    *,
    live_at_exit=None,
) -> ResilientPipelineReport:
    """Run the pipeline on ``func`` with pass isolation and the ladder."""
    rcfg = config.resilience
    assert rcfg is not None
    tracer = config.trace if config.trace is not None else NULL_TRACER
    metrics = config.metrics if config.metrics is not None else NULL_METRICS
    started = time.perf_counter()
    pristine = func.clone()
    program_deadline = (Deadline(rcfg.program_budget_s, PROGRAM_SITE)
                        if rcfg.program_budget_s is not None else None)
    rungs = ladder_for(config)
    attempts: list[AttemptRecord] = []
    degradations: list[DegradationEvent] = []

    def descend(rung: Rung, to: Rung, exc: Exception) -> None:
        reason = ("verify-failed"
                  if isinstance(exc, ScheduleVerificationError)
                  else classify_fault(exc))
        detail = describe_fault(exc)
        attempts.append(AttemptRecord(
            rung=rung.value, outcome="failed", reason=reason, detail=detail))
        event = DegradationEvent(
            function=func.name,
            site=getattr(exc, "site", "pipeline"),
            action="rung-descent",
            from_rung=rung.value,
            to_rung=to.value,
            reason=reason,
            detail=detail,
        )
        degradations.append(event)
        if tracer.enabled:
            tracer.emit(event)
        if metrics.enabled:
            metrics.inc("resilience.degradations")
            metrics.inc("resilience.rung_descents")
            if reason == "timeout":
                metrics.inc("resilience.timeouts")

    index = 0
    while index < len(rungs):
        rung = rungs[index]
        fallback = index > 0
        if fallback:
            func.restore_from(pristine)
        if rung is Rung.IDENTITY:
            attempts.append(AttemptRecord(rung=rung.value, outcome="ok"))
            break
        if program_deadline is not None and program_deadline.expired:
            # out of time for the whole function: straight to identity
            exc = BudgetExceeded(PROGRAM_SITE, program_deadline.budget_s,
                                 program_deadline.elapsed)
            descend(rung, rungs[-1], exc)
            index = len(rungs) - 1
            continue
        attempt_config = rung_config(config, rung, fallback=fallback)
        guard = StageGuard(func, rcfg, rung, program_deadline,
                           tracer, metrics)
        attempt_started = time.perf_counter()
        try:
            with watchdog(program_deadline, PROGRAM_SITE,
                          check_on_exit=False):
                inner = _optimize_once(func, machine, attempt_config,
                                       live_at_exit=live_at_exit,
                                       guard=guard)
        except Exception as exc:
            degradations.extend(guard.degradations)
            if (isinstance(exc, BudgetExceeded)
                    and exc.site == PROGRAM_SITE):
                descend(rung, rungs[-1], exc)
                index = len(rungs) - 1
            else:
                descend(rung, rungs[index + 1], exc)
                index += 1
            continue
        degradations.extend(guard.degradations)
        attempts.append(AttemptRecord(
            rung=rung.value, outcome="ok",
            elapsed_s=time.perf_counter() - attempt_started))
        report = _promote(inner, config.level,
                          time.perf_counter() - started)
        report.final_rung = rung.value
        report.attempts = attempts
        report.degradations = degradations
        if metrics.enabled and attempts[0].outcome != "ok":
            metrics.inc("resilience.functions_degraded")
        return report
    else:  # pragma: no cover - unreachable while IDENTITY ends every ladder
        raise DegradationExhausted(
            func.name, [(a.rung, a.reason) for a in attempts])

    # identity rung: ship the pristine original order, trivially correct
    func.restore_from(pristine)
    report = _promote(None, config.level, time.perf_counter() - started)
    report.final_rung = Rung.IDENTITY.value
    report.attempts = attempts
    report.degradations = degradations
    if metrics.enabled:
        metrics.inc("resilience.identity_fallbacks")
        if attempts[0].outcome != "ok":
            metrics.inc("resilience.functions_degraded")
    return report
