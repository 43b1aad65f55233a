"""Per-stage pass isolation for the pipeline.

One :class:`StageGuard` lives for one rung attempt of one function.  The
pipeline brackets every Section 6 stage with :meth:`StageGuard.stage`,
which layers three protections around the stage body:

* **fault injection** -- an armed chaos fault targeting this stage fires
  here (``pass.exception:*`` raises, ``pass.hang:*`` models the watchdog
  having fired);
* **budgets** -- the per-pass watchdog bounds the body, and the shared
  per-program deadline is checked at every stage boundary;
* **isolation** -- a *skippable* stage (the optional transforms: strength
  reduction, ctr conversion, ahead-of-time renaming, unroll, rotate) that
  fails is rolled back from a pre-stage snapshot and skipped, recording a
  :class:`~repro.obs.events.DegradationEvent`; the function continues at
  the same rung.  A scheduling stage that fails propagates, and the
  ladder runner retries the whole function one rung down.

The program deadline is never absorbed by a skip: running out of the
whole function's budget must reach the runner, which jumps to identity.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

from ..obs.events import DegradationEvent
from .budget import PROGRAM_SITE, Deadline, watchdog
from .errors import BudgetExceeded, InjectedFault
from .ladder import ResilienceConfig, Rung


def describe_fault(exc: BaseException, limit: int = 200) -> str:
    """One-line, length-capped rendering of a fault for events/reports."""
    text = f"{type(exc).__name__}: {exc}".splitlines()[0]
    return text if len(text) <= limit else text[:limit - 3] + "..."


def classify_fault(exc: BaseException) -> str:
    """The DegradationEvent ``reason`` tag for an exception."""
    if isinstance(exc, BudgetExceeded):
        return "timeout"
    if isinstance(exc, InjectedFault):
        return "injected"
    return "exception"


class StageGuard:
    """Wraps the stages of one rung attempt (see module docstring)."""

    def __init__(self, func, config: ResilienceConfig, rung: Rung,
                 program_deadline: Deadline | None, tracer, metrics):
        self.func = func
        self.config = config
        self.rung = rung
        self.program_deadline = program_deadline
        self.tracer = tracer
        self.metrics = metrics
        #: DegradationEvents for passes skipped during this attempt
        self.degradations: list[DegradationEvent] = []
        #: Per-stage protection (pre-stage snapshots, in-place skips) is
        #: only bought when something can actually fire inside a stage:
        #: a pass budget or an armed fault.  Unarmed, a genuine crash
        #: still fails soft -- it propagates to the ladder runner, which
        #: restores the pristine clone and retries one rung down -- and
        #: the inert path skips the per-stage clones.
        self.armed = (config.fault is not None
                      or config.pass_budget_s is not None)
        #: With no deadline either, the guard has nothing to watch at a
        #: stage boundary; :meth:`stage` degenerates to a nullcontext so
        #: the inert resilient pipeline costs no per-stage generators.
        self.inert = not self.armed and program_deadline is None
        self._null = nullcontext()

    def stage(self, name: str, *, skippable: bool = False,
              on_restore=None):
        if self.inert:
            # exceptions still propagate to the ladder runner unchanged
            return self._null
        return self._guarded_stage(name, skippable=skippable,
                                   on_restore=on_restore)

    @contextmanager
    def _guarded_stage(self, name: str, *, skippable: bool = False,
                       on_restore=None):
        if self.program_deadline is not None:
            self.program_deadline.check()
        skippable = skippable and self.armed
        fault = self.config.fault
        snapshot = self.func.clone() if skippable else None
        try:
            with watchdog(self.config.pass_budget_s, f"pass:{name}"):
                yield
                # injection fires *after* the body: a @contextmanager must
                # yield exactly once, so a pre-body raise could not be
                # suppressed here.  Rolling the snapshot back makes this
                # indistinguishable from the pass crashing at its end.
                if fault is not None:
                    fault.fire_stage(name)
        except BudgetExceeded as exc:
            if exc.site == PROGRAM_SITE or not skippable:
                raise
            self._skip(name, snapshot, exc, on_restore)
        except Exception as exc:
            if not skippable:
                raise
            self._skip(name, snapshot, exc, on_restore)

    def _skip(self, name: str, snapshot, exc: Exception, on_restore) -> None:
        """Roll the function back and record the skipped stage."""
        self.func.restore_from(snapshot)
        if on_restore is not None:
            on_restore()
        event = DegradationEvent(
            function=self.func.name,
            site=f"pass:{name}",
            action="pass-skipped",
            from_rung=self.rung.value,
            to_rung=self.rung.value,
            reason=classify_fault(exc),
            detail=describe_fault(exc),
        )
        self.degradations.append(event)
        if self.tracer.enabled:
            self.tracer.emit(event)
        if self.metrics.enabled:
            self.metrics.inc("resilience.degradations")
            self.metrics.inc("resilience.pass_skips")
            if event.reason == "timeout":
                self.metrics.inc("resilience.timeouts")
