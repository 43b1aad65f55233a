"""The Section 6 compilation flow, end to end.

"The general flow of the global scheduling is as follows:

1. certain inner loops are unrolled;
2. the global scheduling is applied the first time to the inner regions
   only;
3. certain inner loops are rotated;
4. the global scheduling is applied the second time to the rotated inner
   loops and the outer regions."

followed by the basic-block scheduler over every block ("the basic block
scheduler is applied to every single basic block of a program after the
global scheduling is completed", Section 5.1).  Every step is individually
switchable so the ablation benches can measure its contribution.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields
from typing import TYPE_CHECKING

from ..dataflow.cache import AnalysisCache
from ..ir.function import Function
from ..ir.operand import Reg
from ..ir.verify import verify_function
from ..machine.model import MachineModel
from ..obs.events import FunctionBegin, FunctionEnd, PhaseBegin, PhaseEnd
from ..obs.metrics import NULL_METRICS, MetricsCollector
from ..obs.tracer import NULL_TRACER, CollectingTracer, TeeTracer, Tracer
from ..sched.bb_sched import schedule_function_blocks
from ..sched.candidates import ScheduleLevel
from ..sched.driver import GlobalScheduleReport, global_schedule
from ..sched.profiling import BranchProfile, make_profile_priority_fn
from .ctr import CtrReport, convert_counted_loops
from .rename import RenameReport, rename_function
from .rotate import RotateReport, rotatable, rotate_loop
from .strength import StrengthReductionReport, strength_reduce
from .unroll import UnrollReport, unroll_loop, unrollable_inner_loops

if TYPE_CHECKING:  # import cycle: repro.resilience.runner imports this module
    from ..resilience.guard import StageGuard
    from ..resilience.ladder import ResilienceConfig


@dataclass
class PipelineConfig:
    """Knobs of the Section 6 prototype, all defaulted to the paper's."""

    level: ScheduleLevel = ScheduleLevel.SPECULATIVE
    #: step 1: unroll inner loops with at most this many blocks (0 = off)
    unroll_max_blocks: int = 4
    #: step 3: rotate inner loops with at most this many blocks (0 = off)
    rotate_max_blocks: int = 4
    #: Section 5.1: post-pass basic-block scheduling
    post_bb_pass: bool = True
    #: Section 6: only schedule "small" regions
    apply_size_limits: bool = True
    #: Section 6: only the two inner levels of regions
    inner_levels_only: bool = True
    #: Definition 7 bound (the paper ships 1)
    max_speculation: int = 1
    #: scheduler-integrated renaming (Figure 6's cr5)
    rename_on_demand: bool = True
    #: run the standalone local renaming pass ahead of scheduling instead
    rename_ahead: bool = False
    #: induction-variable strength reduction, part of the BASE compiler's
    #: "machine independent optimizations" (it is what gives Figure 2 its
    #: pointer-walk form); applied at every level including NONE
    strength_reduce: bool = True
    #: footnote 3: keep counted-loop control in the counter register
    #: (MTCTR/BDNZ).  The paper disables it for its example; same default
    use_counter_register: bool = False
    #: optional branch profile (Section 1's "branch probabilities,
    #: whenever available"); speculation then prefers hot home blocks
    profile: "BranchProfile | None" = None
    #: Definition 6 / future-work extension: allow motion that requires
    #: duplicating the instruction into a join's other predecessors.  Off
    #: by default ("no duplication of code is allowed" in the prototype)
    allow_duplication: bool = False
    #: self-checking mode: snapshot the function before every scheduling
    #: sweep and run the static schedule verifier
    #: (:func:`repro.verify.verify_schedule`) on the result, raising
    #: :class:`repro.verify.ScheduleVerificationError` on any violation
    verify: bool = False
    #: observability (see :mod:`repro.obs`): a :class:`~repro.obs.Tracer`
    #: receiving every pipeline/scheduler decision event, and a
    #: :class:`~repro.obs.MetricsCollector` aggregating counters and
    #: per-phase timers.  None (the default) uses the no-op singletons --
    #: tracing off must be byte-identical to tracing on.
    trace: Tracer | None = None
    metrics: MetricsCollector | None = None
    #: fail-soft mode (see :mod:`repro.resilience`): pass isolation,
    #: per-pass/per-program budgets, and the degradation ladder
    #: speculative -> useful -> bb -> identity.  None (the default) keeps
    #: the pipeline exactly as fast and as brittle as before.
    resilience: "ResilienceConfig | None" = None


@dataclass
class PipelineReport:
    """Everything the pipeline did, plus its own wall-clock cost."""

    level: ScheduleLevel
    unrolled: list[UnrollReport] = field(default_factory=list)
    rotated: list[RotateReport] = field(default_factory=list)
    rename: RenameReport | None = None
    strength: StrengthReductionReport | None = None
    ctr: CtrReport | None = None
    first_pass: GlobalScheduleReport | None = None
    second_pass: GlobalScheduleReport | None = None
    bb_cycles: dict[str, int] = field(default_factory=dict)
    #: one VerifyReport per verified sweep, when PipelineConfig.verify is on
    verify_reports: list = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def motions(self):
        out = []
        for sweep in (self.first_pass, self.second_pass):
            if sweep is not None:
                out.extend(sweep.motions)
        return out


def reduce_strength(
    func: Function,
    live_at_exit: frozenset[Reg] | None = None,
) -> StrengthReductionReport:
    """The strength-reduction stage: rewrite ``func`` in place, then check
    its IR.  It depends on neither the machine nor the level, so a caller
    that compiles one function many ways (the differential fuzz runner)
    runs it once and schedules copies with
    ``PipelineConfig.strength_reduce`` off."""
    report = strength_reduce(func, live_at_exit=live_at_exit or frozenset())
    verify_function(func)
    return report


def optimize(
    func: Function,
    machine: MachineModel,
    config: PipelineConfig | None = None,
    *,
    live_at_exit: frozenset[Reg] | None = None,
) -> PipelineReport:
    """Run the full global-scheduling flow on ``func`` in place.

    With ``config.resilience`` set this delegates to the fail-soft driver
    (:func:`repro.resilience.runner.resilient_optimize`), which wraps the
    same flow in pass isolation, budgets and the degradation ladder and
    returns a :class:`~repro.resilience.runner.ResilientPipelineReport`
    (a :class:`PipelineReport` subclass).
    """
    config = config or PipelineConfig()
    if config.resilience is not None:
        from ..resilience.runner import resilient_optimize

        return resilient_optimize(func, machine, config,
                                  live_at_exit=live_at_exit)
    return _optimize_once(func, machine, config, live_at_exit=live_at_exit)


def _optimize_once(
    func: Function,
    machine: MachineModel,
    config: PipelineConfig,
    *,
    live_at_exit: frozenset[Reg] | None = None,
    guard: "StageGuard | None" = None,
) -> PipelineReport:
    """One un-laddered run of the flow; ``guard`` (when present) brackets
    every stage with the resilience layer's pass isolation."""
    report = PipelineReport(level=config.level)
    tracer = config.trace if config.trace is not None else NULL_TRACER
    metrics = config.metrics if config.metrics is not None else NULL_METRICS
    started = time.perf_counter()
    if tracer.enabled:
        tracer.emit(FunctionBegin(function=func.name,
                                  level=config.level.value))

    @contextmanager
    def phase(name: str, *, skippable: bool = False, on_restore=None):
        """Bracket one Section 6 stage with trace + timer events (and,
        under a guard, fault injection / budgets / rollback-on-failure --
        a skipped stage resumes *after* the with-block, so stage bodies
        mutate ``report`` as their final statement only)."""
        if tracer.enabled:
            tracer.emit(PhaseBegin(function=func.name, phase=name))
        phase_started = time.perf_counter()
        try:
            if guard is not None:
                if guard.armed:
                    # On a skip the guard restores func from its snapshot;
                    # restore the report's fields alongside so a post-body
                    # injection cannot leave entries for rolled-back work.
                    saved = {f.name: getattr(report, f.name)
                             for f in dataclass_fields(report)}

                    def restore() -> None:
                        for key, value in saved.items():
                            setattr(report, key, value)
                        if on_restore is not None:
                            on_restore()
                else:
                    # unarmed guards never skip, so nothing to roll back
                    restore = on_restore
                with guard.stage(name, skippable=skippable,
                                 on_restore=restore):
                    with metrics.phase(name):
                        yield
            else:
                with metrics.phase(name):
                    yield
        finally:
            if tracer.enabled:
                tracer.emit(PhaseEnd(
                    function=func.name, phase=name,
                    elapsed_ms=(time.perf_counter() - phase_started) * 1e3))

    def finish() -> PipelineReport:
        report.elapsed_seconds = time.perf_counter() - started
        if tracer.enabled:
            tracer.emit(FunctionEnd(function=func.name,
                                    elapsed_ms=report.elapsed_seconds * 1e3))
        return report
    # One memoised CFG/dominators/loop-nest/liveness bundle shared by every
    # stage below.  Transform stages rewrite block structure and drop it
    # wholesale; scheduling sweeps move instructions between existing
    # blocks (terminators stay put), which keeps the CFG-shape analyses
    # valid and invalidates only liveness.
    analyses = AnalysisCache(func, metrics=metrics)

    def snapshot() -> Function | None:
        return func.clone() if config.verify else None

    def sweep_tracer(before: Function | None):
        """A verified, traced global sweep also keeps its own decision
        events, for the order check; every other sweep traces as is."""
        if before is None or not tracer.enabled:
            return tracer, None
        events = CollectingTracer()
        return TeeTracer(tracer, events), events

    def check_ir(before: Function | None) -> None:
        """The IR walk after a sweep.  A verified sweep skips it:
        ``verify_schedule`` runs the same walk as its skeleton check."""
        if before is None:
            verify_function(func)

    def check(before: Function | None, *, level: ScheduleLevel,
              motions=(), events=None, priority_fn=None) -> None:
        if before is None:
            return
        from ..verify.verifier import verify_schedule

        with metrics.phase("verify"):
            report.verify_reports.append(verify_schedule(
                before, func, machine,
                level=level,
                live_at_exit=live_at_exit,
                motions=motions,
                max_speculation=config.max_speculation,
                allow_duplication=config.allow_duplication,
            ))
            if events is not None:
                from ..verify.order import check_order

                report.verify_reports.append(check_order(
                    before, func, events.events, machine,
                    level=level,
                    live_at_exit=live_at_exit,
                    max_speculation=config.max_speculation,
                    rename_on_demand=config.rename_on_demand,
                    allow_duplication=config.allow_duplication,
                    priority_fn=priority_fn,
                ))

    # Machine-independent optimizations the BASE compiler also performs.
    # Optional transforms are `skippable`: under a guard a failure inside
    # the with-block rolls the function back and execution resumes after
    # it, so each body assigns into `report` as its very last statement.
    if config.strength_reduce:
        with phase("strength-reduce", skippable=True,
                   on_restore=analyses.invalidate):
            report.strength = reduce_strength(func, live_at_exit)
        analyses.invalidate()
    if config.use_counter_register:
        with phase("ctr", skippable=True, on_restore=analyses.invalidate):
            ctr = convert_counted_loops(func)
            verify_function(func)
            report.ctr = ctr
        analyses.invalidate()

    if config.level is ScheduleLevel.NONE:
        # The BASE compiler still runs its basic-block scheduler.
        if config.post_bb_pass:
            before = snapshot()
            with phase("bb-post"):
                bb_cycles = schedule_function_blocks(func, machine)
                check_ir(before)
                report.bb_cycles = bb_cycles
            check(before, level=ScheduleLevel.NONE)
        return finish()

    if config.rename_ahead:
        with phase("rename-ahead", skippable=True,
                   on_restore=analyses.invalidate):
            rename = rename_function(
                func, live_at_exit=live_at_exit or frozenset())
            verify_function(func)
            report.rename = rename
        analyses.invalidate_liveness()

    # Step 1: unroll small inner loops.
    if config.unroll_max_blocks:
        with phase("unroll", skippable=True,
                   on_restore=analyses.invalidate):
            unrolled = []
            nest = analyses.loop_nest()
            for loop in unrollable_inner_loops(func, nest.loops,
                                               config.unroll_max_blocks):
                unrolled.append(unroll_loop(func, loop))
            verify_function(func)
            report.unrolled = unrolled
        if report.unrolled:
            analyses.invalidate()

    priority_fn = (make_profile_priority_fn(config.profile, func)
                   if config.profile else None)

    # Step 2: first global pass, inner regions only.
    before = snapshot()
    sweep_trace, events = sweep_tracer(before)
    with phase("global-pass-1"):
        first_pass = global_schedule(
            func, machine, config.level,
            live_at_exit=live_at_exit,
            max_speculation=config.max_speculation,
            rename_on_demand=config.rename_on_demand,
            apply_size_limits=config.apply_size_limits,
            inner_levels_only=config.inner_levels_only,
            region_filter=lambda spec: (spec.kind == "loop"
                                        and not spec.subloops),
            priority_fn=priority_fn,
            allow_duplication=config.allow_duplication,
            analyses=analyses,
            tracer=sweep_trace,
            metrics=metrics,
        )
        check_ir(before)
        report.first_pass = first_pass
    analyses.invalidate_liveness()
    check(before, level=config.level, motions=report.first_pass.motions,
          events=events, priority_fn=priority_fn)

    # Step 3: rotate small inner loops.
    rotated_headers: set[str] = set()
    if config.rotate_max_blocks:
        with phase("rotate", skippable=True,
                   on_restore=analyses.invalidate):
            rotated = []
            nest = analyses.loop_nest()
            for loop in list(nest.loops):
                if loop.children:
                    continue
                if rotatable(func, loop, config.rotate_max_blocks):
                    rotated.append(rotate_loop(func, loop))
            verify_function(func)
            report.rotated = rotated
            rotated_headers = {r.new_loop_header for r in rotated}
        if report.rotated:
            analyses.invalidate()

    # Step 4: second global pass -- the rotated inner loops and the
    # regions that are not inner loops (outer loops + subroutine body).
    def second_filter(spec) -> bool:
        if spec.kind == "loop" and not spec.subloops:
            return spec.header_node in rotated_headers
        return True

    priority_fn = (make_profile_priority_fn(config.profile, func)
                   if config.profile else None)
    before = snapshot()
    sweep_trace, events = sweep_tracer(before)
    with phase("global-pass-2"):
        second_pass = global_schedule(
            func, machine, config.level,
            live_at_exit=live_at_exit,
            max_speculation=config.max_speculation,
            rename_on_demand=config.rename_on_demand,
            apply_size_limits=config.apply_size_limits,
            inner_levels_only=config.inner_levels_only,
            region_filter=second_filter,
            priority_fn=priority_fn,
            allow_duplication=config.allow_duplication,
            analyses=analyses,
            tracer=sweep_trace,
            metrics=metrics,
        )
        check_ir(before)
        report.second_pass = second_pass
    analyses.invalidate_liveness()
    check(before, level=config.level, motions=report.second_pass.motions,
          events=events, priority_fn=priority_fn)

    # Post-pass: local scheduling of every block.
    if config.post_bb_pass:
        before = snapshot()
        with phase("bb-post"):
            bb_cycles = schedule_function_blocks(func, machine)
            check_ir(before)
            report.bb_cycles = bb_cycles
        check(before, level=ScheduleLevel.NONE)

    return finish()
