"""Function-level global-scheduling driver.

Ties region identification, liveness, and per-region scheduling together:
regions are visited innermost first, every upward motion's liveness effect
is shared across regions through one mutable label -> live-on-exit mask
store, and the Section 6 policy filters (two inner levels only, small
regions only, reducible only) can be switched on or off.

The full compilation flow of Section 6 (unroll, schedule, rotate, schedule
again, post-pass block scheduling) lives in :mod:`repro.xform.pipeline`;
this module is the reusable "schedule all regions once" step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow.cache import AnalysisCache
from ..ir.function import Function
from ..ir.operand import Reg, RegClass
from ..machine.model import MachineModel
from ..obs.events import RegionSkipped
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from .candidates import ScheduleLevel
from .global_sched import RegionScheduleReport, schedule_region
from .regions import RegionSpec, build_region_pdg, find_regions, region_is_reducible
from .speculation import LiveOnExitTracker


@dataclass
class GlobalScheduleReport:
    """Aggregate of one global-scheduling sweep over a function."""

    level: ScheduleLevel
    regions: list[RegionScheduleReport] = field(default_factory=list)
    skipped_regions: list[str] = field(default_factory=list)

    @property
    def motions(self):
        return [m for r in self.regions for m in r.motions]

    @property
    def useful_motions(self):
        return [m for m in self.motions if not m.speculative]

    @property
    def speculative_motions(self):
        return [m for m in self.motions if m.speculative]


def default_live_at_exit(func: Function) -> frozenset[Reg]:
    """Conservative function-exit liveness: every general-purpose and
    floating point register the function mentions may be observed by the
    caller.  Condition registers are excluded -- they carry branch
    conditions consumed within the function.  Callers that know better
    (the mini-C front end does) should pass an explicit set.
    """
    regs: set[Reg] = set()
    for ins in func.instructions():
        for reg in (*ins.reg_defs(), *ins.reg_uses()):
            if reg.rclass in (RegClass.GPR, RegClass.FPR):
                regs.add(reg)
    return frozenset(regs)


def global_schedule(
    func: Function,
    machine: MachineModel,
    level: ScheduleLevel,
    *,
    live_at_exit: frozenset[Reg] | None = None,
    max_speculation: int = 1,
    rename_on_demand: bool = True,
    apply_size_limits: bool = True,
    inner_levels_only: bool = True,
    region_filter=None,
    priority_fn=None,
    allow_duplication: bool = False,
    block_filter=None,
    analyses: AnalysisCache | None = None,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> GlobalScheduleReport:
    """Globally schedule every eligible region of ``func`` in place.

    ``region_filter`` -- an optional predicate over :class:`RegionSpec` --
    restricts the sweep; the pipeline uses it to schedule only the inner
    regions in its first pass and only the rotated loops plus outer regions
    in its second.

    ``analyses`` -- an optional :class:`AnalysisCache` for ``func``; region
    finding, the reducibility check and the initial liveness solution all
    draw from it (one CFG/dominator build per sweep instead of three, and
    reuse across sweeps when the caller invalidates correctly).  The caller
    must invalidate its liveness afterwards: this sweep moves instructions.
    """
    report = GlobalScheduleReport(level=level)
    if level is ScheduleLevel.NONE:
        return report
    if analyses is None:
        analyses = AnalysisCache(func)

    regions = find_regions(func, analyses)
    if regions and not region_is_reducible(func, regions[0], analyses):
        report.skipped_regions = [r.header_node for r in regions]
        if tracer.enabled:
            for r in regions:
                tracer.emit(RegionSkipped(header=r.header_node,
                                          reason="irreducible"))
        if metrics.enabled:
            metrics.inc("sched.regions.skipped", len(regions))
        return report

    if live_at_exit is None:
        live_at_exit = default_live_at_exit(func)
    liveness = analyses.liveness(live_at_exit)
    live_out = liveness.live_out_masks()

    for spec in regions:
        if region_filter is not None and not region_filter(spec):
            if tracer.enabled:
                tracer.emit(RegionSkipped(header=spec.header_node,
                                          reason="filtered"))
            continue
        reason = _ineligible_reason(spec, func, apply_size_limits,
                                    inner_levels_only)
        if reason is not None:
            report.skipped_regions.append(spec.header_node)
            if tracer.enabled:
                tracer.emit(RegionSkipped(header=spec.header_node,
                                          reason=reason))
            if metrics.enabled:
                metrics.inc("sched.regions.skipped")
            continue
        pdg = build_region_pdg(func, machine, spec)
        tracker = LiveOnExitTracker(live_out, liveness.table, pdg,
                                    metrics=metrics)
        region_report = schedule_region(
            pdg, level, tracker,
            max_speculation=max_speculation,
            rename_on_demand=rename_on_demand,
            priority_fn=priority_fn,
            allow_duplication=allow_duplication,
            block_filter=block_filter,
            region_kind=spec.kind,
            tracer=tracer,
            metrics=metrics,
        )
        report.regions.append(region_report)
    return report


def _ineligible_reason(spec: RegionSpec, func: Function,
                       apply_size_limits: bool,
                       inner_levels_only: bool) -> str | None:
    """The Section 6 prototype policy; None means "schedule it", anything
    else names why the region is skipped (reported and traced)."""
    if not spec.member_labels:
        return "empty"
    if apply_size_limits and not spec.is_small(func):
        return "too-large"
    if inner_levels_only:
        # "Only two inner levels of regions are scheduled": a region
        # qualifies when it encloses no other region (inner) or only
        # regions that are themselves inner (outer).
        two_levels = (not spec.subloops) or all(
            not sub.children for sub in spec.subloops
        )
        if not two_levels:
            return "too-deep"
    return None
