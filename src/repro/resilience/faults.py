"""Seeded fault injection for the resilient pipeline.

A :class:`FaultPlan` is a pure function of its seed: which of the named
:data:`SITES` misbehaves, which stage it targets, and a small numeric
parameter.  :class:`ActiveFault` arms one plan for one compile --
``fire_stage`` is consulted by the :class:`~repro.resilience.guard.StageGuard`
at every stage entry, and :meth:`ActiveFault.installed` monkey-patches the
environment-corruption sites for the duration of the compile.

Corruption sites patch the *scheduler's* view only: ``repro.pdg.pdg`` and
``repro.sched.bb_sched`` bind their DDG builders at import time, so
swapping those module attributes poisons scheduling while the PR-1
verifier keeps an honest dependence graph to judge the result with -- it
imports ``build_block_ddg`` from ``repro.pdg.data_deps`` at call time
for its per-block check, and injects ``data_deps.build_region_ddg`` as
an explicit ``ddg_builder`` into :class:`~repro.pdg.pdg.RegionPDG` for
its region check.  That separation is what the chaos property tests
exercise: an injected miscompile must be *caught*, so the fault must not
be able to corrupt the judge.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import BudgetExceeded, InjectedFault

#: every fault site the chaos layer can exercise
SITES: tuple[str, ...] = (
    "pass.exception",      # a pipeline stage raises mid-flight
    "pass.hang",           # a pipeline stage hangs (models the watchdog)
    "ddg.drop-edge",       # dependence edges silently vanish
    "ddg.zero-delay",      # flow-edge delays collapse to zero
    "cache.stale-liveness",  # liveness invalidation stops working
    "live.truncate",       # the Section 5.3 live-on-exit veto goes blind
)

#: stages a pass.* fault may target (ctr is off in default configs)
STAGES: tuple[str, ...] = (
    "strength-reduce", "unroll", "global-pass-1", "rotate",
    "global-pass-2", "bb-post",
)

#: service-boundary fault sites (``repro chaos --service``); injected
#: against a live daemon by :mod:`repro.resilience.service_chaos`
SERVICE_SITES: tuple[str, ...] = (
    "worker.kill",          # SIGKILL the pool workers mid-batch
    "worker.hang",          # a worker wedges past the hang deadline
    "client.disconnect",    # the client vanishes before reading replies
    "journal.torn-write",   # the WAL's final record is half-flushed
    "socket.partial-frame",  # frames arrive split, oversized, or cut off
)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault, fully described by its seed."""

    seed: int
    site: str
    #: target stage for ``pass.*`` sites, None otherwise
    stage: str | None
    #: site-specific knob (modulus for ``ddg.drop-edge``, bytes torn off
    #: the journal tail, frame splits)
    param: int

    def describe(self) -> str:
        target = f":{self.stage}" if self.stage else ""
        return f"{self.site}{target} (seed {self.seed}, param {self.param})"


def plan_for_seed(seed: int, sites: tuple[str, ...] = SITES) -> FaultPlan:
    """The fault plan of ``seed`` over the site table ``sites``
    (:data:`SITES` or :data:`SERVICE_SITES`) -- same seed, same plan,
    forever."""
    rng = random.Random(seed)
    site = rng.choice(sites)
    stage = rng.choice(STAGES) if site.startswith("pass.") else None
    param = rng.randrange(2, 6)
    return FaultPlan(seed=seed, site=site, stage=stage, param=param)


class ActiveFault:
    """One armed :class:`FaultPlan`; attach as ``ResilienceConfig.fault``
    and wrap the compile in :meth:`installed`."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: did the fault actually trigger during the compile?
        self.fired = False

    def fire_stage(self, name: str) -> None:
        """Called by the stage guard at every stage entry."""
        plan = self.plan
        if plan.stage != name:
            return
        if plan.site == "pass.exception":
            self.fired = True
            raise InjectedFault(f"pass:{name}")
        if plan.site == "pass.hang":
            # a hang IS a watchdog firing; model it as the budget error
            # the preemptive alarm would have raised
            self.fired = True
            raise BudgetExceeded(f"pass:{name}", 0.0, 0.0)

    # -- environment corruption ---------------------------------------------

    def _corrupt_ddg(self, ddg) -> None:
        plan = self.plan
        edges = list(ddg.iter_edges())
        if plan.site == "ddg.drop-edge":
            victims = [e for i, e in enumerate(edges) if i % plan.param == 0]
            for edge in victims:
                ddg.remove_edge(edge)
            self.fired = self.fired or bool(victims)
        elif plan.site == "ddg.zero-delay":
            victims = [e for e in edges if e.delay > 0]
            for edge in victims:
                ddg.remove_edge(edge)
                ddg.add_edge(edge.src, edge.dst, edge.kind, 0, edge.reg)
            self.fired = self.fired or bool(victims)

    @contextmanager
    def installed(self):
        """Patch the plan's corruption site in for the enclosed compile."""
        plan = self.plan
        if plan.site in ("ddg.drop-edge", "ddg.zero-delay"):
            from ..pdg import pdg as region_pdg_module
            from ..sched import bb_sched

            def wrap(real):
                def corrupted(*args, **kwargs):
                    ddg = real(*args, **kwargs)
                    self._corrupt_ddg(ddg)
                    return ddg
                return corrupted

            saved = (region_pdg_module.build_region_ddg,
                     bb_sched.build_block_ddg)
            region_pdg_module.build_region_ddg = wrap(saved[0])
            bb_sched.build_block_ddg = wrap(saved[1])
            try:
                yield
            finally:
                region_pdg_module.build_region_ddg = saved[0]
                bb_sched.build_block_ddg = saved[1]
        elif plan.site == "cache.stale-liveness":
            from ..dataflow import cache as cache_module

            saved_invalidate = cache_module.AnalysisCache.invalidate_liveness

            def stale(cache_self):
                self.fired = True  # liveness silently kept stale

            cache_module.AnalysisCache.invalidate_liveness = stale
            try:
                yield
            finally:
                cache_module.AnalysisCache.invalidate_liveness = (
                    saved_invalidate)
        elif plan.site == "live.truncate":
            from ..sched import driver as driver_module

            real_tracker = driver_module.LiveOnExitTracker
            fault = self

            class TruncatedTracker(real_tracker):
                """Live-on-exit sets read as empty: every speculative
                motion looks legal (the paper's x=5/x=3 clobber)."""

                def blocks_motion(self, ins, target):
                    fault.fired = True
                    return False

                def blocking_regs(self, ins, target):
                    return ()

            driver_module.LiveOnExitTracker = TruncatedTracker
            try:
                yield
            finally:
                driver_module.LiveOnExitTracker = real_tracker
        else:
            yield
