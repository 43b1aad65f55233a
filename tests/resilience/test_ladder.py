"""Ladder mechanics and the fail-soft pipeline driver.

The unit half checks the pure ladder functions; the integration half
drives :func:`repro.xform.optimize` with ``resilience`` set and injected
faults, asserting the pipeline lands on the documented rung with the
documented events -- and that the scheduled function still computes the
same answer as the unmodified one.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.compiler import compile_c
from repro.ir import gpr
from repro.ir.function import Function
from repro.machine import rs6k
from repro.resilience import ResilienceConfig, Rung, worst_rung
from repro.resilience.faults import ActiveFault, FaultPlan
from repro.resilience.guard import StageGuard
from repro.resilience.ladder import ladder_for, rung_config, start_rung
from repro.sched import ScheduleLevel
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.xform import PipelineConfig, optimize
from repro.xform.pipeline import PipelineReport

from ..xform.test_rotate import run_sum, two_block_loop

LIVE = frozenset({gpr(3)})


# -- pure ladder functions ----------------------------------------------------

class TestLadder:
    def test_full_ladder_from_speculative(self):
        config = PipelineConfig(level=ScheduleLevel.SPECULATIVE)
        assert ladder_for(config) == [Rung.SPECULATIVE, Rung.USEFUL,
                                      Rung.BB, Rung.IDENTITY]

    def test_ladder_from_useful_skips_speculative(self):
        config = PipelineConfig(level=ScheduleLevel.USEFUL)
        assert ladder_for(config) == [Rung.USEFUL, Rung.BB, Rung.IDENTITY]

    def test_no_post_bb_pass_drops_bb_rung(self):
        config = PipelineConfig(level=ScheduleLevel.SPECULATIVE,
                                post_bb_pass=False)
        assert ladder_for(config) == [Rung.SPECULATIVE, Rung.USEFUL,
                                      Rung.IDENTITY]

    def test_start_rung_none_level(self):
        assert start_rung(PipelineConfig(level=ScheduleLevel.NONE)) is Rung.BB
        assert start_rung(PipelineConfig(level=ScheduleLevel.NONE,
                                         post_bb_pass=False)) is Rung.IDENTITY

    def test_rung_config_identity_is_none(self):
        base = PipelineConfig()
        assert rung_config(base, Rung.IDENTITY, fallback=True) is None

    def test_rung_config_forces_verify_on_fallback(self):
        base = PipelineConfig(verify=False)
        levels = {Rung.SPECULATIVE: ScheduleLevel.SPECULATIVE,
                  Rung.USEFUL: ScheduleLevel.USEFUL,
                  Rung.BB: ScheduleLevel.NONE}
        for rung, level in levels.items():
            # every fallback rung verifies, whatever the caller chose
            derived = rung_config(base, rung, fallback=True)
            assert derived.verify, rung
            assert derived.level is level
            # the original attempt keeps the caller's choice
            assert not rung_config(base, rung, fallback=False).verify
            assert rung_config(PipelineConfig(verify=True), rung,
                               fallback=False).verify

    def test_worst_rung(self):
        assert worst_rung(["speculative", "bb", "useful"]) == "bb"
        assert worst_rung(["speculative"]) == "speculative"
        assert worst_rung([]) == "identity"
        assert worst_rung(["useful", "identity"]) == "identity"


# -- the resilient driver -----------------------------------------------------

def _resilient(func, *, fault=None, **kwargs):
    config = PipelineConfig(
        level=ScheduleLevel.SPECULATIVE,
        resilience=ResilienceConfig(fault=fault, **kwargs))
    return optimize(func, rs6k(), config, live_at_exit=LIVE)


class TestResilientDriver:
    def test_inert_config_stays_on_top_rung(self):
        func = two_block_loop()
        report = _resilient(func)
        assert report.final_rung == "speculative"
        assert [a.outcome for a in report.attempts] == ["ok"]
        assert not report.degraded
        assert not report.degradations
        # the inherited report fields are those of the real attempt
        assert report.first_pass is not None
        assert run_sum(func, 7) == 28

    def test_inert_matches_plain_pipeline_fields(self):
        resilient = _resilient(two_block_loop())
        plain = optimize(two_block_loop(), rs6k(),
                         PipelineConfig(level=ScheduleLevel.SPECULATIVE),
                         live_at_exit=LIVE)
        for f in dataclasses.fields(PipelineReport):
            if f.name == "elapsed_seconds":
                continue
            got = getattr(resilient, f.name)
            want = getattr(plain, f.name)
            assert type(got) is type(want), f.name

    def test_inert_config_costs_one_clone_and_no_guarded_stage(
            self, monkeypatch):
        """The inert path's cost, stated by calls rather than by time: a
        ``ResilienceConfig()`` compile emits the plain compile's assembly,
        takes exactly one more ``Function.clone`` per function (the
        pristine copy the ladder would restore) and never enters a
        guarded stage."""
        clones = Counter()
        real_clone = Function.clone

        def counting_clone(func):
            clones[func.name] += 1
            return real_clone(func)

        def no_guarded_stage(*args, **kwargs):
            raise AssertionError("an inert guard entered _guarded_stage")

        def compile_counting(source, resilience):
            clones.clear()
            result = compile_c(source, machine=rs6k(), config=PipelineConfig(
                resilience=resilience))
            return ([unit.assembly() for unit in result], Counter(clones),
                    Counter(unit.name for unit in result))

        monkeypatch.setattr(Function, "clone", counting_clone)
        monkeypatch.setattr(StageGuard, "_guarded_stage", no_guarded_stage)
        for index in range(5):
            source = generate_program(derive_seed(1991, index)).source
            plain_asm, plain_clones, names = compile_counting(source, None)
            inert_asm, inert_clones, _ = compile_counting(
                source, ResilienceConfig())
            assert inert_asm == plain_asm
            assert inert_clones == plain_clones + names

    def test_crash_in_global_pass_descends_to_bb(self):
        # global-pass-1 runs on the speculative AND useful rungs, so a
        # persistent crash there burns both and lands on bb scheduling
        fault = ActiveFault(FaultPlan(seed=0, site="pass.exception",
                                      stage="global-pass-1", param=2))
        func = two_block_loop()
        report = _resilient(func, fault=fault)
        assert fault.fired
        assert report.final_rung == "bb"
        assert [(a.rung, a.outcome) for a in report.attempts] == [
            ("speculative", "failed"), ("useful", "failed"), ("bb", "ok")]
        assert report.attempts[0].reason == "injected"
        assert report.degraded
        assert any(e.action == "rung-descent" for e in report.degradations)
        assert run_sum(func, 7) == 28  # still correct after the fallback

    def test_hang_in_bb_post_descends_to_identity(self):
        # bb-post is the only stage of the BB rung, so a persistent hang
        # there burns every scheduled rung and lands on identity
        fault = ActiveFault(FaultPlan(seed=0, site="pass.hang",
                                      stage="bb-post", param=2))
        func = two_block_loop()
        before = [[ins.uid for ins in b.instrs] for b in func.blocks]
        report = _resilient(func, fault=fault)
        assert report.final_rung == "identity"
        assert report.attempts[-1].outcome == "ok"
        assert all(a.reason == "timeout"
                   for a in report.attempts[:-1])
        # identity means the pristine original order, byte for byte
        after = [[ins.uid for ins in b.instrs] for b in func.blocks]
        assert after == before
        assert run_sum(func, 5) == 15

    def test_crash_in_skippable_stage_is_absorbed_in_place(self):
        fault = ActiveFault(FaultPlan(seed=0, site="pass.exception",
                                      stage="unroll", param=2))
        func = two_block_loop()
        report = _resilient(func, fault=fault)
        # no rung descent: the stage was skipped and the rung completed
        assert report.final_rung == "speculative"
        assert not report.degraded
        skips = [e for e in report.degradations if e.action == "pass-skipped"]
        assert len(skips) == 1
        assert skips[0].site == "pass:unroll"
        assert not report.unrolled  # the skipped pass left no trace
        assert run_sum(func, 7) == 28

    def test_zero_program_budget_goes_straight_to_identity(self):
        func = two_block_loop()
        before = [[ins.uid for ins in b.instrs] for b in func.blocks]
        report = _resilient(func, program_budget_s=0.0)
        assert report.final_rung == "identity"
        assert report.attempts[0].reason == "timeout"
        assert [[ins.uid for ins in b.instrs]
                for b in func.blocks] == before

    def test_degradation_events_reach_the_metrics_collector(self):
        from repro.obs import MetricsCollector

        metrics = MetricsCollector()
        fault = ActiveFault(FaultPlan(seed=0, site="pass.exception",
                                      stage="global-pass-2", param=2))
        config = PipelineConfig(
            level=ScheduleLevel.SPECULATIVE, metrics=metrics,
            resilience=ResilienceConfig(fault=fault))
        optimize(two_block_loop(), rs6k(), config, live_at_exit=LIVE)
        assert metrics.counters["resilience.rung_descents"] >= 1
        assert metrics.counters["resilience.functions_degraded"] == 1


class TestStatsRendering:
    def test_format_stats_reports_the_final_rung(self):
        from repro.obs.metrics import MetricsCollector, format_stats

        metrics = MetricsCollector()
        metrics.inc("resilience.rung_descents", 2)
        func = two_block_loop()
        fault = ActiveFault(FaultPlan(seed=0, site="pass.exception",
                                      stage="global-pass-1", param=2))
        report = _resilient(func, fault=fault)
        text = format_stats("t", "rs6k", "speculative",
                            [(func.name, report)], metrics)
        assert "resilience rung: bb" in text
        assert "degradation event" in text
        assert "resilience" in text
        assert "rung descents" in text
