"""Tests for the Section 6 compilation flow."""

from pathlib import Path

import pytest

import repro.xform.pipeline as pipeline_mod
from repro import compile_c
from repro.ir import gpr, verify_function, verify_reachable
from repro.machine import rs6k
from repro.sched import ScheduleLevel
from repro.sim import execute, simulate_execution
from repro.xform import PipelineConfig, optimize

from .test_rotate import run_sum, two_block_loop


class TestGeneralFlow:
    def test_unroll_then_rotate_then_schedule(self):
        func = two_block_loop()
        report = optimize(func, rs6k(),
                          PipelineConfig(level=ScheduleLevel.SPECULATIVE),
                          live_at_exit=frozenset({gpr(3)}))
        verify_function(func)
        verify_reachable(func)
        assert len(report.unrolled) == 1
        assert len(report.rotated) == 1
        assert report.first_pass is not None
        assert report.second_pass is not None
        assert report.bb_cycles  # post-pass ran

    @pytest.mark.parametrize("level", list(ScheduleLevel))
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8])
    def test_semantics_at_every_level(self, level, n):
        func = two_block_loop()
        optimize(func, rs6k(), PipelineConfig(level=level),
                 live_at_exit=frozenset({gpr(3)}))
        assert run_sum(func, n) == n * (n + 1) // 2

    def test_each_level_at_least_as_fast(self):
        cycles = {}
        for level in (ScheduleLevel.NONE, ScheduleLevel.USEFUL,
                      ScheduleLevel.SPECULATIVE):
            func = two_block_loop()
            optimize(func, rs6k(), PipelineConfig(level=level),
                     live_at_exit=frozenset({gpr(3)}))
            mem = {1000 + 4 * i: i for i in range(32)}
            _, timing = simulate_execution(
                func, rs6k(), regs={gpr(5): 32, gpr(6): 1000}, memory=mem)
            cycles[level] = timing.cycles
        assert cycles[ScheduleLevel.USEFUL] <= cycles[ScheduleLevel.NONE]
        assert (cycles[ScheduleLevel.SPECULATIVE]
                <= cycles[ScheduleLevel.USEFUL])

    def test_second_pass_pipelines_rotated_loop(self):
        # the rotated header copy should lose instructions to earlier
        # blocks (the partial software pipelining of Section 6)
        func = two_block_loop()
        report = optimize(func, rs6k(),
                          PipelineConfig(level=ScheduleLevel.SPECULATIVE),
                          live_at_exit=frozenset({gpr(3)}))
        clone_label = report.rotated[0].clone_header
        second = report.second_pass
        pipelined = [m for m in second.motions if m.src == clone_label]
        assert pipelined, "no next-iteration instruction was hoisted"

    def test_base_level_still_runs_bb_scheduler(self):
        func = two_block_loop()
        report = optimize(func, rs6k(),
                          PipelineConfig(level=ScheduleLevel.NONE))
        assert report.bb_cycles
        assert report.first_pass is None
        verify_function(func)


class TestConfigKnobs:
    def test_unroll_disabled(self):
        func = two_block_loop()
        report = optimize(func, rs6k(), PipelineConfig(
            level=ScheduleLevel.USEFUL, unroll_max_blocks=0))
        assert report.unrolled == []

    def test_rotate_disabled(self):
        func = two_block_loop()
        report = optimize(func, rs6k(), PipelineConfig(
            level=ScheduleLevel.USEFUL, rotate_max_blocks=0))
        assert report.rotated == []

    def test_post_pass_disabled(self):
        func = two_block_loop()
        report = optimize(func, rs6k(), PipelineConfig(
            level=ScheduleLevel.USEFUL, post_bb_pass=False))
        assert report.bb_cycles == {}

    def test_size_limits_skip_large_regions(self, figure2):
        import repro.sched.regions as regions_mod
        report = optimize(
            figure2, rs6k(),
            PipelineConfig(level=ScheduleLevel.USEFUL,
                           unroll_max_blocks=0, rotate_max_blocks=0,
                           apply_size_limits=True))
        # minmax has 10 blocks / 20 instrs: small enough, so it runs
        assert report.first_pass.regions
        # shrink the limit artificially
        old = regions_mod.MAX_REGION_BLOCKS
        try:
            regions_mod.MAX_REGION_BLOCKS = 2
            from ..conftest import FIGURE2
            from repro.ir import parse_function
            func = parse_function(FIGURE2)
            report = optimize(
                func, rs6k(),
                PipelineConfig(level=ScheduleLevel.USEFUL,
                               unroll_max_blocks=0, rotate_max_blocks=0))
            assert any("CL.0" in s for s in report.first_pass.skipped_regions)
        finally:
            regions_mod.MAX_REGION_BLOCKS = old

    def test_elapsed_recorded(self):
        func = two_block_loop()
        report = optimize(func, rs6k(),
                          PipelineConfig(level=ScheduleLevel.SPECULATIVE))
        assert report.elapsed_seconds > 0


class TestIRWalks:
    """A stage walks the IR (``pipeline.verify_function``) only when no
    earlier walk of the same compile saw that IR: ``unroll`` and
    ``rotate`` skip theirs when they changed nothing, but a compile
    without strength reduction keeps its ``unroll`` walk, so the IR is
    always walked before it is scheduled."""

    LOOP_FREE = ("int f(int a, int b) { int c = a * 3; "
                 "if (a > b) c = c + b; return c; }")

    @pytest.fixture
    def walks(self, monkeypatch):
        calls = []
        real = pipeline_mod.verify_function

        def counting(func):
            calls.append(func.name)
            return real(func)

        monkeypatch.setattr(pipeline_mod, "verify_function", counting)
        return calls

    @pytest.mark.parametrize("program", ["loop-free", "minmax"])
    @pytest.mark.parametrize("strength_reduce", [True, False])
    def test_unchanged_ir_is_walked_once(self, walks, program,
                                         strength_reduce):
        source = (self.LOOP_FREE if program == "loop-free" else
                  (Path(__file__).parents[2] / "examples" / "minmax.c")
                  .read_text())
        config = PipelineConfig(strength_reduce=strength_reduce)
        [unit] = compile_c(source, machine=rs6k(), level=config.level,
                           config=config)
        assert unit.report.unrolled == unit.report.rotated == []
        # strength-reduce (or, without it, unroll), global-pass-1,
        # global-pass-2 and bb-post; rotate changed nothing
        assert walks == [unit.name] * 4

    def test_unrolled_and_rotated_ir_is_walked(self, walks):
        func = two_block_loop()
        report = optimize(func, rs6k(), PipelineConfig(),
                          live_at_exit=frozenset({gpr(3)}))
        assert len(report.unrolled) == len(report.rotated) == 1
        # every stage, unroll and rotate included
        assert len(walks) == 6
