"""What paying per static instruction must not break.

The executor dispatches through one handler per opcode, and the cycle
simulator and the BSP bound decode each static instruction once per
simulator or bound call.  These tests pin down what that may not change:

* the handler table is closed: every opcode has one;
* errors keep their text and the step they happen at;
* a function mutated between two runs is simulated as mutated -- by the
  executor, by a simulator reused across loop iterations
  (``simulate_path_iterations``) and by ``bsp_bound``.  The oracle is a
  deep copy of the mutated function: new instruction objects that no
  decode has seen.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.compiler import compile_c
from repro.ir import Opcode, gpr, parse_function
from repro.machine import rs6k
from repro.sched import global_schedule
from repro.sched.bb_sched import schedule_block
from repro.sched.candidates import ScheduleLevel
from repro.sim import (
    ExecutionError,
    Executor,
    bsp_bound,
    simulate_path_iterations,
)
from repro.sim.executor import _HANDLERS
from repro.xform.pipeline import PipelineConfig

SUM_TIMES_3 = """
int f(int a[], int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + a[i] * 3; i = i + 1; }
    return s;
}
"""

ARGS = ([2, 3, 4, 5], 4)


def unscheduled_unit():
    """``f`` as lowered, with no scheduling pass applied, so that
    ``schedule_block`` has something to reorder."""
    config = PipelineConfig(level=ScheduleLevel.NONE, post_bb_pass=False)
    return compile_c(SUM_TIMES_3, level=ScheduleLevel.NONE,
                     config=config)["f"]


def fresh_run(unit):
    """The same run on a deep copy of the unit's (mutated) function."""
    func = unit.func.clone()
    return replace(unit, compiled=replace(unit.compiled, func=func)).run(
        *ARGS)


def the(unit, opcode: Opcode):
    (ins,) = [i for i in unit.func.instructions() if i.opcode is opcode]
    return ins


def assert_same_run(run, expected):
    assert run.return_value == expected.return_value
    assert run.arrays == expected.arrays
    assert run.execution.steps == expected.execution.steps
    assert run.execution.block_trace == expected.execution.block_trace
    assert run.timing == expected.timing
    machine = rs6k()
    assert (bsp_bound(run.execution.instr_trace, machine)
            == bsp_bound(expected.execution.instr_trace, machine))


class TestHandlerTable:
    def test_every_opcode_has_a_handler(self):
        assert len(_HANDLERS) == len(Opcode)
        missing = [op.name for op in Opcode if _HANDLERS[op.index] is None]
        assert missing == []

    def test_index_is_the_table_position(self):
        assert [op.index for op in Opcode] == list(range(len(Opcode)))


class TestErrors:
    def run_to_error(self, text: str, **kwargs):
        func = parse_function("function t\na:\n" + text)
        executor = Executor(func, **kwargs)
        with pytest.raises(ExecutionError) as info:
            executor.run()
        return func, executor, str(info.value)

    def test_division_by_zero(self):
        func, executor, message = self.run_to_error(
            "    LI r1=7\n    LI r2=0\n    DIV r3=r1,r2\n    RET r3\n")
        div = func.blocks[0].instrs[2]
        assert message == f"division by zero at {div!r}"
        # the two instructions before it ran, the divide did not
        assert executor.regs == {gpr(1): 7, gpr(2): 0}

    def test_remainder_by_zero(self):
        func, executor, message = self.run_to_error(
            "    LI r1=7\n    LI r2=0\n    REM r3=r1,r2\n    RET r3\n")
        rem = func.blocks[0].instrs[2]
        assert message == f"remainder by zero at {rem!r}"
        assert executor.regs == {gpr(1): 7, gpr(2): 0}

    @pytest.mark.parametrize("cap", range(8))
    def test_step_cap_fires_after_exactly_cap_steps(self, cap):
        # three instructions per trip, so the cap also falls mid-block
        _func, executor, message = self.run_to_error(
            "    AI r1=r1,1\n    AI r1=r1,1\n    B a\n", max_steps=cap)
        assert message == f"t: exceeded {cap} steps (infinite loop?)"
        increments = cap // 3 * 2 + min(cap % 3, 2)
        assert executor.regs.get(gpr(1), 0) == increments

    def test_run_ending_at_the_cap_is_not_cut(self):
        func = parse_function("function t\na:\n    LI r1=4\n    RET r1\n")
        result = Executor(func, max_steps=2).run()
        assert (result.steps, result.return_value) == (2, 4)
        with pytest.raises(ExecutionError, match="exceeded 1 steps"):
            Executor(func, max_steps=1).run()


class TestMutationBetweenRuns:
    def test_immediate(self):
        unit = unscheduled_unit()
        before = unit.run(*ARGS)
        assert before.return_value == 3 * 14
        (three,) = [i for i in unit.func.instructions()
                    if i.opcode is Opcode.LI and i.imm == 3]
        three.imm = 5
        after = unit.run(*ARGS)
        assert after.return_value == 5 * 14
        assert_same_run(after, fresh_run(unit))

    def test_operand(self):
        unit = unscheduled_unit()
        before = unit.run(*ARGS)
        mul = the(unit, Opcode.MUL)
        mul.uses = (mul.uses[0], mul.uses[0])  # a[i] * a[i]
        after = unit.run(*ARGS)
        assert after.return_value == 4 + 9 + 16 + 25
        assert after.return_value != before.return_value
        assert_same_run(after, fresh_run(unit))

    def test_opcode_changes_the_latency(self):
        unit = unscheduled_unit()
        before = unit.run(*ARGS)
        mul = the(unit, Opcode.MUL)
        mul.opcode = Opcode.A  # a[i] + 3, one cycle instead of five
        after = unit.run(*ARGS)
        assert after.return_value == 14 + 4 * 3
        assert after.cycles < before.cycles
        assert_same_run(after, fresh_run(unit))

    def test_block_order_via_schedule_block(self):
        unit = unscheduled_unit()
        before = unit.run(*ARGS)
        for block in unit.func.blocks:
            schedule_block(block, unit.machine)
        after = unit.run(*ARGS)
        assert after.return_value == before.return_value
        assert after.cycles < before.cycles
        assert_same_run(after, fresh_run(unit))

    def test_bsp_bound_of_a_mutated_trace(self):
        unit = unscheduled_unit()
        trace = unit.run(*ARGS).execution.instr_trace
        before = bsp_bound(trace, unit.machine)
        mul = the(unit, Opcode.MUL)
        mul.opcode = Opcode.DIV  # 19 cycles instead of 5, same operands
        after = bsp_bound(trace, unit.machine)
        assert after.depth > before.depth
        assert after == bsp_bound([ins.clone() for ins in trace],
                                  unit.machine)

    def test_path_iterations_after_rescheduling(self, figure2):
        # Figure 2 is already locally scheduled; the global scheduler
        # moves instructions between its blocks (Figure 5)
        path = ["CL.0", "BL2", "CL.6", "CL.9"]
        assert simulate_path_iterations(figure2, path, rs6k()) == 20
        global_schedule(figure2, rs6k(), ScheduleLevel.USEFUL)
        after = simulate_path_iterations(figure2, path, rs6k())
        assert after in (12, 13)
        assert after == simulate_path_iterations(figure2.clone(), path,
                                                 rs6k())
