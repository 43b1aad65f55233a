"""A functional (architectural) interpreter for the IR.

Two jobs:

* **Correctness oracle.**  Scheduling must preserve program semantics; the
  test suite runs the original and the scheduled function on the same
  inputs and compares final register/memory state and call side effects.
* **Trace generation.**  The cycle simulator needs to know which blocks
  execute in what order; the executor records the block trace.

Arithmetic wraps to signed 32-bit, matching the RS/6K's fixed point unit.
Memory is word-granular and byte-addressed (aligned accesses assumed);
unwritten locations read as zero.  Calls dispatch to registered Python
callables (the ``printf`` of Figure 1 can be a print capture in tests) and
otherwise behave as no-ops that clobber nothing.

Each opcode's semantics is one handler function; an instruction runs the
handler found at its ``Opcode.index`` in a tuple, with no chain of opcode
tests and no enum hashing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode
from ..ir.operand import CR_EQ, CR_GT, CR_LT, Reg

_WORD_MASK = 0xFFFFFFFF

#: A call handler: receives argument values, returns result values.
CallHandler = Callable[[list[int]], list[int]]


class ExecutionError(RuntimeError):
    """Raised for runaway executions or malformed programs."""


def wrap32(value: int) -> int:
    """Wrap to signed 32-bit two's complement."""
    value &= _WORD_MASK
    return value - (1 << 32) if value & 0x80000000 else value


def compare_bits(a: int, b: int) -> int:
    """The LT/GT/EQ condition-register mask for a signed compare."""
    if a < b:
        return CR_LT
    if a > b:
        return CR_GT
    return CR_EQ


@dataclass
class ExecutionResult:
    """Final architectural state plus the trace."""

    regs: dict[Reg, int]
    memory: dict[int, int]
    #: visited block labels, in execution order
    block_trace: list[str]
    #: executed instructions, in execution order
    instr_trace: list[Instruction]
    #: (callee, args) of every call, in order
    calls: list[tuple[str, tuple[int, ...]]]
    steps: int
    return_value: int | None = None

    def reg(self, reg: Reg) -> int:
        return self.regs.get(reg, 0)


class Executor:
    """Interprets one function from a given initial state."""

    def __init__(
        self,
        func: Function,
        *,
        regs: dict[Reg, int] | None = None,
        memory: dict[int, int] | None = None,
        call_handlers: dict[str, CallHandler] | None = None,
        max_steps: int = 1_000_000,
    ):
        self.func = func
        self.regs: dict[Reg, int] = dict(regs or {})
        self.memory: dict[int, int] = dict(memory or {})
        self.call_handlers = dict(call_handlers or {})
        self.max_steps = max_steps
        #: (callee, args) of every call of the current run
        self._calls: list[tuple[str, tuple[int, ...]]] = []

    # -- the interpreter loop -----------------------------------------------

    def run(self) -> ExecutionResult:
        """Execute from the entry block until a return (or the end of the
        layout); each instruction runs the handler of its opcode."""
        func = self.func
        regs = self.regs
        handlers = _HANDLERS
        # an empty function executes zero instructions and returns nothing
        block: BasicBlock | None = func.entry if func.blocks else None
        block_trace: list[str] = []
        #: every executed instruction, so its length is the step count
        instr_trace: list[Instruction] = []
        self._calls = []
        limit = max(self.max_steps, 0)
        return_value: int | None = None

        while block is not None:
            block_trace.append(block.label)
            instrs = block.instrs
            if len(instrs) > limit - len(instr_trace):
                # the step cap falls inside this block: run up to it
                instrs = instrs[:limit - len(instr_trace)]
            for count, ins in enumerate(instrs, 1):
                outcome = handlers[ins.opcode.index](self, regs, ins)
                if outcome is not None:
                    break
            else:
                instr_trace.extend(instrs)
                if instrs is not block.instrs:
                    raise ExecutionError(
                        f"{func.name}: exceeded {self.max_steps} steps "
                        f"(infinite loop?)"
                    )
                block = func.fallthrough(block)
                continue
            instr_trace.extend(instrs[:count])
            if outcome == "ret":
                return_value = regs.get(ins.uses[0], 0) if ins.uses else None
                break
            block = func.block(ins.target)

        return ExecutionResult(
            regs=dict(regs),
            memory=dict(self.memory),
            block_trace=block_trace,
            instr_trace=instr_trace,
            calls=self._calls,
            steps=len(instr_trace),
            return_value=return_value,
        )


# -- one handler per opcode ---------------------------------------------------
#
# ``handler(executor, regs, ins)`` executes ``ins`` and returns None, or
# "taken" / "ret" for a transfer of control.  Every register write wraps
# to signed 32 bits inline: ``((v + _SIGN) & _WORD_MASK) - _SIGN`` is
# :func:`wrap32` without the call.

_SIGN = 0x80000000


def _address(regs, ins) -> int:
    mem = ins.mem
    return ((regs.get(mem.base, 0) + mem.disp + _SIGN) & _WORD_MASK) - _SIGN


def _load(ex, regs, ins):
    value = ex.memory.get(_address(regs, ins), 0)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _load_update(ex, regs, ins):
    # load from base+disp, then post-increment the base (Figure 2)
    addr = _address(regs, ins)
    value = ex.memory.get(addr, 0)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN
    regs[ins.defs[1]] = addr


def _store(ex, regs, ins):
    ex.memory[_address(regs, ins)] = regs.get(ins.uses[0], 0)


def _store_update(ex, regs, ins):
    addr = _address(regs, ins)
    ex.memory[addr] = regs.get(ins.uses[0], 0)
    regs[ins.defs[0]] = addr


def _load_immediate(ex, regs, ins):
    regs[ins.defs[0]] = ((ins.imm + _SIGN) & _WORD_MASK) - _SIGN


def _move(ex, regs, ins):
    value = regs.get(ins.uses[0], 0)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _register_op(op):
    """The handler of ``rd = op(ra, rb)``."""
    def handler(ex, regs, ins):
        uses = ins.uses
        value = op(regs.get(uses[0], 0), regs.get(uses[1], 0))
        regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN
    return handler


def _immediate_op(op):
    """The handler of ``rd = op(ra, imm)``."""
    def handler(ex, regs, ins):
        value = op(regs.get(ins.uses[0], 0), ins.imm)
        regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN
    return handler


def _divide(ex, regs, ins):
    divisor = regs.get(ins.uses[1], 0)
    if divisor == 0:
        raise ExecutionError(f"division by zero at {ins!r}")
    value = int(regs.get(ins.uses[0], 0) / divisor)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _remainder(ex, regs, ins):
    divisor = regs.get(ins.uses[1], 0)
    if divisor == 0:
        raise ExecutionError(f"remainder by zero at {ins!r}")
    dividend = regs.get(ins.uses[0], 0)
    value = dividend - int(dividend / divisor) * divisor
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _shift_left(ex, regs, ins):
    value = regs.get(ins.uses[0], 0) << (ins.imm & 31)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _shift_right(ex, regs, ins):
    value = (regs.get(ins.uses[0], 0) & _WORD_MASK) >> (ins.imm & 31)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _shift_right_algebraic(ex, regs, ins):
    value = regs.get(ins.uses[0], 0) >> (ins.imm & 31)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _negate(ex, regs, ins):
    value = -regs.get(ins.uses[0], 0)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _not(ex, regs, ins):
    value = ~regs.get(ins.uses[0], 0)
    regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _compare(ex, regs, ins):
    # compare_bits, inline (the mask needs no wrap)
    a = regs.get(ins.uses[0], 0)
    b = regs.get(ins.uses[1], 0)
    regs[ins.defs[0]] = CR_LT if a < b else CR_GT if a > b else CR_EQ


def _compare_immediate(ex, regs, ins):
    a = regs.get(ins.uses[0], 0)
    b = ins.imm
    regs[ins.defs[0]] = CR_LT if a < b else CR_GT if a > b else CR_EQ


def _branch(ex, regs, ins):
    return "taken"


def _branch_true(ex, regs, ins):
    if regs.get(ins.uses[0], 0) & ins.mask:
        return "taken"
    return None


def _branch_false(ex, regs, ins):
    if not (regs.get(ins.uses[0], 0) & ins.mask):
        return "taken"
    return None


def _branch_decrement(ex, regs, ins):
    value = regs.get(ins.uses[0], 0) - 1
    ctr = regs[ins.defs[0]] = ((value + _SIGN) & _WORD_MASK) - _SIGN
    if ctr != 0:
        return "taken"
    return None


def _call(ex, regs, ins):
    args = [regs.get(r, 0) for r in ins.uses]
    ex._calls.append((ins.target, tuple(args)))
    handler = ex.call_handlers.get(ins.target)
    results = handler(args) if handler is not None else []
    for reg, value in zip(ins.defs, results):
        regs[reg] = ((value + _SIGN) & _WORD_MASK) - _SIGN


def _return(ex, regs, ins):
    return "ret"


def _nop(ex, regs, ins):
    return None


_SEMANTICS = {
    Opcode.L: _load, Opcode.FL: _load,
    Opcode.LU: _load_update,
    Opcode.ST: _store, Opcode.FST: _store,
    Opcode.STU: _store_update,
    Opcode.LI: _load_immediate,
    Opcode.LR: _move, Opcode.FMR: _move, Opcode.MTCTR: _move,
    Opcode.A: _register_op(operator.add),
    Opcode.FA: _register_op(operator.add),
    Opcode.AI: _immediate_op(operator.add),
    Opcode.S: _register_op(operator.sub),
    Opcode.FS: _register_op(operator.sub),
    Opcode.SI: _immediate_op(operator.sub),
    Opcode.MUL: _register_op(operator.mul),
    Opcode.FM: _register_op(operator.mul),
    Opcode.DIV: _divide, Opcode.FD: _divide,
    Opcode.REM: _remainder,
    Opcode.AND: _register_op(operator.and_),
    Opcode.ANDI: _immediate_op(operator.and_),
    Opcode.OR: _register_op(operator.or_),
    Opcode.ORI: _immediate_op(operator.or_),
    Opcode.XOR: _register_op(operator.xor),
    Opcode.XORI: _immediate_op(operator.xor),
    Opcode.SL: _shift_left,
    Opcode.SR: _shift_right,
    Opcode.SRA: _shift_right_algebraic,
    Opcode.NEG: _negate,
    Opcode.NOT: _not,
    Opcode.C: _compare, Opcode.FC: _compare,
    Opcode.CI: _compare_immediate,
    Opcode.B: _branch,
    Opcode.BT: _branch_true,
    Opcode.BF: _branch_false,
    Opcode.BDNZ: _branch_decrement,
    Opcode.CALL: _call,
    Opcode.RET: _return,
    Opcode.NOP: _nop,
}

#: the handler of every opcode, indexed by ``Opcode.index`` (a test checks
#: that the table is closed: a gap would be None here)
_HANDLERS = tuple(_SEMANTICS.get(op) for op in Opcode)


def execute(func: Function, **kwargs) -> ExecutionResult:
    """Convenience wrapper: run ``func`` from the given initial state."""
    return Executor(func, **kwargs).run()
