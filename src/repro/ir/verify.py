"""Structural verification of IR functions.

The verifier enforces the invariants the rest of the system relies on; it is
run by the compiler pipeline after every transformation (front end, renaming,
unrolling, rotation, global scheduling, basic-block scheduling), so a bug in
any pass surfaces immediately rather than as a wrong schedule.

Error messages embed the offending instruction's ``repr``, but only *build*
it on failure: the verifier runs over every instruction after every pass, and
eagerly formatting messages for checks that pass dominated its cost (nearly a
quarter of a fuzz campaign's profile before the split into
:func:`_check` / :func:`_check_ins`).
"""

from __future__ import annotations

from .function import Function
from .opcodes import Opcode
from .operand import CR_EQ, CR_GT, CR_LT, RegClass


class VerificationError(ValueError):
    """The function violates an IR structural invariant."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise VerificationError(message)


def _check_ins(cond: bool, where: str, ins, problem: str) -> None:
    """Like :func:`_check`, but defers the ``{ins!r}`` formatting to the
    failure path."""
    if not cond:
        raise VerificationError(f"{where}: {ins!r} {problem}")


# per-opcode requirement bits, derived once from the opcode table -- the
# verifier runs over every instruction after every pass, and re-testing
# six tuple memberships per instruction dominated its cost
_MEM_OP = 1        # loads/stores carry a memory operand, nothing else does
_TEST_CR = 2       # BT/BF: single LT/GT/EQ mask bit, one CR use
_NEED_TARGET = 4   # BT/BF/B/BDNZ: branch target present
_DEF_CR = 8        # compares define exactly one CR
_FIXED_MEM = 16    # L/LU/ST/STU: every register operand is a GPR
_NEED_IMM = 32     # immediate-form ops carry their immediate
_LOAD_DEFS = 64    # loads define at least one register
_CALL_NAME = 128   # CALL names its callee


def _rule(op: Opcode) -> int:
    flags = 0
    if op.is_load or op.is_store:
        flags |= _MEM_OP
    if op in (Opcode.BT, Opcode.BF):
        flags |= _TEST_CR | _NEED_TARGET
    if op in (Opcode.B, Opcode.BDNZ):
        flags |= _NEED_TARGET
    if op.is_compare:
        flags |= _DEF_CR
    if op in (Opcode.L, Opcode.LU, Opcode.ST, Opcode.STU):
        flags |= _FIXED_MEM
    if op in (Opcode.LI, Opcode.AI, Opcode.SI, Opcode.ANDI, Opcode.ORI,
              Opcode.XORI, Opcode.SL, Opcode.SR, Opcode.SRA, Opcode.CI):
        flags |= _NEED_IMM
    if op.is_load:
        flags |= _LOAD_DEFS
    if op is Opcode.CALL:
        flags |= _CALL_NAME
    return flags


#: indexed by ``Opcode.index``: keyed by the member, every lookup would run
#: ``Enum.__hash__`` (Python code)
_RULES: tuple[int, ...] = tuple(_rule(op) for op in Opcode)


def _verify_instruction(ins, where: str) -> None:
    flags = _RULES[ins.opcode.index]
    if not flags:
        # plain computation op: only the no-memory-operand rule applies
        if ins.mem is not None:
            raise VerificationError(
                f"{where}: {ins!r} memory operand mismatch")
        return
    _check_ins((ins.mem is not None) == bool(flags & _MEM_OP),
               where, ins, "memory operand mismatch")
    if flags & _TEST_CR:
        _check_ins(ins.mask in (CR_LT, CR_GT, CR_EQ),
                   where, ins, "mask must be a single LT/GT/EQ bit")
        _check_ins(len(ins.uses) == 1 and ins.uses[0].rclass is RegClass.CR,
                   where, ins, "must test a condition register")
    if flags & _NEED_TARGET:
        _check_ins(ins.target is not None, where, ins, "missing target")
    if flags & _DEF_CR:
        _check_ins(len(ins.defs) == 1 and ins.defs[0].rclass is RegClass.CR,
                   where, ins, "must define a condition register")
    if flags & _FIXED_MEM:
        for reg in ins.defs + ins.uses:
            if reg.rclass is not RegClass.GPR:
                raise VerificationError(
                    f"{where}: {ins!r} fixed-point memory op uses {reg}")
    if flags & _NEED_IMM:
        _check_ins(ins.imm is not None, where, ins, "missing immediate")
    if flags & _LOAD_DEFS:
        _check_ins(len(ins.defs) >= 1, where, ins, "load defines nothing")
    if flags & _CALL_NAME:
        _check_ins(bool(ins.target), where, ins, "call needs a callee name")


def verify_function(func: Function) -> None:
    """Raise :class:`VerificationError` on any broken invariant."""
    _check(bool(func.blocks), f"{func.name}: function has no blocks")

    seen_uids: set[int] = set()
    labels = {b.label for b in func.blocks}
    _check(len(labels) == len(func.blocks), f"{func.name}: duplicate labels")

    for block in func.blocks:
        where = f"{func.name}/{block.label}"
        last = len(block.instrs) - 1
        for i, ins in enumerate(block.instrs):
            uid = ins.uid
            if uid < 0:
                raise VerificationError(f"{where}: {ins!r} has no uid")
            if uid in seen_uids:
                raise VerificationError(
                    f"{where}: duplicate uid I{uid}")
            seen_uids.add(uid)
            if ins.is_branch and i != last:
                raise VerificationError(
                    f"{where}: {ins!r} branch is not the block terminator")
            _verify_instruction(ins, where)
            if ins.target is not None and not ins.is_call:
                _check(ins.target in labels,
                       f"{where}: branch target {ins.target!r} does not exist")
        # A conditional branch in the last block is legal: its fall-through
        # leaves the function (the paper's "... more instructions here ...").


def verify_reachable(func: Function) -> None:
    """Additionally check that every block is reachable from the entry."""
    verify_function(func)
    reached: set[str] = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block.label in reached:
            continue
        reached.add(block.label)
        stack.extend(func.successors(block))
    unreachable = [b.label for b in func.blocks if b.label not in reached]
    _check(not unreachable,
           f"{func.name}: unreachable blocks: {', '.join(unreachable)}")
