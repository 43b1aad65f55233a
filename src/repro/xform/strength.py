"""Induction-variable strength reduction for array address chains.

The XL BASE compiler's output in Figure 2 walks the array with a single
pointer register (``r31``) and constant displacements -- no per-access
shift/add address arithmetic.  Structured lowering instead emits, for
every ``a[i]``::

    SL t = i, 2
    A  addr = base, t
    L  v = (addr, 0)

This pass restores the Figure 2 form.  For each innermost loop it finds

* *basic induction variables*: registers with exactly one in-loop
  definition, of the form ``AI i = i, c`` / ``SI i = i, c``;
* *derived offsets*: ``AI j = i, c`` (single def, ``i`` basic) -- the
  ``i + 1`` of ``a[i + 1]``;
* address chains ``SL t = j, k`` + ``A addr = base, t`` with a
  loop-invariant ``base``,

and replaces each memory access through ``addr`` with an access through a
*pointer register* ``p`` (one per ``(i, base, k)`` triple):

* ``p = base + (i << k)`` is computed in every loop predecessor;
* ``AI p = p, c << k`` is inserted immediately next to the induction
  variable's own increment, so ``p == base + (i << k)`` holds at every
  other point of the loop;
* a derived offset ``j = i + c`` folds into the access displacement, so
  ``a[i]`` / ``a[i + 1]`` become ``(p,0)`` / ``(p,4)`` -- the paper's
  ``a(r31,4)`` / ``a(r31,8)`` modulo the initial offset.

A chain is only transformed when its shift, add, (optional) derived
offset, and every use of the address sit in one block with no induction
step between them -- which guarantees the address equals ``p`` plus the
folded displacement at each use.  Dead address arithmetic is swept
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.dominators import dominator_tree
from ..cfg.graph import ENTRY, ControlFlowGraph
from ..cfg.loops import Loop, LoopNest
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode
from ..ir.operand import MemRef, Reg


@dataclass
class StrengthReductionReport:
    """What the pass did."""

    #: (loop header, pointer register, base, induction variable)
    pointers: list[tuple[str, Reg, Reg, Reg]] = field(default_factory=list)
    rewritten_accesses: int = 0
    deleted_instructions: int = 0

    def __bool__(self) -> bool:
        return bool(self.pointers)


@dataclass
class _BasicIV:
    reg: Reg
    step: int           # signed per-iteration delta
    increment: Instruction
    block: BasicBlock


@dataclass
class _Chain:
    """One address chain: ``addr = base + ((iv + offset) << shift)``."""

    iv: _BasicIV
    offset: int
    shift: int
    base: Reg
    addr: Reg
    sl: Instruction
    add: Instruction
    derived: Instruction | None
    block: BasicBlock
    #: memory instructions (within ``block``) to rewrite
    accesses: list[Instruction]


def strength_reduce(func: Function,
                    *, live_at_exit: frozenset[Reg] = frozenset()
                    ) -> StrengthReductionReport:
    """Run the pass over every innermost loop of ``func``, in place."""
    report = StrengthReductionReport()
    cfg = ControlFlowGraph(func)
    dom = dominator_tree(cfg.graph, ENTRY)
    nest = LoopNest(cfg.graph, dom)
    for loop in nest.loops:
        if not loop.children:
            _reduce_loop(func, loop, live_at_exit, report)
    return report


def _loop_instructions(func: Function, body: list[str]) -> list[Instruction]:
    return [ins for label in body for ins in func.block(label).instrs]


def _def_counts(instrs: list[Instruction]) -> dict[Reg, int]:
    counts: dict[Reg, int] = {}
    for ins in instrs:
        for reg in ins.reg_defs():
            counts[reg] = counts.get(reg, 0) + 1
    return counts


def _find_basic_ivs(func: Function, body: list[str],
                    counts: dict[Reg, int]) -> dict[Reg, _BasicIV]:
    ivs: dict[Reg, _BasicIV] = {}
    for label in body:
        block = func.block(label)
        for ins in block.instrs:
            if ins.opcode not in (Opcode.AI, Opcode.SI):
                continue
            (dest,) = ins.defs
            if ins.uses != (dest,) or counts.get(dest) != 1:
                continue
            step = ins.imm if ins.opcode is Opcode.AI else -ins.imm
            ivs[dest] = _BasicIV(dest, step, ins, block)
    return ivs


def _find_chains(func: Function, body: list[str], ivs: dict[Reg, _BasicIV],
                 counts: dict[Reg, int]) -> list[_Chain]:
    # derived offsets: j = i + c with i basic and j single-def
    derived: dict[Reg, tuple[_BasicIV, int, Instruction]] = {}
    for label in body:
        for ins in func.block(label).instrs:
            if ins.opcode not in (Opcode.AI, Opcode.SI):
                continue
            (dest,) = ins.defs
            src = ins.uses[0]
            if dest == src or counts.get(dest) != 1 or src not in ivs:
                continue
            offset = ins.imm if ins.opcode is Opcode.AI else -ins.imm
            derived[dest] = (ivs[src], offset, ins)

    # single-def shifts of (derived) induction variables
    shifts: dict[Reg, tuple[_BasicIV, int, int, Instruction,
                            Instruction | None]] = {}
    for label in body:
        for ins in func.block(label).instrs:
            if ins.opcode is not Opcode.SL:
                continue
            (dest,) = ins.defs
            src = ins.uses[0]
            if counts.get(dest) != 1:
                continue
            if src in ivs:
                shifts[dest] = (ivs[src], 0, ins.imm, ins, None)
            elif src in derived:
                iv, offset, producer = derived[src]
                shifts[dest] = (iv, offset, ins.imm, ins, producer)

    chains: list[_Chain] = []
    for label in body:
        block = func.block(label)
        for ins in block.instrs:
            if ins.opcode is not Opcode.A:
                continue
            (dest,) = ins.defs
            if counts.get(dest) != 1:
                continue
            lhs, rhs = ins.uses
            for t, base in ((lhs, rhs), (rhs, lhs)):
                if t in shifts and counts.get(base, 0) == 0:
                    iv, offset, shift, sl_ins, producer = shifts[t]
                    chain = _validate_chain(
                        func, body, _Chain(iv, offset, shift, base, dest,
                                           sl_ins, ins, producer, block, []))
                    if chain is not None:
                        chains.append(chain)
                    break
    return chains


def _validate_chain(func: Function, body: list[str],
                    chain: _Chain) -> _Chain | None:
    """Check the single-block / no-intervening-step safety condition and
    collect the memory accesses to rewrite."""
    block = chain.block
    members = {id(i) for i in block.instrs}
    pieces = [chain.sl, chain.add]
    if chain.derived is not None:
        pieces.append(chain.derived)
    if any(id(p) not in members for p in pieces):
        return None

    # every use of addr anywhere must be a memory base in this block
    use_indices: list[int] = []
    for label in body:
        for ins in func.block(label).instrs:
            if chain.addr not in ins.reg_uses():
                continue
            if ins is chain.add:
                continue
            is_clean_access = (
                id(ins) in members
                and ins.mem is not None
                and ins.mem.base == chain.addr
                and ins.opcode not in (Opcode.LU, Opcode.STU)
                and list(ins.reg_uses()).count(chain.addr) == 1
            )
            if not is_clean_access:
                return None
            use_indices.append(block.index_of(ins))
            chain.accesses.append(ins)
    # ... and not outside the loop either
    loop_ids = {id(i) for i in _loop_instructions(func, body)}
    for ins in func.instructions():
        if id(ins) not in loop_ids and chain.addr in ins.reg_uses():
            return None
    if not chain.accesses:
        return None

    # no induction step between the first chain piece and the last use
    start = min(block.index_of(p) for p in pieces)
    end = max(use_indices)
    if chain.iv.block is block:
        inc_index = block.index_of(chain.iv.increment)
        if start <= inc_index <= end:
            return None
    return chain


def _reduce_loop(func: Function, loop: Loop,
                 live_at_exit: frozenset[Reg],
                 report: StrengthReductionReport) -> None:
    # ``loop.body`` is a set of labels: walk it in sorted order, so the
    # pointers, their registers and the emitted code do not depend on
    # the string hash seed of the process
    body = sorted(loop.body)
    instrs = _loop_instructions(func, body)
    counts = _def_counts(instrs)
    ivs = _find_basic_ivs(func, body, counts)
    if not ivs:
        return
    chains = _find_chains(func, body, ivs, counts)
    if not chains:
        return

    preds_map = func.predecessors_map()
    outside_preds = [b for b in preds_map[loop.header]
                     if b.label not in loop.body]
    if not outside_preds:
        return  # unreachable loop; leave it alone

    pointers: dict[tuple[Reg, Reg, int], Reg] = {}
    for chain in chains:
        key = (chain.iv.reg, chain.base, chain.shift)
        pointer = pointers.get(key)
        if pointer is None:
            pointer = func.new_gpr()
            pointers[key] = pointer
            _emit_pointer_init(func, outside_preds, chain, pointer)
            _emit_pointer_step(func, chain, pointer)
            report.pointers.append(
                (loop.header, pointer, chain.base, chain.iv.reg))
        for access in chain.accesses:
            new_disp = access.mem.disp + (chain.offset << chain.shift)
            access.rename_uses_of(chain.addr, pointer)
            access.mem = MemRef(pointer, new_disp, access.mem.width,
                                access.mem.symbol)
            report.rewritten_accesses += 1

    report.deleted_instructions += _sweep_dead_chains(
        func, body, chains, live_at_exit)


def _emit_pointer_init(func: Function, outside_preds: list[BasicBlock],
                       chain: _Chain, pointer: Reg) -> None:
    """``p = base + (i << k)`` at the end of every loop predecessor."""
    for pred in outside_preds:
        tmp = func.new_gpr()
        sl = Instruction(Opcode.SL, defs=(tmp,), uses=(chain.iv.reg,),
                         imm=chain.shift, comment="strength-reduce init")
        add = Instruction(Opcode.A, defs=(pointer,),
                          uses=(chain.base, tmp),
                          comment="strength-reduce init")
        func.assign_uid(sl)
        func.assign_uid(add)
        func.note_registers(sl)
        func.note_registers(add)
        pred.insert_before_terminator(sl)
        pred.insert_before_terminator(add)


def _emit_pointer_step(func: Function, chain: _Chain, pointer: Reg) -> None:
    """``p += step << k`` immediately after the IV's own increment."""
    bump = Instruction(
        Opcode.AI, defs=(pointer,), uses=(pointer,),
        imm=chain.iv.step * (1 << chain.shift),
        comment="strength-reduce step",
    )
    func.assign_uid(bump)
    func.note_registers(bump)
    block = chain.iv.block
    block.instrs.insert(block.index_of(chain.iv.increment) + 1, bump)


def _sweep_dead_chains(func: Function, body: list[str], chains: list[_Chain],
                       live_at_exit: frozenset[Reg]) -> int:
    """Delete chain instructions whose results are no longer used."""
    candidates: list[tuple[Reg, Instruction]] = []
    seen: set[int] = set()
    for chain in chains:
        pieces = [(chain.addr, chain.add), (chain.sl.defs[0], chain.sl)]
        if chain.derived is not None:
            pieces.append((chain.derived.defs[0], chain.derived))
        for reg, ins in pieces:
            if id(ins) not in seen:
                seen.add(id(ins))
                candidates.append((reg, ins))

    owner = {id(ins): func.block(label)
             for label in body
             for ins in func.block(label).instrs}

    deleted = 0
    changed = True
    while changed:
        changed = False
        used: set[Reg] = set(live_at_exit)
        for ins in func.instructions():
            used.update(ins.reg_uses())
        for reg, ins in list(candidates):
            if reg in used or id(ins) not in owner:
                continue
            owner[id(ins)].remove(ins)
            del owner[id(ins)]
            candidates.remove((reg, ins))
            deleted += 1
            changed = True
    return deleted
