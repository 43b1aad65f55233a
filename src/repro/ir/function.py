"""Functions: ordered block lists with layout-derived control flow.

Control-flow edges are *derived* from terminators plus block layout order
(fall-through), exactly like assembly: an unterminated block falls through
to the next block in layout; a conditional branch has the branch target as
its *taken* successor and the next block as its *fall-through* successor.
Deriving edges on demand keeps them automatically consistent through the
unroll/rotate transformations.

The function also owns the two counters the paper's framework relies on:

* the instruction ``uid`` counter (original program order, the final
  scheduling tie breaker), and
* the symbolic register counter (Section 2 assumes an unbounded number of
  symbolic registers; renaming and the front end draw fresh ones here).
"""

from __future__ import annotations

from typing import Iterator

from .basic_block import BasicBlock
from .instruction import Instruction
from .opcodes import Opcode
from .operand import Reg, RegClass


class Function:
    """A compilation unit: named, ordered list of basic blocks."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: list[BasicBlock] = []
        self._labels: dict[str, BasicBlock] = {}
        self._next_uid = 1
        #: next free symbolic register number, by ``RegClass.index``
        self._next_reg = [0] * len(RegClass)
        self._next_label = 0

    # -- block management --------------------------------------------------

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, label: str | None = None,
                  after: BasicBlock | None = None) -> BasicBlock:
        """Create and insert a new block (at the end, or after ``after``)."""
        if label is None:
            label = self.fresh_label()
        if label in self._labels:
            raise ValueError(f"duplicate label {label!r} in {self.name}")
        block = BasicBlock(label)
        if after is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.layout_index(after) + 1, block)
        self._labels[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        try:
            return self._labels[label]
        except KeyError:
            raise KeyError(f"no block labelled {label!r} in {self.name}") from None

    def has_block(self, label: str) -> bool:
        return label in self._labels

    def layout_index(self, block: BasicBlock) -> int:
        # ``BasicBlock`` defines no ``__eq__``, so ``list.index`` is the
        # identity search, done in C
        try:
            return self.blocks.index(block)
        except ValueError:
            raise ValueError(
                f"block {block.label} is not in {self.name}") from None

    def remove_block(self, block: BasicBlock) -> None:
        """Remove ``block`` from the function (caller guarantees nothing
        branches to it or falls into it)."""
        self.blocks.remove(block)
        del self._labels[block.label]

    def fresh_label(self, prefix: str = "CL") -> str:
        """A label not yet used in this function."""
        while True:
            label = f"{prefix}.{self._next_label}"
            self._next_label += 1
            if label not in self._labels:
                return label

    # -- instruction management ---------------------------------------------

    def assign_uid(self, ins: Instruction) -> Instruction:
        """Give ``ins`` the next original-program-order number."""
        ins.uid = self._next_uid
        self._next_uid += 1
        return ins

    def emit(self, block: BasicBlock, ins: Instruction) -> Instruction:
        """Append ``ins`` to ``block``, assigning its uid and tracking its
        registers so fresh symbolic registers never collide."""
        self.assign_uid(ins)
        self.note_registers(ins)
        block.append(ins)
        return ins

    def note_registers(self, ins: Instruction) -> None:
        """Advance the symbolic-register counters past ``ins``'s operands."""
        next_reg = self._next_reg
        for reg in (*ins.defs, *ins.uses):
            slot = reg.rclass.index
            if reg.index >= next_reg[slot]:
                next_reg[slot] = reg.index + 1

    def new_reg(self, rclass: RegClass) -> Reg:
        """A fresh symbolic register of class ``rclass``."""
        slot = rclass.index
        reg = Reg(rclass, self._next_reg[slot])
        self._next_reg[slot] += 1
        return reg

    def new_gpr(self) -> Reg:
        return self.new_reg(RegClass.GPR)

    def new_cr(self) -> Reg:
        return self.new_reg(RegClass.CR)

    def new_fpr(self) -> Reg:
        return self.new_reg(RegClass.FPR)

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in layout order."""
        for block in self.blocks:
            yield from block.instrs

    def block_of_map(self) -> dict[int, BasicBlock]:
        """Map ``id(instruction) -> owning block`` (rebuild after moves)."""
        return {id(ins): b for b in self.blocks for ins in b.instrs}

    # -- control flow --------------------------------------------------------

    def fallthrough(self, block: BasicBlock) -> BasicBlock | None:
        """The next block in layout order, or ``None`` for the last block."""
        idx = self.layout_index(block)
        if idx + 1 < len(self.blocks):
            return self.blocks[idx + 1]
        return None

    def successors(self, block: BasicBlock) -> list[BasicBlock]:
        """Control-flow successors; taken target first for conditionals."""
        term = block.terminator
        if term is None:
            nxt = self.fallthrough(block)
            return [nxt] if nxt is not None else []
        op = term.opcode
        if op is Opcode.RET:
            return []
        if op is Opcode.B:
            return [self.block(term.target)]
        # conditional branch: taken target, then fall-through
        succs = [self.block(term.target)]
        nxt = self.fallthrough(block)
        if nxt is not None and nxt is not succs[0]:
            succs.append(nxt)
        return succs

    def predecessors_map(self) -> dict[str, list[BasicBlock]]:
        """Map block label -> predecessor blocks."""
        preds: dict[str, list[BasicBlock]] = {b.label: [] for b in self.blocks}
        for block in self.blocks:
            for succ in self.successors(block):
                preds[succ.label].append(block)
        return preds

    def falls_off_end(self, block: BasicBlock) -> bool:
        """Does control leave the function via ``block``'s fall-through?

        True for the last block when it has no terminator, or when its
        terminator is a conditional branch (the not-taken path exits).
        """
        if self.fallthrough(block) is not None:
            return False
        term = block.terminator
        return term is None or term.opcode.is_conditional

    def exit_blocks(self) -> list[BasicBlock]:
        """Blocks from which control can leave the function."""
        exits = []
        for block in self.blocks:
            term = block.terminator
            if term is not None and term.opcode is Opcode.RET:
                exits.append(block)
            elif self.falls_off_end(block):
                exits.append(block)
        return exits

    def clone(self) -> "Function":
        """A deep copy with the same labels, layout, uids and counters.

        Unlike :meth:`Instruction.clone` (which resets uids so the copy can
        be re-emitted), this preserves every uid: the copy is a *snapshot*
        of the function, suitable as the "before" side of the schedule
        verifier, which matches instructions across the two functions by
        uid.
        """
        out = Function(self.name)
        out._next_uid = self._next_uid
        out._next_reg = list(self._next_reg)
        out._next_label = self._next_label
        for block in self.blocks:
            copy = out.add_block(block.label)
            for ins in block.instrs:
                dup = ins.clone()
                dup.uid = ins.uid
                copy.append(dup)
        return out

    def restore_from(self, snapshot: "Function") -> None:
        """Reset this function, in place, to a prior :meth:`clone`.

        The resilience layer's pass isolation uses this to roll back a
        failed transform: the ``Function`` object identity (held by
        callers and reports) survives, while its blocks, labels and
        counters revert to the snapshot's.  The snapshot is re-cloned so
        it stays pristine for further restores.
        """
        fresh = snapshot.clone()
        self.blocks = fresh.blocks
        self._labels = fresh._labels
        self._next_uid = fresh._next_uid
        self._next_reg = fresh._next_reg
        self._next_label = fresh._next_label

    # -- misc ------------------------------------------------------------------

    def size(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:
        return (f"<Function {self.name}: {len(self.blocks)} blocks, "
                f"{self.size()} instructions>")
