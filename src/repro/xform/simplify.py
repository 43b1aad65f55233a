"""Control-flow cleanup: jump threading, fall-through folding, merging.

The paper's BASE compiler performs "all the possible machine independent
and peephole optimizations"; structured lowering, by contrast, produces
empty join blocks and jumps-to-jumps.  This pass normalises the CFG so the
generated minmax loop matches Figure 2 block for block:

1. *thread* branches whose target block is empty or holds a single
   unconditional jump;
2. delete unconditional branches to the layout fall-through block;
3. remove unreachable blocks;
4. merge a block into its unique predecessor when control can only flow
   between them.

Runs to a fixed point; preserves semantics (checked by the property tests
against the functional executor).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.function import Function
from ..ir.opcodes import Opcode

#: rounds of simplification before giving up on reaching a fixed point
MAX_ROUNDS = 20


@dataclass
class SimplifyReport:
    threaded: int = 0
    folded_jumps: int = 0
    removed_blocks: int = 0
    merged_blocks: int = 0

    @property
    def total(self) -> int:
        return (self.threaded + self.folded_jumps + self.removed_blocks
                + self.merged_blocks)


def simplify_cfg(func: Function) -> SimplifyReport:
    """Simplify ``func`` in place until nothing changes (at most
    :data:`MAX_ROUNDS` rounds)."""
    report = SimplifyReport()
    for _ in range(MAX_ROUNDS):
        changed = 0
        changed += _thread_jumps(func, report)
        changed += _fold_fallthrough_jumps(func, report)
        changed += _remove_unreachable(func, report)
        changed += _merge_chains(func, report)
        if not changed:
            break
    return report


def _final_target(func: Function, label: str) -> str:
    """Follow empty blocks and trivial ``B`` blocks to the real target."""
    seen = {label}
    while True:
        block = func.block(label)
        if not block.instrs:
            nxt = func.fallthrough(block)
            if nxt is None or nxt.label in seen:
                return label
            label = nxt.label
        elif (len(block.instrs) == 1
              and block.instrs[0].opcode is Opcode.B):
            nxt_label = block.instrs[0].target
            if nxt_label in seen:
                return label
            label = nxt_label
        else:
            return label
        seen.add(label)


def _thread_jumps(func: Function, report: SimplifyReport) -> int:
    changed = 0
    for block in func.blocks:
        term = block.terminator
        if term is None or term.target is None:
            continue
        if term.opcode is Opcode.BDNZ or term.opcode is Opcode.CALL:
            continue
        final = _final_target(func, term.target)
        if final != term.target:
            term.target = final
            report.threaded += 1
            changed += 1
    return changed


def _fold_fallthrough_jumps(func: Function, report: SimplifyReport) -> int:
    changed = 0
    for block in func.blocks:
        term = block.terminator
        if term is not None and term.opcode is Opcode.B:
            nxt = func.fallthrough(block)
            if nxt is not None and nxt.label == term.target:
                block.remove(term)
                report.folded_jumps += 1
                changed += 1
    return changed


def _remove_unreachable(func: Function, report: SimplifyReport) -> int:
    reached: set[str] = set()
    stack = [func.entry]
    while stack:
        block = stack.pop()
        if block.label in reached:
            continue
        reached.add(block.label)
        stack.extend(func.successors(block))
    dead = [b for b in func.blocks if b.label not in reached]
    for block in dead:
        func.remove_block(block)
        report.removed_blocks += 1
    return len(dead)


def _merge_chains(func: Function, report: SimplifyReport) -> int:
    """Merge ``B`` into ``A`` when A's only way out is into B and B's only
    way in is from A (and A doesn't end the function)."""
    changed = 0
    preds = func.predecessors_map()
    for block in list(func.blocks):
        if not func.has_block(block.label):
            continue  # already merged away in this round
        succ_list = func.successors(block)
        if len(succ_list) != 1:
            continue
        succ = succ_list[0]
        if succ is block or len(preds[succ.label]) != 1:
            continue
        term = block.terminator
        if term is not None and term.opcode is not Opcode.B:
            continue  # conditional/RET terminators stay put
        # A single successor via fall-through or via an unconditional B.
        if term is not None:
            block.remove(term)
        elif func.fallthrough(block) is not succ:
            continue  # cannot happen given len(succs) == 1, but be safe
        block.instrs.extend(succ.instrs)
        func.remove_block(succ)
        report.merged_blocks += 1
        changed += 1
        preds = func.predecessors_map()
    return changed
