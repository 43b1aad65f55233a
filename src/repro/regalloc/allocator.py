"""Chaitin-Briggs graph-coloring register allocation.

The standard build / simplify / (optimistic) select / spill loop:

1. build the interference graph (:mod:`repro.regalloc.interference`);
2. *simplify*: repeatedly remove a node with degree < K (it is trivially
   colourable); when none exists, remove the cheapest spill candidate
   anyway (Briggs' optimism: it may still get a colour);
3. *select*: pop nodes back, assigning the lowest machine register not
   used by an already-coloured neighbour;
4. any node that finds no colour is *spilled*: its value lives in a
   dedicated memory slot, every definition is followed by a store and
   every use preceded by a load of a fresh short-lived temporary; then
   the whole process repeats on the rewritten function.

K per class matches the RS/6000: 32 GPRs, 32 FPRs, 8 CRs.  Spill slots
are absolute addresses in a reserved region; their base is materialised
with ``LI`` (two extra instructions per access -- crude, but honest about
the cost the paper's register-allocation discussion alludes to).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dataflow.cache import AnalysisCache
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode
from ..ir.operand import MemRef, Reg, RegClass
from .interference import InterferenceGraph, build_interference, verify_coloring

#: machine registers available per class (the RS/6000 counts)
DEFAULT_K = {RegClass.GPR: 32, RegClass.FPR: 32, RegClass.CR: 8}

#: base address of the spill area in simulated memory
SPILL_BASE = 0x7F00_0000

#: give up after this many build/spill rounds (a safety valve; each round
#: strictly reduces live-range lengths)
_MAX_ROUNDS = 16


class AllocationError(RuntimeError):
    """Allocation failed (e.g. unspillable class ran out of registers)."""


@dataclass
class AllocationReport:
    """Outcome of register allocation."""

    #: symbolic register -> machine register (final round's mapping);
    #: coalesced registers map to their representative's machine register
    mapping: dict[Reg, Reg] = field(default_factory=dict)
    #: registers spilled to memory, in spill order
    spilled: list[Reg] = field(default_factory=list)
    #: (eliminated register, representative) pairs from move coalescing
    coalesced: list[tuple[Reg, Reg]] = field(default_factory=list)
    #: self-moves deleted after coalescing
    moves_removed: int = 0
    rounds: int = 0

    def machine_registers_used(self, rclass: RegClass) -> int:
        return len({r for r in self.mapping.values() if r.rclass is rclass})


def allocate_registers(
    func: Function,
    *,
    live_at_exit: frozenset[Reg] = frozenset(),
    k: dict[RegClass, int] | None = None,
    coalesce: bool = True,
) -> AllocationReport:
    """Allocate machine registers for ``func`` in place.

    ``live_at_exit`` registers keep their values observable: they are
    still renamed (and possibly coalesced), so callers must translate
    through ``report.mapping``.  ``coalesce`` enables Briggs conservative
    move coalescing, which also deletes the register moves it makes
    redundant.
    """
    k = {**DEFAULT_K, **(k or {})}
    report = AllocationReport()
    spill_slots: dict[Reg, int] = {}

    # one analysis cache for the whole allocation: every interference
    # build (each coalescing iteration, each spill round) shares the same
    # CFG, dense CSR snapshot and RegTable interning pass; mutations drop
    # only the liveness tier -- the block structure never changes here
    analyses = AnalysisCache(func)

    # values observed after the function returns cannot live in memory
    unspillable = set(live_at_exit)
    aliases: dict[Reg, Reg] = {}

    if coalesce:
        live_at_exit = _coalesce_moves(func, live_at_exit, k, aliases,
                                       report, analyses)
        unspillable = set(live_at_exit)

    for _round in range(_MAX_ROUNDS):
        report.rounds += 1
        graph = build_interference(func, live_at_exit=live_at_exit,
                                   analyses=analyses)
        mapping, spills = _color(graph, k, unspillable)
        if not spills:
            verify_coloring(graph, mapping)
            _apply_mapping(func, mapping)
            for eliminated, rep in aliases.items():
                resolved = rep
                while resolved in aliases:
                    resolved = aliases[resolved]
                if resolved in mapping:
                    mapping[eliminated] = mapping[resolved]
            report.mapping = mapping
            return report
        for reg in spills:
            if reg.rclass is not RegClass.GPR:
                raise AllocationError(
                    f"cannot spill {reg} ({reg.rclass.name}); "
                    f"only GPRs have spill code"
                )
            if reg in unspillable:
                raise AllocationError(
                    f"{reg} is live at function exit and cannot be spilled"
                )
            slot = spill_slots.setdefault(
                reg, SPILL_BASE + 8 * len(spill_slots))
            _spill(func, reg, slot)
            report.spilled.append(reg)
        # spill code only inserts loads/stores into existing blocks, so
        # the CFG-shape tier survives; the dataflow facts do not
        analyses.invalidate_liveness()
    raise AllocationError(
        f"no colouring after {_MAX_ROUNDS} spill rounds")


def _coalesce_moves(
    func: Function,
    live_at_exit: frozenset[Reg],
    k: dict[RegClass, int],
    aliases: dict[Reg, Reg],
    report: AllocationReport,
    analyses: AnalysisCache,
) -> frozenset[Reg]:
    """Briggs conservative coalescing.

    A move pair may merge when the combined node has fewer than K
    neighbours of significant (>= K) degree -- then colouring stays as
    easy as before.  Each merge renames the move's destination into its
    source everywhere and deletes the now self-referential move.
    """
    changed = True
    while changed:
        changed = False
        graph = build_interference(func, live_at_exit=live_at_exit,
                                   analyses=analyses)
        moves = sorted(graph.moves,
                       key=lambda m: (m[0].rclass.value, m[0].index,
                                      m[1].index))
        for dst, src in moves:
            if dst == src or dst.rclass is not src.rclass:
                continue
            limit = k.get(dst.rclass)
            if limit is None or graph.interferes(dst, src):
                continue
            combined = (graph.adjacency.get(dst, set())
                        | graph.adjacency.get(src, set())) - {dst, src}
            significant = sum(1 for n in combined
                              if graph.degree(n) >= limit)
            if significant >= limit:
                continue
            # merge: dst disappears into src
            rename = {dst: src}
            for ins in func.instructions():
                ins.rename_registers(rename)
            aliases[dst] = src
            report.coalesced.append((dst, src))
            for block in func.blocks:
                kept = []
                for ins in block.instrs:
                    if (ins.opcode in (Opcode.LR, Opcode.FMR)
                            and ins.defs == ins.uses):
                        report.moves_removed += 1
                        continue
                    kept.append(ins)
                block.instrs = kept
            if dst in live_at_exit:
                live_at_exit = frozenset(
                    (set(live_at_exit) - {dst}) | {src})
            # the merge renamed operands and deleted moves in place;
            # block structure (and so the CFG tier) is untouched
            analyses.invalidate_liveness()
            changed = True
            break  # the graph is stale: rebuild before the next merge
    return live_at_exit


def _color(graph: InterferenceGraph, k: dict[RegClass, int],
           unspillable: set[Reg]) -> tuple[dict[Reg, Reg], list[Reg]]:
    """One simplify/select pass; returns (mapping, actual spills)."""
    mapping: dict[Reg, Reg] = {}
    spills: list[Reg] = []
    for rclass, limit in k.items():
        nodes = graph.nodes_of_class(rclass)
        degrees = {r: graph.degree(r) for r in nodes}
        removed: set[Reg] = set()
        stack: list[Reg] = []
        work = set(nodes)
        while work:
            candidate = None
            for reg in sorted(work, key=lambda r: (degrees[r], r.index)):
                if degrees[reg] < limit:
                    candidate = reg
                    break
            if candidate is None:
                # spill candidate: highest degree first (Chaitin's cheap
                # heuristic); values live past the function's end must not
                # end their lives in a memory slot
                choices = [r for r in work if r not in unspillable] or \
                    list(work)
                candidate = max(sorted(choices, key=lambda r: r.index),
                                key=lambda r: degrees[r])
            work.discard(candidate)
            removed.add(candidate)
            stack.append(candidate)
            for neighbour in graph.adjacency[candidate]:
                if neighbour not in removed and neighbour in degrees:
                    degrees[neighbour] -= 1
        while stack:
            reg = stack.pop()
            taken = {
                mapping[n].index
                for n in graph.adjacency[reg]
                if n in mapping
            }
            colour = next((c for c in range(limit) if c not in taken), None)
            if colour is None:
                spills.append(reg)
            else:
                mapping[reg] = Reg(rclass, colour)
    return mapping, spills


def _apply_mapping(func: Function, mapping: dict[Reg, Reg]) -> None:
    for ins in func.instructions():
        ins.rename_registers(mapping)


def _spill(func: Function, reg: Reg, slot: int) -> None:
    """Rewrite every access to ``reg`` through its memory slot."""
    for block in func.blocks:
        rewritten: list[Instruction] = []
        for ins in block.instrs:
            uses_reg = reg in ins.reg_uses()
            defines_reg = reg in ins.reg_defs()
            if uses_reg:
                temp = func.new_gpr()
                addr = func.new_gpr()
                li = Instruction(Opcode.LI, defs=(addr,), imm=slot,
                                 comment=f"spill addr {reg}")
                load = Instruction(Opcode.L, defs=(temp,), uses=(addr,),
                                   mem=MemRef(addr, 0, symbol="spill"),
                                   comment=f"reload {reg}")
                func.assign_uid(li)
                func.assign_uid(load)
                rewritten.extend([li, load])
                ins.rename_uses_of(reg, temp)
            rewritten.append(ins)
            if defines_reg:
                out = func.new_gpr()
                ins.defs = tuple(out if r == reg else r for r in ins.defs)
                addr = func.new_gpr()
                li = Instruction(Opcode.LI, defs=(addr,), imm=slot,
                                 comment=f"spill addr {reg}")
                store = Instruction(Opcode.ST, uses=(out, addr),
                                    mem=MemRef(addr, 0, symbol="spill"),
                                    comment=f"spill {reg}")
                func.assign_uid(li)
                func.assign_uid(store)
                rewritten.extend([li, store])
        block.instrs = rewritten
