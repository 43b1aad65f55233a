"""Interference graphs from instruction-level liveness.

Section 2: "during the register allocation phase of the compiler, the
symbolic registers are mapped onto the real machine registers, using one
of the standard (coloring) algorithms."  This module builds the input to
that coloring: two symbolic registers *interfere* when one is defined
while the other is live (they can never share a machine register).

Move instructions (``LR rd = rs``) get the classic special case: the
definition does not interfere with its own source, leaving the coalescing
opportunity open.
"""

from __future__ import annotations

from ..cfg.graph import ControlFlowGraph
from ..dataflow.liveness import LivenessInfo, compute_liveness
from ..ir.function import Function
from ..ir.opcodes import Opcode
from ..ir.operand import Reg, RegClass


class InterferenceGraph:
    """Undirected interference edges, per register class."""

    def __init__(self) -> None:
        #: register -> set of interfering registers (same class)
        self.adjacency: dict[Reg, set[Reg]] = {}
        #: move pairs (dst, src) seen -- coalescing candidates
        self.moves: set[tuple[Reg, Reg]] = set()

    def add_node(self, reg: Reg) -> None:
        self.adjacency.setdefault(reg, set())

    def add_edge(self, a: Reg, b: Reg) -> None:
        if a == b or a.rclass is not b.rclass:
            return
        self.adjacency.setdefault(a, set()).add(b)
        self.adjacency.setdefault(b, set()).add(a)

    def interferes(self, a: Reg, b: Reg) -> bool:
        return b in self.adjacency.get(a, ())

    def degree(self, reg: Reg) -> int:
        return len(self.adjacency.get(reg, ()))

    def nodes_of_class(self, rclass: RegClass) -> list[Reg]:
        return [r for r in self.adjacency if r.rclass is rclass]


def build_interference(
    func: Function,
    *,
    live_at_exit: frozenset[Reg] = frozenset(),
    liveness: LivenessInfo | None = None,
    analyses=None,
) -> InterferenceGraph:
    """Build the interference graph of ``func``.

    ``analyses`` (an :class:`repro.dataflow.cache.AnalysisCache`) shares
    the function's liveness solve with the caller; the allocator threads
    one cache through every coalescing iteration and spill round.
    Without it the builder derives a private solve.
    """
    if liveness is None:
        if analyses is not None:
            liveness = analyses.liveness(live_at_exit)
        else:
            liveness = compute_liveness(func, live_at_exit,
                                        ControlFlowGraph(func))
    graph = InterferenceGraph()
    for ins in func.instructions():
        for reg in (*ins.reg_defs(), *ins.reg_uses()):
            if reg.rclass is not RegClass.CTR:
                graph.add_node(reg)

    for block in func.blocks:
        live: set[Reg] = set(liveness.live_out(block))
        for ins in reversed(block.instrs):
            defs = [r for r in ins.reg_defs() if r.rclass is not RegClass.CTR]
            uses = [r for r in ins.reg_uses() if r.rclass is not RegClass.CTR]
            is_move = ins.opcode in (Opcode.LR, Opcode.FMR)
            if is_move and defs and uses:
                graph.moves.add((defs[0], uses[0]))
            for d in defs:
                for other in live:
                    if is_move and uses and other == uses[0]:
                        continue  # LR rd=rs: rd and rs may share a colour
                    graph.add_edge(d, other)
                # simultaneous definitions (LU) interfere with each other
                for d2 in defs:
                    graph.add_edge(d, d2)
            live.difference_update(defs)
            live.update(uses)
    return graph


def verify_coloring(graph: InterferenceGraph,
                    mapping: dict[Reg, Reg]) -> None:
    """Assert that ``mapping`` assigns distinct machine registers to every
    interfering pair (used by the allocator's self-check and the tests)."""
    for reg, neighbours in graph.adjacency.items():
        for other in neighbours:
            if reg in mapping and other in mapping:
                if mapping[reg] == mapping[other]:
                    raise AssertionError(
                        f"{reg} and {other} interfere but both map to "
                        f"{mapping[reg]}"
                    )
