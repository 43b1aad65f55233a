"""The Program Dependence Graph of one *region* (Sections 4 and 5.1).

A region is either a loop body or a subroutine body without its enclosed
loops.  Its PDG bundles:

* the acyclic *forward* control flow graph of the region (back edges to the
  region header removed, nested inner loops collapsed to opaque *abstract
  nodes*, plus a virtual EXIT),
* dominator / postdominator trees of that forward graph,
* the CSPDG (control dependences, equivalence classes, speculation degrees),
* its reachability closure, as bitmasks over topological positions,
  which the interblock DDG pass, the live-on-exit tracker and the
  verifier all read,
* the instruction-level data dependence graph with machine delays, covering
  every ordered pair of reachable blocks.

Nested inner loops appear as single abstract nodes carrying a *barrier*
pseudo-instruction that defines/uses everything the loop touches; this
enforces "instructions are never moved out of or into a region" purely
through ordinary dependence edges, with no special cases in the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg.digraph import Digraph
from ..cfg.dominators import DominatorTree, dominator_tree, postdominator_tree
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction, defs_and_uses
from ..ir.opcodes import Opcode
from ..machine.model import MachineModel
from .cspdg import CSPDG
from .data_deps import DataDependenceGraph, build_region_ddg

#: Virtual exit node of a region's forward graph.
REGION_EXIT = "<region-exit>"


def abstract_label(header_label: str) -> str:
    """The node name a collapsed inner loop gets in the outer region."""
    return f"<loop {header_label}>"


@dataclass
class SubloopSummary:
    """What an outer region knows about one collapsed inner loop."""

    header: str
    #: labels of every block inside the loop (including nested ones)
    members: frozenset[str]
    #: the pseudo-instruction summarising the loop's effects
    barrier: Instruction
    #: pseudo-block holding the barrier, named with the abstract label
    pseudo_block: BasicBlock


def make_barrier(func: Function, header: str,
                 instrs: list[Instruction]) -> Instruction:
    """A pseudo-CALL that defines/uses everything ``instrs`` touch.

    As a call it conservatively conflicts with all memory traffic and is
    never a motion candidate, so dependence edges through it pin code on
    either side of the inner loop in place.
    """
    defs, uses = defs_and_uses(instrs)
    barrier = Instruction(
        Opcode.CALL,
        defs=tuple(sorted(defs, key=lambda r: (r.rclass.value, r.index))),
        uses=tuple(sorted(uses, key=lambda r: (r.rclass.value, r.index))),
        target=abstract_label(header),
        comment=f"opaque inner loop at {header}",
    )
    return func.assign_uid(barrier)


class RegionPDG:
    """PDG of one region, ready for the global scheduler."""

    def __init__(
        self,
        func: Function,
        machine: MachineModel,
        member_blocks: list[BasicBlock],
        header_label: str,
        subloops: list[SubloopSummary] = (),
        *,
        reduce_ddg: bool = True,
        ddg_builder=None,
    ):
        self.func = func
        self.machine = machine
        self.header = header_label
        self.blocks = list(member_blocks)
        self.subloops = list(subloops)
        self._member_labels = {b.label for b in self.blocks}
        self._abstract_of: dict[str, str] = {}
        for sub in self.subloops:
            for label in sub.members:
                self._abstract_of[label] = abstract_label(sub.header)
        self._pseudo_blocks = {
            abstract_label(s.header): s.pseudo_block for s in self.subloops
        }

        self.forward = self._build_forward_graph()
        self.dom: DominatorTree = dominator_tree(self.forward, header_label)
        self.pdom: DominatorTree = postdominator_tree(self.forward, REGION_EXIT)
        region_nodes = [
            n for n in self.forward.nodes if n != REGION_EXIT
        ]
        self.cspdg = CSPDG(
            self.forward, header_label, REGION_EXIT, self.dom, self.pdom,
            blocks=region_nodes,
        )
        self.topo_labels = [
            n for n in self.forward.topological_order(header_label)
            if n != REGION_EXIT
        ]
        #: node -> its index in :attr:`topo_labels`
        self.position = {n: i for i, n in enumerate(self.topo_labels)}
        #: per position, the positions reachable from it / reaching it by
        #: a non-empty forward path, as bitmasks
        self.down, self.up = self._closure()
        # module-global lookup by default so chaos tooling can swap the
        # builder; callers that must not see such patches (the schedule
        # verifier) inject their own ``ddg_builder``
        builder = ddg_builder if ddg_builder is not None else build_region_ddg
        self.ddg: DataDependenceGraph = builder(
            self._ddg_blocks(), self.up, machine, reduce=reduce_ddg,
        )

    # -- construction helpers ------------------------------------------------

    def _node_of(self, label: str) -> str | None:
        """Region-graph node for a CFG block label (None = outside region)."""
        if label in self._member_labels:
            return label
        return self._abstract_of.get(label)

    def _build_forward_graph(self) -> Digraph:
        graph = Digraph()
        graph.add_node(self.header)
        for block in self.blocks:
            graph.add_node(block.label)
        for pseudo in self._pseudo_blocks:
            graph.add_node(pseudo)
        graph.add_node(REGION_EXIT)

        region_cfg_labels = set(self._member_labels) | set(self._abstract_of)
        for label in region_cfg_labels:
            src_node = self._node_of(label)
            block = self.func.block(label)
            leaves_region = self.func.falls_off_end(block) or (
                block.terminator is not None
                and block.terminator.opcode is Opcode.RET
            )
            for succ in self.func.successors(block):
                dst_node = self._node_of(succ.label)
                if dst_node is None:
                    leaves_region = True
                    continue
                if dst_node == self.header:
                    continue  # back edge: dropped in the forward graph
                if src_node != dst_node:
                    graph.add_edge(src_node, dst_node)
            if leaves_region:
                graph.add_edge(src_node, REGION_EXIT)
        # Latches whose only successor was the header end up sink-less;
        # give every sink an EXIT edge so postdominators are well defined.
        for node in graph.nodes:
            if node != REGION_EXIT and not graph.succs(node):
                graph.add_edge(node, REGION_EXIT)
        return graph

    def _closure(self) -> tuple[list[int], list[int]]:
        """:attr:`down` in one reverse-topological pass and :attr:`up` in
        one topological pass: a node's successors all come later in the
        order and its predecessors earlier."""
        succs, preds = self.forward.adjacency()
        position = self.position
        labels = self.topo_labels
        down = [0] * len(labels)
        for i in range(len(labels) - 1, -1, -1):
            for succ in succs[labels[i]]:
                j = position.get(succ)  # REGION_EXIT has no position
                if j is not None:
                    down[i] |= down[j] | 1 << j
        up = [0] * len(labels)
        for i, label in enumerate(labels):
            for pred in preds[label]:
                j = position.get(pred)  # None: unreachable from the header
                if j is not None:
                    up[i] |= up[j] | 1 << j
        return down, up

    def _ddg_blocks(self) -> list[BasicBlock]:
        """Region blocks (real + pseudo) in forward topological order."""
        out: list[BasicBlock] = []
        for label in self.topo_labels:
            if label in self._member_labels:
                out.append(self.func.block(label))
            else:
                out.append(self._pseudo_blocks[label])
        return out

    # -- queries ---------------------------------------------------------------

    @property
    def member_labels(self) -> set[str]:
        return set(self._member_labels)

    def reaches(self, a: str, b: str) -> bool:
        """Does a non-empty forward path lead from ``a`` to ``b``?  False
        when either is not a node of the region graph."""
        i = self.position.get(a)
        j = self.position.get(b)
        return i is not None and j is not None and bool(self.down[i] >> j & 1)

    def is_abstract(self, node: str) -> bool:
        return node in self._pseudo_blocks

    def schedulable_labels(self) -> list[str]:
        """Real member blocks, in the order the scheduler visits them
        (topological order of the forward graph, Section 5.1)."""
        return [n for n in self.topo_labels if n in self._member_labels]

    def block(self, label: str) -> BasicBlock:
        if label in self._pseudo_blocks:
            return self._pseudo_blocks[label]
        return self.func.block(label)

    def __repr__(self) -> str:
        return (f"<RegionPDG header={self.header!r} "
                f"{len(self.blocks)} blocks, {len(self.subloops)} subloops>")
