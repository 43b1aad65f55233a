"""The control subgraph of the PDG (CSPDG), Figure 4 of the paper.

Nodes are the basic blocks of a region; a solid edge ``A -> B`` (labelled
with a condition) means ``B`` executes iff the condition at the end of ``A``
takes the corresponding outcome.  Dashed edges connect *equivalent* nodes
(identically control dependent), directed by dominance.

The CSPDG answers the scheduler's three questions:

* ``EQUIV(A)`` -- which blocks are equivalent to ``A`` and dominated by it
  (sources of *useful* code motion, Definitions 3-4);
* the immediate CSPDG successors of ``A`` -- sources of *1-branch
  speculative* motion (Definition 7 with ``n = 1``);
* ``speculation_degree(A, B)`` -- how many branches a motion from ``B`` to
  ``A`` gambles on (the CSPDG path length, Definition 7).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from ..cfg.digraph import Digraph
from ..cfg.dominators import DominatorTree
from .control_deps import ControlDep, control_dependences

Node = Hashable

#: Optional pretty-printer for edge conditions (e.g. "T"/"F").
EdgeLabeller = Callable[[Node, Node], str]


class CSPDG:
    """Control subgraph of the PDG for one region."""

    def __init__(
        self,
        forward: Digraph,
        entry: Node,
        exit_node: Node,
        dom: DominatorTree,
        pdom: DominatorTree,
        *,
        blocks: list[Node] | None = None,
    ):
        """Build from an acyclic forward graph.

        ``dom``/``pdom`` are the (post)dominator trees of the same forward
        graph; ``blocks`` restricts the public node set (e.g. to exclude the
        virtual ENTRY/EXIT and abstract loop nodes).
        """
        self.entry = entry
        self.exit = exit_node
        self.dom = dom
        self.pdom = pdom
        self._cd = control_dependences(forward, pdom)
        self.blocks: list[Node] = list(
            blocks if blocks is not None
            else [n for n in forward.nodes if n not in (entry, exit_node)]
        )
        block_set = set(self.blocks)

        # Solid edges: branch -> dependent node.
        self._succs: dict[Node, list[tuple[Node, ControlDep]]] = {
            n: [] for n in self.blocks
        }
        for node in self.blocks:
            for dep in sorted(self._cd[node], key=repr):
                if dep.branch in block_set:
                    self._succs[dep.branch].append((node, dep))

        # Equivalence classes: identical control-dependence sets.
        by_cd: dict[frozenset[ControlDep], list[Node]] = {}
        for node in self.blocks:
            by_cd.setdefault(self._cd[node], []).append(node)
        self._classes = [
            sorted(members, key=self.dom.depth)
            for members in by_cd.values()
        ]
        self._class_of: dict[Node, list[Node]] = {}
        for cls in self._classes:
            for node in cls:
                self._class_of[node] = cls

    # -- queries -----------------------------------------------------------

    def control_deps(self, node: Node) -> frozenset[ControlDep]:
        """The conditions under which ``node`` executes."""
        return self._cd[node]

    def successors(self, node: Node) -> list[Node]:
        """Immediate CSPDG successors: blocks control dependent on ``node``."""
        seen: list[Node] = []
        for succ, _dep in self._succs[node]:
            if succ not in seen and succ != node:
                seen.append(succ)
        return seen

    def edges(self) -> list[tuple[Node, Node, ControlDep]]:
        """All solid edges as (branch, dependent, condition)."""
        return [
            (branch, node, dep)
            for branch, out in self._succs.items()
            for node, dep in out
        ]

    @property
    def equivalence_classes(self) -> list[list[Node]]:
        """Equivalent-node groups, each sorted by dominance (dominators
        first) -- the paper's dashed edges run along this order."""
        return [list(cls) for cls in self._classes]

    def equivalent_nodes(self, node: Node) -> list[Node]:
        """All nodes identically control dependent with ``node`` (incl. it)."""
        return list(self._class_of[node])

    def equiv_dominated(self, node: Node) -> list[Node]:
        """The paper's ``EQUIV(A)``: blocks equivalent to ``A`` *and*
        dominated by ``A`` (Section 5.1), in dominance order."""
        return [
            other
            for other in self._class_of[node]
            if other != node and self.dom.strictly_dominates(node, other)
        ]

    def are_equivalent(self, a: Node, b: Node) -> bool:
        """Definition 3 via identical control dependences."""
        return self._class_of.get(a) is self._class_of.get(b)

    def speculation_degree(self, src: Node, dst: Node) -> int | None:
        """Length of the shortest CSPDG path ``src -> dst`` (Definition 7).

        0 means equivalent placement is possible without gambling (src == dst
        or same class); ``None`` means no CSPDG path exists, i.e. moving
        from ``dst`` to ``src`` is not an upward motion along control
        dependences (it would require duplication instead).
        """
        if src == dst or self.are_equivalent(src, dst):
            return 0
        # BFS over solid edges; equivalence is a free (0-cost) move, so the
        # search expands whole equivalence classes at each step.
        start = set(self._class_of[src])
        dist: dict[Node, int] = {n: 0 for n in start}
        queue: deque[Node] = deque(start)
        while queue:
            node = queue.popleft()
            for succ in self.successors(node):
                for member in self._class_of[succ]:
                    if member not in dist:
                        dist[member] = dist[node] + 1
                        queue.append(member)
                if dst in dist:
                    return dist[dst]
        return dist.get(dst)

    # -- rendering ------------------------------------------------------------

    def format(self, labeller: EdgeLabeller | None = None) -> str:
        """A textual rendering of Figure 4: solid and dashed edges."""
        lines = ["CSPDG:"]
        for branch, out in self._succs.items():
            for node, dep in out:
                label = labeller(dep.branch, dep.succ) if labeller else str(dep.succ)
                lines.append(f"  {branch} --[{label}]--> {node}")
        for cls in self._classes:
            for a, b in zip(cls, cls[1:]):
                lines.append(f"  {a} ~~(equiv)~~> {b}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<CSPDG {len(self.blocks)} blocks, "
                f"{len(self.edges())} edges, "
                f"{len(self._classes)} equivalence classes>")
