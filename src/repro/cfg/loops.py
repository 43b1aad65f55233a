"""Back edges, natural loops, the loop nesting forest, and reducibility.

The paper schedules *regions*: "a region represents either a strongly
connected component that corresponds to a loop (which has at least one back
edge) or a body of a subroutine without the enclosed loops" (Section 5.1),
and assumes reducible control flow ("the assumption of a control flow graph
having a single entry corresponds to the assumption that the control flow
graph is reducible", Section 4.1).

A *back edge* is an edge ``u -> h`` whose target dominates its source; the
*natural loop* of the back edge is ``h`` plus every node that can reach ``u``
without passing through ``h``.  Loops sharing a header are merged.  The CFG
is reducible iff deleting all back edges leaves an acyclic graph.

Like the dominator tree, the detectors run dense: nodes are interned to
int indices once, loop bodies accumulate as int bitmasks (one OR per
merged back edge) and the reducibility DFS walks flattened int successor
rows instead of copying the graph.
``tests/dataflow/test_dense_equivalence.py`` checks each loop against the
natural loop of its back edges, and reducibility against the definition
above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from .digraph import Digraph
from .dominators import DominatorTree

Node = Hashable


@dataclass
class Loop:
    """A natural loop: single-entry strongly connected region."""

    header: Node
    #: all nodes in the loop, header included
    body: set[Node]
    #: sources of the back edges targeting the header
    latches: list[Node]
    parent: "Loop | None" = None
    children: list["Loop"] = field(default_factory=list)

    @property
    def depth(self) -> int:
        """Nesting depth; 1 for an outermost loop."""
        depth, loop = 1, self
        while loop.parent is not None:
            depth += 1
            loop = loop.parent
        return depth

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def __contains__(self, node: Node) -> bool:
        return node in self.body

    def __repr__(self) -> str:
        return (f"<Loop header={self.header!r} |body|={len(self.body)} "
                f"depth={self.depth}>")


def back_edges(graph: Digraph, dom: DominatorTree) -> list[tuple[Node, Node]]:
    """All edges whose target dominates their source."""
    result = []
    for src, dst in graph.edges():
        if dom.dominates(dst, src):
            result.append((src, dst))
    return result


def natural_loop(graph: Digraph, latch: Node, header: Node) -> set[Node]:
    """Body of the natural loop of back edge ``latch -> header``."""
    body = {header, latch}
    stack = [latch] if latch != header else []
    while stack:
        node = stack.pop()
        for pred in graph.preds(node):
            if pred not in body:
                body.add(pred)
                stack.append(pred)
    return body


def is_reducible(graph: Digraph, dom: DominatorTree) -> bool:
    """Is the graph reducible (all cycles entered through their headers)?

    Drop every back edge, then look for a retreating edge w.r.t. a DFS
    reverse postorder from the root -- one exists iff a cycle survived.
    Runs on the dominator tree's int rows.
    """
    idom = dom._idom_arr
    index = dom._index
    depth = dom._depth_arr
    rpo = dom._rpo
    n = len(rpo)
    if n == 0:
        return True
    succ_map, _ = graph.adjacency()
    succs_f: list[list[int]] = []
    for v, node in enumerate(rpo):
        row = []
        for s in succ_map[node]:
            j = index.get(s)
            if j is None:
                continue  # edge into an unreachable node: never on a cycle
            a, b = j, v
            da = depth[a]
            while depth[b] > da:
                b = idom[b]
            if a == b:
                continue  # back edge: dropped
            row.append(j)
        succs_f.append(row)
    # DFS reverse postorder over the filtered rows (removing back edges
    # preserves reachability: any walk through u->h has already visited h)
    seen = bytearray(n)
    seen[0] = 1
    order: list[int] = []
    stack: list = [(0, iter(succs_f[0]))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for s in it:
            if not seen[s]:
                seen[s] = 1
                stack.append((s, iter(succs_f[s])))
                advanced = True
                break
        if not advanced:
            order.append(v)
            stack.pop()
    pos = [n] * n
    for i, v in enumerate(reversed(order)):
        pos[v] = i
    for v in order:
        pv = pos[v]
        for d in succs_f[v]:
            if pos[d] <= pv:
                return False  # retreating edge: a cycle survived
    return True


class LoopNest:
    """The loop nesting forest of a CFG."""

    def __init__(self, graph: Digraph, dom: DominatorTree):
        self.graph = graph
        self.dom = dom
        self.loops: list[Loop] = []
        self._loop_of_header: dict[Node, Loop] = {}
        self._build()

    def _build(self) -> None:
        dom = self.dom
        graph = self.graph
        # all graph nodes (not just reachable ones): the backward body
        # walk must run through forward-unreachable predecessors exactly
        # like the seed's, and only then clamp to the reachable set
        succ_map, pred_map = graph.adjacency()
        nodes_all = list(succ_map)
        gindex = {node: i for i, node in enumerate(nodes_all)}
        preds_idx = [
            [gindex[p] for p in pred_map[node]] for node in nodes_all
        ]
        reachable_mask = 0
        for node in dom.nodes:
            reachable_mask |= 1 << gindex[node]

        by_header: dict[Node, Loop] = {}
        masks: dict[Node, int] = {}
        for latch, header in back_edges(graph, dom):
            h = gindex[header]
            l = gindex[latch]
            seed = masks.get(header, 0)
            mask = seed | (1 << h) | (1 << l)
            stack = [l] if l != h else []
            while stack:
                v = stack.pop()
                for p in preds_idx[v]:
                    bit = 1 << p
                    if not mask & bit:
                        mask |= bit
                        stack.append(p)
            if header in by_header:
                masks[header] = mask
                by_header[header].latches.append(latch)
            else:
                by_header[header] = Loop(header, set(), [latch])
                masks[header] = mask
        for header, loop in by_header.items():
            m = masks[header] & reachable_mask
            body = loop.body
            while m:
                low = m & -m
                body.add(nodes_all[low.bit_length() - 1])
                m ^= low
        self.loops = sorted(by_header.values(), key=lambda l: len(l.body))
        self._loop_of_header = by_header
        # nest: each loop's parent is the smallest strictly-containing loop
        for i, inner in enumerate(self.loops):
            for outer in self.loops[i + 1:]:
                if inner.header in outer.body and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break

    # -- queries ---------------------------------------------------------

    @property
    def top_level(self) -> list[Loop]:
        return [l for l in self.loops if l.parent is None]

    def loop_with_header(self, header: Node) -> Loop | None:
        return self._loop_of_header.get(header)

    def innermost_containing(self, node: Node) -> Loop | None:
        """The smallest loop whose body contains ``node``."""
        best: Loop | None = None
        for loop in self.loops:  # sorted by body size ascending
            if node in loop.body:
                best = loop
                break
        return best

    def loops_innermost_first(self) -> list[Loop]:
        """All loops ordered so every loop precedes its ancestors."""
        order: list[Loop] = []
        seen: set[int] = set()

        def visit(loop: Loop) -> None:
            for child in loop.children:
                visit(child)
            if id(loop) not in seen:
                seen.add(id(loop))
                order.append(loop)

        for loop in self.top_level:
            visit(loop)
        return order

    def __repr__(self) -> str:
        return f"<LoopNest {len(self.loops)} loops>"
