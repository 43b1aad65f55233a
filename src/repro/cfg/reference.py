"""Reference (seed) implementations of the CFG-layer analyses.

The dense analysis core re-hosted :class:`repro.cfg.dominators.DominatorTree`,
:func:`repro.cfg.loops.is_reducible` and :class:`repro.cfg.loops.LoopNest` on
``array('i')`` rows over int node indices.  This module preserves the seed's
dict-of-nodes implementations verbatim, as equivalence oracles for the
property suite (``tests/dataflow/test_dense_equivalence.py``).

:func:`repro.dataflow.reference.reference_analyses` patches the dense
implementations out for the duration of a ``with`` block.
"""

from __future__ import annotations

from typing import Hashable

from .digraph import Digraph
from .loops import Loop, back_edges, natural_loop

Node = Hashable


class DominatorTreeReference:
    """Immediate-dominator tree of the subgraph reachable from ``root``.

    Verbatim seed implementation: Cooper-Harvey-Kennedy over dicts keyed
    by node objects.
    """

    def __init__(self, graph: Digraph, root: Node):
        self.root = root
        self._rpo = graph.rpo(root)
        self._index = {node: i for i, node in enumerate(self._rpo)}
        self._idom: dict[Node, Node] = {root: root}
        self._compute(graph)
        self._children: dict[Node, list[Node]] = {n: [] for n in self._rpo}
        for node in self._rpo:
            if node != root:
                self._children[self._idom[node]].append(node)
        # depth of each node in the dominator tree, for O(depth) queries
        self._depth: dict[Node, int] = {root: 0}
        for node in self._rpo[1:]:
            self._depth[node] = self._depth[self._idom[node]] + 1

    def _compute(self, graph: Digraph) -> None:
        index = self._index
        idom = self._idom

        def intersect(a: Node, b: Node) -> Node:
            while a != b:
                while index[a] > index[b]:
                    a = idom[a]
                while index[b] > index[a]:
                    b = idom[b]
            return a

        changed = True
        while changed:
            changed = False
            for node in self._rpo[1:]:
                processed = [p for p in graph.preds(node)
                             if p in idom and p in index]
                if not processed:
                    continue
                new_idom = processed[0]
                for pred in processed[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom.get(node) != new_idom:
                    idom[node] = new_idom
                    changed = True

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """All nodes reachable from the root, in reverse postorder."""
        return list(self._rpo)

    def idom(self, node: Node) -> Node | None:
        """Immediate dominator (``None`` for the root)."""
        if node == self.root:
            return None
        return self._idom[node]

    def children(self, node: Node) -> list[Node]:
        return list(self._children[node])

    def depth(self, node: Node) -> int:
        return self._depth[node]

    def dominates(self, a: Node, b: Node) -> bool:
        """Does ``a`` dominate ``b``?  (Reflexive: a node dominates itself.)"""
        if a not in self._depth or b not in self._depth:
            return False
        while self._depth[b] > self._depth[a]:
            b = self._idom[b]
        return a == b

    def strictly_dominates(self, a: Node, b: Node) -> bool:
        return a != b and self.dominates(a, b)

    def dominators_of(self, node: Node) -> list[Node]:
        """All dominators of ``node``, from the node up to the root."""
        out = [node]
        while node != self.root:
            node = self._idom[node]
            out.append(node)
        return out


def is_reducible_reference(graph: Digraph, dom) -> bool:
    """Seed reducibility test: copy the graph minus back edges, toposort."""
    backs = set(back_edges(graph, dom))
    forward = Digraph()
    for node in graph.nodes:
        forward.add_node(node)
    for edge in graph.edges():
        if edge not in backs:
            forward.add_edge(*edge)
    try:
        forward.topological_order(dom.root)
    except ValueError:
        return False
    return True


class LoopNestReference:
    """The loop nesting forest of a CFG (seed set-per-loop implementation)."""

    def __init__(self, graph: Digraph, dom):
        self.graph = graph
        self.dom = dom
        self.loops: list[Loop] = []
        self._loop_of_header: dict[Node, Loop] = {}
        self._build()

    def _build(self) -> None:
        by_header: dict[Node, Loop] = {}
        # the backward body walk can pull in forward-unreachable
        # predecessors; clamp to nodes the dominator tree knows about
        reachable = set(self.dom.nodes)
        for latch, header in back_edges(self.graph, self.dom):
            body = natural_loop(self.graph, latch, header) & reachable
            if header in by_header:
                by_header[header].body |= body
                by_header[header].latches.append(latch)
            else:
                by_header[header] = Loop(header, body, [latch])
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
        return f"<LoopNestReference {len(self.loops)} loops>"


def _cfg_reference_patches() -> list[tuple]:
    """(module, attribute, reference value) triples restoring the seed
    CFG analyses, for
    :func:`repro.dataflow.reference.reference_analyses`."""
    from ..dataflow import cache as dataflow_cache
    from ..sched import regions as sched_regions
    from ..xform import ctr as xform_ctr
    from ..xform import strength as xform_strength
    from . import dominators as dominators_mod

    return [
        (dominators_mod, "_IMPL", DominatorTreeReference),
        (dataflow_cache, "LoopNest", LoopNestReference),
        (sched_regions, "LoopNest", LoopNestReference),
        (sched_regions, "is_reducible", is_reducible_reference),
        (xform_strength, "LoopNest", LoopNestReference),
        (xform_ctr, "LoopNest", LoopNestReference),
    ]
