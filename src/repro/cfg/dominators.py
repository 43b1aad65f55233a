"""Dominator and postdominator trees.

Definitions 1-3 of the paper:

* ``A`` *dominates* ``B`` iff ``A`` appears on every path from ENTRY to ``B``;
* ``B`` *postdominates* ``A`` iff ``B`` appears on every path from ``A`` to
  EXIT;
* ``A`` and ``B`` are *equivalent* iff ``A`` dominates ``B`` and ``B``
  postdominates ``A`` (the precondition for *useful* code motion,
  Definition 4).

The implementation is the Cooper-Harvey-Kennedy iterative algorithm ("A
Simple, Fast Dominance Algorithm"), which runs in near-linear time on
reducible CFGs and is correct on arbitrary graphs.  Postdominators are
dominators of the reverse graph rooted at EXIT.

CHK is designed for exactly the dense form used here: nodes are interned
to their reverse-postorder index once, predecessor lists become flat int
rows, and the idom/depth relations are int lists indexed by RPO position
-- the two-finger ``intersect`` walk then compares machine ints instead
of hashing node objects.  ``tests/dataflow/test_dense_equivalence.py``
holds the tree to Definition 1 itself: ``d`` dominates ``n`` iff ``n`` is
unreachable from the root once ``d`` is removed.
"""

from __future__ import annotations

from typing import Hashable

from .digraph import Digraph

Node = Hashable


class DominatorTree:
    """Immediate-dominator tree of the subgraph reachable from ``root``."""

    __slots__ = ("root", "_rpo", "_index", "_idom_arr", "_depth_arr",
                 "_children_idx")

    def __init__(self, graph: Digraph, root: Node):
        self.root = root
        rpo = self._rpo = graph.rpo(root)
        index = self._index = {node: i for i, node in enumerate(rpo)}
        n = len(rpo)

        # reachable predecessors by RPO index (zero-copy adjacency view;
        # plain int lists index faster than array('i') in the CHK loop)
        _, pred_map = graph.adjacency()
        get = index.get
        pred_rows = [
            [i for p in pred_map[node] if (i := get(p)) is not None]
            for node in rpo
        ]

        idom = self._idom_arr = [-1] * n
        if n:
            idom[0] = 0
        changed = n > 1
        while changed:
            changed = False
            for v in range(1, n):
                new_idom = -1
                for p in pred_rows[v]:
                    if idom[p] < 0:
                        continue  # predecessor not processed yet
                    if new_idom < 0:
                        new_idom = p
                    elif p != new_idom:
                        # two-finger intersect on RPO indices
                        a, b = p, new_idom
                        while a != b:
                            while a > b:
                                a = idom[a]
                            while b > a:
                                b = idom[b]
                        new_idom = a
                if new_idom >= 0 and idom[v] != new_idom:
                    idom[v] = new_idom
                    changed = True

        # the idom of a node always precedes it in RPO, so depth fills in
        # one forward pass
        depth = self._depth_arr = [0] * n
        for v in range(1, n):
            depth[v] = depth[idom[v]] + 1
        self._children_idx: list[list[int]] | None = None

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        """All nodes reachable from the root, in reverse postorder."""
        return list(self._rpo)

    def idom(self, node: Node) -> Node | None:
        """Immediate dominator (``None`` for the root)."""
        if node == self.root:
            return None
        return self._rpo[self._idom_arr[self._index[node]]]

    def _children_rows(self) -> list[list[int]]:
        rows = self._children_idx
        if rows is None:
            rows = self._children_idx = [[] for _ in self._rpo]
            idom = self._idom_arr
            for v in range(1, len(self._rpo)):
                rows[idom[v]].append(v)
        return rows

    def children(self, node: Node) -> list[Node]:
        rpo = self._rpo
        return [rpo[c] for c in self._children_rows()[self._index[node]]]

    def depth(self, node: Node) -> int:
        return self._depth_arr[self._index[node]]

    def dominates(self, a: Node, b: Node) -> bool:
        """Does ``a`` dominate ``b``?  (Reflexive: a node dominates itself.)"""
        index = self._index
        ia = index.get(a)
        ib = index.get(b)
        if ia is None or ib is None:
            return False
        depth = self._depth_arr
        idom = self._idom_arr
        da = depth[ia]
        while depth[ib] > da:
            ib = idom[ib]
        return ia == ib

    def strictly_dominates(self, a: Node, b: Node) -> bool:
        return a != b and self.dominates(a, b)

    def dominators_of(self, node: Node) -> list[Node]:
        """All dominators of ``node``, from the node up to the root."""
        rpo = self._rpo
        idom = self._idom_arr
        v = self._index[node]
        out = [rpo[v]]
        while v != 0:
            v = idom[v]
            out.append(rpo[v])
        return out


def dominator_tree(graph: Digraph, entry: Node) -> DominatorTree:
    """Dominator tree of ``graph`` rooted at ``entry``."""
    return DominatorTree(graph, entry)


def postdominator_tree(graph: Digraph, exit_node: Node) -> DominatorTree:
    """Postdominator tree: dominators of the reversed graph from EXIT.

    ``tree.dominates(b, a)`` then answers "``b`` postdominates ``a``".
    """
    return DominatorTree(graph.reversed(), exit_node)
