"""Forward control dependences (Section 4.1, after [FOW87] and [CHH89]).

A node ``B`` is *control dependent* on the CFG edge ``A -> C`` iff ``B``
postdominates ``C`` but does not postdominate ``A``.  Intuitively: the
condition at the end of ``A`` decides whether ``B`` executes.

Following [CHH89] (and Section 4.1), only the *forward* control dependence
graph is built: back edges are removed before the computation, so the result
is acyclic and describes a single iteration of the enclosing loop.

The computation: for every branch edge ``A -> C``, walk the postdominator
tree from ``C`` up to (but excluding) ``ipdom(A)``; every node on that walk
is control dependent on ``(A, C)``.  This is the classic linear-time FOW
construction.  It runs on the region's own postdominator tree
(:attr:`repro.pdg.RegionPDG.pdom`), the one tree the CSPDG's equivalence
classes also read, so a region builds it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from ..cfg.digraph import Digraph
from ..cfg.dominators import DominatorTree

Node = Hashable


@dataclass(frozen=True)
class ControlDep:
    """One control-dependence condition: the CFG edge ``branch -> succ``.

    Two blocks are *identically control dependent* (hence equivalent, in the
    forward graph) iff they carry the same set of ``ControlDep`` conditions.
    """

    branch: Node
    succ: Node

    def __repr__(self) -> str:
        return f"CDep({self.branch!r}->{self.succ!r})"


def forward_graph(graph: Digraph, dom: DominatorTree) -> Digraph:
    """A copy of ``graph`` with all back edges removed.

    A back edge is one whose target dominates its source.  On a reducible
    graph this removes exactly the loop-closing edges, leaving the acyclic
    forward CFG the paper computes control dependences on.
    """
    forward = Digraph()
    for node in graph.nodes:
        forward.add_node(node)
    for src, dst in graph.edges():
        if not dom.dominates(dst, src):
            forward.add_edge(src, dst)
    return forward


def control_dependences(
    forward: Digraph, pdom: DominatorTree
) -> dict[Node, frozenset[ControlDep]]:
    """Control-dependence sets of every node of the acyclic ``forward`` graph.

    ``pdom`` is the postdominator tree of ``forward``, rooted at its exit:
    every node must reach that exit (a region's forward graph sends each
    sink there), so every node has a place in the tree.  Returns a map
    ``node -> set of ControlDep``; nodes that always execute (e.g. the
    region header) map to the empty set.
    """
    deps: dict[Node, set[ControlDep]] = {n: set() for n in forward.nodes}
    for branch in forward.nodes:
        succs = forward.succs(branch)
        if len(succs) < 2:
            continue
        branch_parent = pdom.idom(branch)
        for succ in succs:
            # Walk the postdominator tree from succ towards the root,
            # stopping at ipdom(branch): every node strictly below it on
            # this path is controlled by the (branch -> succ) edge.
            runner = succ
            while runner != branch_parent and runner is not None:
                deps[runner].add(ControlDep(branch, succ))
                if runner == branch:
                    # Self-loop edge (branch postdominates itself); in a
                    # forward (acyclic) graph this cannot recurse further.
                    break
                runner = pdom.idom(runner)

    return {node: frozenset(s) for node, s in deps.items()}
