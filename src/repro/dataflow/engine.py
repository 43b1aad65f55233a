"""Fixed-point solvers for backward may-dataflow (liveness).

Two dialects share the file:

* :func:`solve_backward_masks` -- the dense engine the compiler runs on.
  Facts are int bitmasks (registers interned to bit positions), blocks
  are int indices into a :class:`repro.cfg.dense.DenseCFG` CSR snapshot,
  and gen/kill transfer is two machine-int ops; the meet is a big-int OR.
* :func:`solve_backward` -- the seed's generic set-based worklist solver,
  kept as the public API for arbitrary transfer functions (and as the
  substrate of the liveness oracle in :mod:`repro.dataflow.reference`).

Both dialects visit *every* node (the mask solver sweeps, the set solver
runs a worklist), so blocks that reach no exit still reach the same fixed
point, and a unique least fixed point makes the two provably
order-insensitive -- the property the equivalence suite pins down.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

from ..cfg.digraph import Digraph

Node = Hashable
T = TypeVar("T")

#: A transfer function mapping (node, in_set) -> out_set.
Transfer = Callable[[Node, frozenset], frozenset]


def solve_backward(
    graph: Digraph,
    nodes: Iterable[Node],
    transfer: Transfer,
    boundary: frozenset = frozenset(),
) -> dict[Node, frozenset]:
    """Solve a backward may-analysis to a fixed point.

    Returns the *out* set of every node (the meet over successors' *in*
    sets is recomputed on demand inside the loop; ``transfer`` maps a node's
    out set to its in set).  ``boundary`` seeds nodes with no successors.
    """
    nodes = list(nodes)
    out_sets: dict[Node, frozenset] = {n: frozenset() for n in nodes}
    in_sets: dict[Node, frozenset] = {n: frozenset() for n in nodes}
    work = deque(nodes)
    in_work = set(nodes)
    while work:
        node = work.popleft()
        in_work.discard(node)
        succs = [s for s in graph.succs(node) if s in in_sets]
        if succs:
            new_out = frozenset().union(*(in_sets[s] for s in succs))
        else:
            new_out = boundary
        out_sets[node] = new_out
        new_in = transfer(node, new_out)
        if new_in != in_sets[node]:
            in_sets[node] = new_in
            for pred in graph.preds(node):
                if pred in out_sets and pred not in in_work:
                    work.append(pred)
                    in_work.add(pred)
    return out_sets


def solve_backward_masks(
    dense,
    nodes: Sequence[int],
    gen: Sequence[int],
    kill: Sequence[int],
    boundary: int = 0,
) -> list[int]:
    """Dense backward may-analysis: ``in = gen | (out & ~kill)``.

    ``dense`` is a CSR snapshot (:class:`repro.cfg.dense.DenseCFG`);
    ``nodes`` lists the active int indices (the seed solved the induced
    subgraph -- here inactive neighbours are simply filtered out once, up
    front).  Returns the *out* mask of every index (inactive entries stay
    0); ``boundary`` seeds active nodes with no active successors.

    The fixed point is unique, so iteration order affects convergence
    speed only, never the answer (the property the equivalence suite
    leans on).  Round-robin sweeps in *reverse* node order exploit that:
    backward facts flow from successors, so visiting later blocks first
    settles a loop-free region in one sweep and each extra sweep closes
    one level of loop nesting -- versus a worklist seeded in layout order
    re-queueing most of the function per change.
    """
    succ_off, succ_idx = dense.succ_off, dense.succ_idx
    active = bytearray(len(dense.nodes))
    for v in nodes:
        active[v] = 1
    sweep = []
    for v in reversed(nodes):
        row = [s for s in succ_idx[succ_off[v]:succ_off[v + 1]] if active[s]]
        sweep.append((v, row or None, gen[v], ~kill[v]))
    out = [0] * len(active)
    inm = [0] * len(active)
    changed = True
    while changed:
        changed = False
        for v, row, g, not_kill in sweep:
            if row is None:
                new_out = boundary
            else:
                new_out = 0
                for s in row:
                    new_out |= inm[s]
            out[v] = new_out
            new_in = g | (new_out & not_kill)
            if new_in != inm[v]:
                inm[v] = new_in
                changed = True
    return out
