"""The fixed-point solver for backward may-dataflow (liveness).

:func:`solve_backward_masks` is the dense engine the compiler runs on.
Facts are int bitmasks (registers interned to bit positions), blocks are
int indices into a :class:`repro.cfg.dense.DenseCFG` CSR snapshot, and
gen/kill transfer is two machine-int ops; the meet is a big-int OR.  It
visits *every* node, so blocks that reach no exit still reach the fixed
point, and the least fixed point is unique, so the visiting order never
changes the answer (``tests/dataflow/test_dense_equivalence.py`` holds
liveness to its path-search definition).
"""

from __future__ import annotations

from typing import Sequence


def solve_backward_masks(
    dense,
    nodes: Sequence[int],
    gen: Sequence[int],
    kill: Sequence[int],
    boundary: int = 0,
) -> list[int]:
    """Dense backward may-analysis: ``in = gen | (out & ~kill)``.

    ``dense`` is a CSR snapshot (:class:`repro.cfg.dense.DenseCFG`);
    ``nodes`` lists the active int indices (the solve covers the induced
    subgraph: inactive neighbours are filtered out once, up front).  Returns the *out* mask of every index (inactive entries stay
    0); ``boundary`` seeds active nodes with no active successors.

    The fixed point is unique, so iteration order affects convergence
    speed only, never the answer.  Round-robin sweeps in *reverse* node
    order exploit that: backward facts flow from successors, so visiting
    later blocks first settles a loop-free region in one sweep and each
    extra sweep closes one level of loop nesting -- versus a worklist
    seeded in layout order re-queueing most of the function per change.
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
