"""Register liveness: live-in / live-out (= *live on exit*) sets per block.

Section 5.3 of the paper drives speculative-motion legality with "the
(symbolic) registers that are *live on exit* from a basic block": an
instruction may not be moved speculatively into a block ``B`` if it defines
a register live on exit from ``B``.  The scheduler takes an initial solution
from here and updates it dynamically after each speculative motion.

Liveness at function exit is configurable: registers holding results the
caller observes (e.g. ``min``/``max`` in the running example, or everything a
trailing RET uses) can be declared live-out of the function.

The solve itself is dense: registers are interned to bit positions in a
:class:`repro.dataflow.dense.RegTable` (one table per function), blocks
are int indices into a :class:`repro.cfg.dense.DenseCFG` snapshot, and
the fixed point runs on int masks in
:func:`repro.dataflow.engine.solve_backward_masks`.  The scheduler's
live-on-exit tracker takes the solution as masks over the same table
(:meth:`LivenessInfo.live_out_masks`); the set queries materialize back
to ``frozenset[Reg]`` lazily and are memoised.
``tests/dataflow/test_dense_equivalence.py`` holds the solution to its
definition: a register is live out of a block iff some path from there
reaches a use of it before any definition.
"""

from __future__ import annotations

from ..cfg.dense import DenseCFG
from ..cfg.graph import ControlFlowGraph
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.operand import Reg
from .dense import RegTable
from .engine import solve_backward_masks


def block_use_def(block: BasicBlock) -> tuple[set[Reg], set[Reg]]:
    """(upward-exposed uses, defs) of a block."""
    uses: set[Reg] = set()
    defs: set[Reg] = set()
    for ins in block.instrs:
        for reg in ins.reg_uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(ins.reg_defs())
    return uses, defs


def block_use_def_masks(
        dense: DenseCFG, table: RegTable) -> tuple[list[int], list[int]]:
    """Per-index (upward-exposed use, def) masks for every node of
    ``dense`` (0 for the virtual ENTRY/EXIT).  One pass interns every
    register the function mentions into ``table``."""
    bit = table.bit
    masks = table.mask
    mget = masks.get
    use_m = [0] * len(dense.nodes)
    def_m = [0] * len(dense.nodes)
    for i, block in enumerate(dense.blocks):
        if block is None:
            continue
        usem = 0
        defm = 0
        # the hottest loop of the dense core: raw ``uses``/``defs`` tuple
        # reads (== reg_uses()/reg_defs()) and one single-bit-mask dict
        # hit per operand, instead of a bit lookup plus a big-int shift
        for ins in block.instrs:
            for reg in ins.uses:
                m = mget(reg)
                if m is None:
                    b = bit[reg] = len(bit)
                    m = masks[reg] = 1 << b
                if not defm & m:
                    usem |= m
            for reg in ins.defs:
                m = mget(reg)
                if m is None:
                    b = bit[reg] = len(bit)
                    m = masks[reg] = 1 << b
                defm |= m
        use_m[i] = usem
        def_m[i] = defm
    return use_m, def_m


class LivenessInfo:
    """Solved liveness for one function."""

    def __init__(self, func: Function, cfg: ControlFlowGraph,
                 live_at_exit: frozenset[Reg] = frozenset(),
                 *,
                 table: RegTable | None = None,
                 dense: DenseCFG | None = None,
                 use_def: tuple[list[int], list[int]] | None = None):
        self.func = func
        self.cfg = cfg
        self.live_at_exit = live_at_exit
        self.table = table if table is not None else RegTable()
        self.dense = dense if dense is not None else DenseCFG(cfg)
        if use_def is None:
            use_def = block_use_def_masks(self.dense, self.table)
        self._use_m, self._def_m = use_def
        self._out_m = self._solve()
        #: materialized frozensets, filled on first query per label
        self._out_sets: dict[str, frozenset[Reg]] = {}
        self._in_sets: dict[str, frozenset[Reg]] = {}

    def _solve(self) -> list[int]:
        dense = self.dense
        # Solve over block indices plus EXIT; EXIT acts as the boundary
        # (gen/kill 0 make its transfer the identity, and having no
        # successors it holds ``live_at_exit``), so blocks with an edge
        # to EXIT receive the function-exit set through it.  ENTRY stays
        # inactive: the solve covers the induced subgraph of the blocks.
        exit_idx = dense.index[self.cfg.exit]
        nodes = dense.block_indices()
        nodes.append(exit_idx)
        boundary = self.table.mask_of(self.live_at_exit)
        return solve_backward_masks(dense, nodes, self._use_m, self._def_m,
                                    boundary)

    # -- queries ----------------------------------------------------------

    def live_out(self, block: BasicBlock | str) -> frozenset[Reg]:
        """Registers live on exit from ``block``."""
        label = block if isinstance(block, str) else block.label
        regs = self._out_sets.get(label)
        if regs is None:
            i = self.dense.index[label]
            if self.dense.blocks[i] is None:
                raise KeyError(label)
            regs = frozenset(self.table.regs_of(self._out_m[i]))
            self._out_sets[label] = regs
        return regs

    def live_in(self, block: BasicBlock | str) -> frozenset[Reg]:
        label = block if isinstance(block, str) else block.label
        regs = self._in_sets.get(label)
        if regs is None:
            i = self.dense.index[label]
            if self.dense.blocks[i] is None:
                raise KeyError(label)
            mask = self._use_m[i] | (self._out_m[i] & ~self._def_m[i])
            regs = frozenset(self.table.regs_of(mask))
            self._in_sets[label] = regs
        return regs

    def live_out_masks(self) -> dict[str, int]:
        """Label -> live-on-exit mask over :attr:`table`: a fresh dict,
        the store the scheduler's dynamic updates write."""
        out_m = self._out_m
        index = self.dense.index
        return {b.label: out_m[index[b.label]] for b in self.func.blocks}


def compute_liveness(func: Function,
                     live_at_exit: frozenset[Reg] = frozenset(),
                     cfg: ControlFlowGraph | None = None,
                     *, analyses=None) -> LivenessInfo:
    """Convenience constructor.  ``analyses`` -- an optional
    :class:`repro.dataflow.cache.AnalysisCache` -- supplies the shared
    interning table, CSR snapshot and cached use/def masks so repeated
    solves skip the interning pass."""
    if analyses is not None:
        return LivenessInfo(func, analyses.cfg(), live_at_exit,
                            table=analyses.reg_table(),
                            dense=analyses.dense_cfg(),
                            use_def=analyses.block_use_def_masks())
    return LivenessInfo(func, cfg or ControlFlowGraph(func), live_at_exit)
