"""Memoised per-function control-flow and dataflow analyses.

The Section 6 flow runs many stages over the same function (unroll, two
global-scheduling sweeps, rotation, a block post-pass), and several of them
independently rebuilt the CFG, dominator tree, loop nest and liveness from
scratch -- ``global_schedule`` alone built the CFG three times per sweep
(region finding, reducibility, liveness).  :class:`AnalysisCache` computes
each analysis once and hands the same object out until a mutation
invalidates it.

The cache also owns the function's *dense* substrate, so one interning
pass is shared by the whole pipeline: the :class:`RegTable` (``Reg`` ->
bit; the scheduler's live-on-exit trackers keep the liveness solution's
masks over it), the :class:`DenseCFG` CSR snapshot, and the per-block
use/def masks (cached here across same-epoch solves).

Invalidation is explicit and two-tiered, because the pipeline's stages
differ in what they can break:

* :meth:`~AnalysisCache.invalidate` -- the CFG itself changed (unrolling,
  rotation, counted-loop conversion, any pass that adds/splits blocks or
  rewrites terminators).  Everything is dropped.
* :meth:`~AnalysisCache.invalidate_liveness` -- instructions moved or were
  renamed but the block structure is intact (a global-scheduling sweep:
  motions relocate instructions between *existing* blocks and terminators
  never move, so the CFG, dominators and loop nest all survive; register
  pressure does not).  The use/def masks go with liveness: renames rewrite
  instruction operands in place, so masks must be re-derived.

The ``RegTable`` survives *both* tiers: bit assignments are append-only
facts about register identity, never invalidated by motion or renaming
(a stale mask is impossible -- masks are dropped with their owners).

Holding a stale cache is a correctness bug, not a performance one, so when
in doubt stages must over-invalidate.
"""

from __future__ import annotations

from ..cfg.dense import DenseCFG
from ..cfg.dominators import DominatorTree, dominator_tree
from ..cfg.graph import ENTRY, ControlFlowGraph
from ..cfg.loops import LoopNest
from ..ir.function import Function
from ..ir.operand import Reg
from ..obs.metrics import NULL_METRICS
from .dense import RegTable
from .liveness import LivenessInfo, block_use_def_masks, compute_liveness


class AnalysisCache:
    """Lazily-computed, explicitly-invalidated analyses of one function."""

    def __init__(self, func: Function, metrics=NULL_METRICS):
        self.func = func
        self._metrics = metrics if metrics.enabled else None
        self._cfg: ControlFlowGraph | None = None
        self._dom: DominatorTree | None = None
        self._nest: LoopNest | None = None
        self._liveness: dict[frozenset[Reg], LivenessInfo] = {}
        self._table: RegTable | None = None
        self._dense: DenseCFG | None = None
        self._use_def: tuple[list[int], list[int]] | None = None

    # -- dense substrate -----------------------------------------------------

    def reg_table(self) -> RegTable:
        """The function-wide ``Reg`` -> bit interning table (one per
        function lifetime; survives both invalidation tiers)."""
        if self._table is None:
            self._table = RegTable()
            if self._metrics is not None:
                self._metrics.inc("analysis.dense.tables")
        return self._table

    def dense_cfg(self) -> DenseCFG:
        """CSR snapshot of the CFG with int block indices."""
        if self._dense is None:
            self._dense = DenseCFG(self.cfg())
            if self._metrics is not None:
                self._metrics.inc("analysis.dense.cfg_builds")
        return self._dense

    def block_use_def_masks(self) -> tuple[list[int], list[int]]:
        """Per-block (use, def) masks over :meth:`reg_table` (the
        interning pass); cached until instructions move or rename."""
        if self._use_def is None:
            self._use_def = block_use_def_masks(self.dense_cfg(),
                                                self.reg_table())
            if self._metrics is not None:
                self._metrics.inc("analysis.dense.usedef_builds")
                self._metrics.inc("analysis.dense.regs_interned",
                                  len(self._table.bit))
        elif self._metrics is not None:
            self._metrics.inc("analysis.dense.usedef_hits")
        return self._use_def

    # -- analyses ------------------------------------------------------------

    def cfg(self) -> ControlFlowGraph:
        if self._cfg is None:
            self._cfg = ControlFlowGraph(self.func)
        return self._cfg

    def dominators(self) -> DominatorTree:
        """Dominator tree of the function CFG, rooted at virtual ENTRY."""
        if self._dom is None:
            self._dom = dominator_tree(self.cfg().graph, ENTRY)
        return self._dom

    def loop_nest(self) -> LoopNest:
        if self._nest is None:
            self._nest = LoopNest(self.cfg().graph, self.dominators())
        return self._nest

    def liveness(self, live_at_exit: frozenset[Reg]) -> LivenessInfo:
        """Liveness under the given function-exit set (memoised per set)."""
        info = self._liveness.get(live_at_exit)
        if info is None:
            info = compute_liveness(self.func, live_at_exit, analyses=self)
            self._liveness[live_at_exit] = info
            if self._metrics is not None:
                self._metrics.inc("analysis.dense.liveness_solves")
        return info

    # -- invalidation --------------------------------------------------------

    def invalidate(self) -> None:
        """The block structure changed: drop everything (the reg table
        survives -- bit assignments never go stale)."""
        self._cfg = None
        self._dom = None
        self._nest = None
        self._liveness.clear()
        self._dense = None
        self._use_def = None

    def invalidate_liveness(self) -> None:
        """Instructions moved/renamed within the existing block structure:
        drop dataflow facts (use/def masks included), keep the CFG-shape
        analyses."""
        self._liveness.clear()
        self._use_def = None
