"""Reference (seed) implementations of the dataflow analyses.

The dense analysis core re-hosted the worklist solver and ``LivenessInfo``
on int bitmasks over a shared :class:`repro.dataflow.dense.RegTable`.
This module preserves the seed's frozenset implementation verbatim:

* :class:`LivenessInfoReference` / :func:`compute_liveness_reference`;
* :func:`reference_analyses` -- a context manager running the *whole*
  compiler with the dense analysis core switched off (CFG layer included,
  plus the dense basic-block scheduler), for the equivalence suite.

The seed's generic set-based worklist solver never left
:mod:`repro.dataflow.engine` (it remains the public generic API next to
the mask solver); the reference liveness here drives it exactly as the
seed did.
"""

from __future__ import annotations

from contextlib import contextmanager

from ..cfg.graph import EXIT, ControlFlowGraph
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.operand import Reg
from .engine import solve_backward


def block_use_def_reference(block: BasicBlock) -> tuple[set[Reg], set[Reg]]:
    """(upward-exposed uses, defs) of a block (seed set-based helper)."""
    uses: set[Reg] = set()
    defs: set[Reg] = set()
    for ins in block.instrs:
        for reg in ins.reg_uses():
            if reg not in defs:
                uses.add(reg)
        defs.update(ins.reg_defs())
    return uses, defs


class LivenessInfoReference:
    """Solved liveness for one function (seed frozenset implementation)."""

    def __init__(self, func: Function, cfg: ControlFlowGraph,
                 live_at_exit: frozenset[Reg] = frozenset()):
        self.func = func
        self.cfg = cfg
        self.live_at_exit = live_at_exit
        self._use: dict[str, frozenset[Reg]] = {}
        self._def: dict[str, frozenset[Reg]] = {}
        for block in func.blocks:
            uses, defs = block_use_def_reference(block)
            self._use[block.label] = frozenset(uses)
            self._def[block.label] = frozenset(defs)
        self._live_out = self._solve()

    def _solve(self) -> dict[str, frozenset[Reg]]:
        labels = [b.label for b in self.func.blocks]

        def transfer(label: str, out_set: frozenset) -> frozenset:
            if label in (EXIT,):
                return out_set
            return self._use[label] | (out_set - self._def[label])

        graph = self.cfg.graph
        # Solve over block labels only; EXIT acts as the boundary: blocks
        # with an edge to EXIT receive ``live_at_exit`` through it.
        out_sets: dict[str, frozenset[Reg]] = {}
        sets = solve_backward(
            graph.subgraph([*labels, EXIT]),
            [*labels, EXIT],
            lambda n, out: out if n == EXIT else transfer(n, out),
            boundary=self.live_at_exit,
        )
        # EXIT itself has no successors -> gets boundary; blocks see it.
        for label in labels:
            out_sets[label] = sets[label]
        return out_sets

    # -- queries ----------------------------------------------------------

    def live_out(self, block: BasicBlock | str) -> frozenset[Reg]:
        """Registers live on exit from ``block``."""
        label = block if isinstance(block, str) else block.label
        return self._live_out[label]

    def live_in(self, block: BasicBlock | str) -> frozenset[Reg]:
        label = block if isinstance(block, str) else block.label
        return self._use[label] | (self._live_out[label] - self._def[label])

    def live_out_map(self) -> dict[str, set[Reg]]:
        """A mutable copy for the scheduler's dynamic updates."""
        return {label: set(regs) for label, regs in self._live_out.items()}


def compute_liveness_reference(
        func: Function,
        live_at_exit: frozenset[Reg] = frozenset(),
        cfg: ControlFlowGraph | None = None,
        *, analyses=None) -> LivenessInfoReference:
    """Seed convenience constructor (``analyses``, the dense plumbing
    hook, is accepted and used only for its cached CFG)."""
    if cfg is None:
        cfg = analyses.cfg() if analyses is not None else None
    return LivenessInfoReference(func, cfg or ControlFlowGraph(func),
                                 live_at_exit)


def _analysis_reference_patches() -> list[tuple]:
    """Every (module, attribute, reference value) needed to run the
    compiler with the dense analysis core switched off."""
    from ..cfg.reference import _cfg_reference_patches
    from ..sched import bb_sched
    from ..sched.reference import schedule_block_reference
    from ..verify import verifier as sched_verifier
    from ..xform import rename as xform_rename
    from . import cache as dataflow_cache

    return [
        *_cfg_reference_patches(),
        (dataflow_cache, "compute_liveness", compute_liveness_reference),
        (xform_rename, "compute_liveness", compute_liveness_reference),
        (sched_verifier, "compute_liveness", compute_liveness_reference),
        (bb_sched, "schedule_block", schedule_block_reference),
    ]


@contextmanager
def reference_analyses():
    """Run with every seed analysis implementation restored: dict-based
    dominators/loops/reducibility, frozenset liveness, and the dict-state
    basic-block scheduler.  The dense core and this arm must agree
    bit-for-bit on every analysis result and byte-for-byte on emitted
    assembly (``tests/dataflow/test_dense_equivalence.py``)."""
    patches = _analysis_reference_patches()
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    for mod, name, value in patches:
        setattr(mod, name, value)
    try:
        yield
    finally:
        for mod, name, value in saved:
            setattr(mod, name, value)
