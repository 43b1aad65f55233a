"""Speculative-motion legality via live-on-exit registers (Section 5.3).

Data dependences alone do not stop two sibling definitions (the paper's
``x=5`` / ``x=3`` example) from both moving above their branch.  The rule:
an instruction may not move speculatively into block ``B`` if it defines a
register that is *live on exit* from ``B`` -- and this information must be
updated *dynamically*: once ``x=5`` moves into ``B1``, ``x`` becomes live
on exit of ``B1``, which then blocks ``x=3``.

The tracker holds a mutable copy of the liveness solution and applies the
dynamic updates: after moving ``I`` (defining ``R``) from ``B`` up to
``A``, ``R`` becomes live on exit of ``A`` and of every block on a forward
path from ``A`` to ``B``.

Both facts stay in the form they were computed in:

* live-on-exit sets are the liveness solve's own bitmasks over the
  function's :class:`~repro.dataflow.dense.RegTable`
  (:meth:`~repro.dataflow.liveness.LivenessInfo.live_out_masks`), so the
  Section 5.3 veto :meth:`~LiveOnExitTracker.blocks_motion` is one AND;
* the blocks between a motion's two ends are one intersection of the
  region's reachability closure (:attr:`repro.pdg.RegionPDG.down` and
  :attr:`~repro.pdg.RegionPDG.up`).
"""

from __future__ import annotations

from ..dataflow.dense import RegTable
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from ..obs.metrics import NULL_METRICS
from ..pdg.data_deps import DataDependenceGraph, DepKind, refresh_edge
from ..pdg.pdg import RegionPDG


class LiveOnExitTracker:
    """Dynamically-updated live-on-exit masks for one region."""

    def __init__(self, live_out: dict[str, int], table: RegTable,
                 pdg: RegionPDG, metrics=NULL_METRICS):
        """``live_out`` maps block label -> live-on-exit mask over
        ``table``; the trackers of one sweep share it, and
        :meth:`repro.dataflow.LivenessInfo.live_out_masks` gives a fresh
        one.  ``pdg`` is the region's PDG, whose closure gives the blocks
        between a motion's source and target."""
        self._live_out = live_out
        self._table = table
        self._pdg = pdg
        self._m = metrics if metrics.enabled else None

    def live_out_of(self, label: str) -> set[Reg]:
        """The registers live on exit from ``label`` as a set, for the
        checks that restate Section 5.3 on their own (the verifier, the
        order checker); the scheduler reads the masks."""
        return self._table.regs_of(self._live_out.get(label, 0))

    def is_live(self, reg: Reg, label: str) -> bool:
        """Is ``reg`` live on exit from ``label``?"""
        bit = self._table.bit.get(reg)
        return bit is not None and bool(self._live_out.get(label, 0) >> bit & 1)

    def blocks_motion(self, ins: Instruction, target: str) -> bool:
        """Would moving ``ins`` speculatively into ``target`` clobber a
        live register?  (Definition of illegality, Section 5.3.)"""
        if self._m is not None:
            self._m.inc("sched.soa.mask_queries")
        return bool(self._table.mask_of(ins.defs)
                    & self._live_out.get(target, 0))

    def blocking_regs(self, ins: Instruction, target: str) -> tuple[Reg, ...]:
        """The registers that make :meth:`blocks_motion` true, in the
        order ``ins`` defines them -- the live-on-exit defs a veto is
        attributable to."""
        return tuple(reg for reg in ins.defs if self.is_live(reg, target))

    def record_motion(self, ins: Instruction, src: str, dst: str) -> None:
        """Update liveness after ``ins`` moved from ``src`` into ``dst``.

        Every register ``ins`` defines becomes live on exit of ``dst`` and
        of every intermediate block on a forward path ``dst -> ... -> src``
        (exclusive of ``src``, whose own exit liveness is unchanged).
        Called for *every* upward motion, speculative or useful -- either
        way the moved definition's live range now spans the gap.  Both
        ends are blocks of the region.
        """
        if not ins.defs:
            return
        pdg = self._pdg
        at_dst = pdg.position[dst]
        mask = pdg.down[at_dst] & pdg.up[pdg.position[src]] | 1 << at_dst
        defbits = self._table.mask_of(ins.defs)
        labels = pdg.topo_labels
        live_out = self._live_out
        if self._m is not None:
            self._m.inc("sched.soa.mask_updates")
        while mask:
            low = mask & -mask
            mask ^= low
            label = labels[low.bit_length() - 1]
            live_out[label] = live_out.get(label, 0) | defbits


def try_rename_for_motion(
    ins: Instruction,
    home: BasicBlock,
    target_label: str,
    live_tracker: LiveOnExitTracker,
    ddg: DataDependenceGraph,
    func: Function,
    machine: MachineModel,
) -> bool:
    """Rename ``ins``'s conflicting definitions to unblock a speculative
    motion, if legal.  Returns True when ``ins`` no longer clobbers a
    register live on exit from ``target_label``.

    This reproduces the paper's on-demand flavour of renaming ("the XL
    compiler does certain renaming of registers, which is similar to the
    effect of the static single assignment form", Section 4.2): in Figure 6
    the speculative twin of I5 gets its condition register renamed
    (``cr6 -> cr5``) so both compares can sit in BL1, while defs whose
    values escape their home block are left alone.

    A definition ``R`` may be renamed iff its def-use web is closed inside
    the home block: every use reached by this def sits in ``home`` after
    ``ins``, i.e. ``R`` is not live on exit of ``home`` unless a later def
    of ``R`` inside ``home`` cuts the web off.
    """
    conflicting = live_tracker.blocking_regs(ins, target_label)
    if not conflicting:
        return True
    position = home.index_of(ins)
    for reg in conflicting:
        if not _web_is_local(home, position, reg, live_tracker):
            return False
    for reg in conflicting:
        _rename_web(ins, home, position, reg, func, ddg, machine)
    return not live_tracker.blocking_regs(ins, target_label)


def _web_is_local(home: BasicBlock, position: int, reg: Reg,
                  live_tracker: LiveOnExitTracker) -> bool:
    """Does the def of ``reg`` at ``position`` reach only uses inside
    ``home``?  True if a later def cuts it off, or the register is dead on
    exit of the home block."""
    for ins in home.instrs[position + 1:]:
        if reg in ins.reg_defs():
            return True  # web ends at the next definition
    return not live_tracker.is_live(reg, home.label)


def _rename_web(ins: Instruction, home: BasicBlock, position: int, reg: Reg,
                func: Function, ddg: DataDependenceGraph,
                machine: MachineModel) -> None:
    """Give the local def-use web of ``reg`` rooted at ``ins`` a fresh name
    and drop the anti/output dependence edges the old name induced."""
    fresh = func.new_reg(reg.rclass)
    ins.defs = tuple(fresh if r == reg else r for r in ins.defs)
    for user in home.instrs[position + 1:]:
        if reg in user.reg_uses():
            user.rename_uses_of(reg, fresh)
        if reg in user.reg_defs():
            break
    # Anti/output edges into `ins` on the old name are now spurious; so are
    # output edges out of it.  Refresh those pairs from current operands.
    # succs()/preds() are live views and refresh_edge mutates the graph,
    # so snapshot both before walking them.
    for edge in tuple(ddg.preds(ins)):
        if edge.kind in (DepKind.ANTI, DepKind.OUTPUT):
            refresh_edge(ddg, edge.src, ins, machine)
    for edge in tuple(ddg.succs(ins)):
        if edge.kind is DepKind.OUTPUT:
            refresh_edge(ddg, ins, edge.dst, machine)
