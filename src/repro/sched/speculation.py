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

Two dense interned layers keep the hot queries off Python sets:

* block labels -> bit positions with per-node reachability masks, so the
  "blocks between source and target" of :meth:`~LiveOnExitTracker.record_motion`
  is one mask intersection;
* registers -> bit positions with a per-label live-on-exit *bitmask*
  maintained alongside the canonical sets, so the Section 5.3 veto
  :meth:`~LiveOnExitTracker.blocks_motion` is one AND of two ints instead
  of a set-membership loop.  The sets remain authoritative (they are the
  function-wide store shared across region passes); masks are built
  lazily per label and dual-written on every motion.
"""

from __future__ import annotations

from ..cfg.digraph import Digraph
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from ..obs.metrics import NULL_METRICS
from ..pdg.data_deps import DataDependenceGraph, DepKind, refresh_edge


class LiveOnExitTracker:
    """Dynamically-updated live-on-exit sets for one region.

    :meth:`record_motion` is on the scheduler's issue path (every upward
    motion calls it), so the "blocks between source and target" query is
    answered from per-region reachability bitsets: block labels are
    interned to dense bit positions on first use, each node gets a
    downstream mask (all nodes reachable from it) and an upstream mask
    (all nodes that reach it, the transpose), and the between-set is one
    mask intersection -- instead of two full graph traversals per motion.
    """

    def __init__(self, live_out: dict[str, set[Reg]], forward: Digraph,
                 metrics=NULL_METRICS, intern_cache=None):
        """``live_out`` maps block label -> registers live on exit (a
        mutable copy; :meth:`repro.dataflow.LivenessInfo.live_out_map`
        provides one).  ``forward`` is the region's forward CFG, used to
        find the blocks between a motion's source and target.

        ``intern_cache`` is an optional ``(regbit, rmask)`` pair shared
        by every tracker over the *same* ``live_out`` store: label masks
        then survive across regions instead of being re-interned per
        tracker.  Safe because all mutations of the store go through a
        tracker (the dual-write invariant below is store-wide)."""
        self._live_out = live_out
        self._forward = forward
        self._m = metrics if metrics.enabled else None
        self._reverse: Digraph | None = None  # fallback path only
        self._bit: dict | None = None   # label -> dense bit position
        self._labels: tuple = ()        # bit position -> label
        self._down: list[int] = []      # node -> mask reachable from it
        self._up: list[int] = []        # node -> mask reaching it
        #: register interning for the live-on-exit bitmasks.  Invariant:
        #: for every label in ``_rmask``, the mask equals the OR of the
        #: interned bits of that label's canonical set, and every register
        #: of that set is interned (``_mask_of`` interns on build,
        #: ``record_motion`` dual-writes set and mask).
        if intern_cache is None:
            self._regbit: dict[Reg, int] = {}
            self._rmask: dict[str, int] = {}
        else:
            self._regbit, self._rmask = intern_cache

    def live_out_of(self, label: str) -> set[Reg]:
        return self._live_out.setdefault(label, set())

    def _mask_of(self, label: str) -> int:
        """The label's live-on-exit set as an int bitmask (lazily built;
        interns every register of the set)."""
        mask = self._rmask.get(label)
        if mask is None:
            regbit = self._regbit
            mask = 0
            for reg in self._live_out.get(label, ()):
                bit = regbit.get(reg)
                if bit is None:
                    bit = len(regbit)
                    regbit[reg] = bit
                mask |= 1 << bit
            self._rmask[label] = mask
        return mask

    def blocks_motion(self, ins: Instruction, target: str) -> bool:
        """Would moving ``ins`` speculatively into ``target`` clobber a
        live register?  (Definition of illegality, Section 5.3.)

        Answered as ``defs_mask & live_mask``: a register of ``ins`` with
        no interned bit cannot be in the target's set (building the
        target's mask interned that whole set, and later insertions
        intern through :meth:`record_motion`)."""
        mask = self._mask_of(target)
        if self._m is not None:
            self._m.inc("sched.soa.mask_queries")
        if not mask:
            return False
        regbit = self._regbit
        for reg in ins.reg_defs():
            bit = regbit.get(reg)
            if bit is not None and (mask >> bit) & 1:
                return True
        return False

    def blocking_regs(self, ins: Instruction, target: str) -> tuple[Reg, ...]:
        """The registers that make :meth:`blocks_motion` true -- the
        live-on-exit defs a veto is attributable to.  Off the hot path;
        tracing uses it to name the rejection reason."""
        live = self._live_out.get(target, set())
        return tuple(reg for reg in ins.reg_defs() if reg in live)

    def record_motion(self, ins: Instruction, src: str, dst: str) -> None:
        """Update liveness after ``ins`` moved from ``src`` into ``dst``.

        Every register ``ins`` defines becomes live on exit of ``dst`` and
        of every intermediate block on a forward path ``dst -> ... -> src``
        (exclusive of ``src``, whose own exit liveness is unchanged).
        Called for *every* upward motion, speculative or useful -- either
        way the moved definition's live range now spans the gap.
        """
        defs = ins.reg_defs()
        if not defs:
            return
        if self._bit is None:
            self._build_masks()
        bit_src = self._bit.get(src)
        bit_dst = self._bit.get(dst)
        if bit_src is None or bit_dst is None:
            self._record_motion_traversal(defs, src, dst)
            return
        # blocks on a forward path dst -> ... -> src, minus src, plus dst
        mask = self._down[bit_dst] & self._up[bit_src]
        mask &= ~(1 << bit_src)
        mask |= 1 << bit_dst
        defbits = self._defbits(defs)
        labels = self._labels
        live_out = self._live_out
        rmask = self._rmask
        if self._m is not None:
            self._m.inc("sched.soa.mask_updates")
        while mask:
            low = mask & -mask
            mask ^= low
            label = labels[low.bit_length() - 1]
            live = live_out.get(label)
            if live is None:
                live_out[label] = set(defs)
            else:
                live.update(defs)
            if label in rmask:
                rmask[label] |= defbits

    def _build_masks(self) -> None:
        """Intern the forward graph's labels to dense bits and precompute
        per-node downstream/upstream reachability masks (both include the
        node itself, matching ``Digraph.reachable_from``)."""
        nodes = self._forward.nodes
        bit = {label: pos for pos, label in enumerate(nodes)}
        succ_bits = [
            [bit[succ] for succ in self._forward.succs(label)]
            for label in nodes
        ]
        count = len(nodes)
        down = [0] * count
        for pos in range(count):
            seen = 1 << pos
            stack = [pos]
            while stack:
                here = stack.pop()
                for nxt in succ_bits[here]:
                    nxt_bit = 1 << nxt
                    if not (seen & nxt_bit):
                        seen |= nxt_bit
                        stack.append(nxt)
            down[pos] = seen
        up = [0] * count
        for pos in range(count):
            mask = down[pos]
            pos_bit = 1 << pos
            while mask:
                low = mask & -mask
                mask ^= low
                up[low.bit_length() - 1] |= pos_bit
        self._bit = bit
        self._labels = tuple(nodes)
        self._down = down
        self._up = up

    def _defbits(self, defs) -> int:
        """The defined registers as an interned bitmask (assigns bits)."""
        regbit = self._regbit
        bits = 0
        for reg in defs:
            bit = regbit.get(reg)
            if bit is None:
                bit = len(regbit)
                regbit[reg] = bit
            bits |= 1 << bit
        return bits

    def _record_motion_traversal(self, defs, src: str, dst: str) -> None:
        """Traversal fallback for labels outside the interned graph
        (the same blocks, plus the bitmask dual-write)."""
        if self._reverse is None:
            self._reverse = self._forward.reversed()
        downstream = self._forward.reachable_from(dst)
        upstream = self._reverse.reachable_from(src)
        between = (downstream & upstream) - {src}
        between.add(dst)
        defbits = self._defbits(defs)
        rmask = self._rmask
        for label in between:
            live = self._live_out.setdefault(label, set())
            live.update(defs)
            if label in rmask:
                rmask[label] |= defbits


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
    live = live_tracker.live_out_of(target_label)
    conflicting = [r for r in ins.reg_defs() if r in live]
    if not conflicting:
        return True
    position = home.index_of(ins)
    for reg in conflicting:
        if not _web_is_local(home, position, reg, live_tracker):
            return False
    for reg in conflicting:
        _rename_web(ins, home, position, reg, func, ddg, machine)
    return not any(r in live for r in ins.reg_defs())


def _web_is_local(home: BasicBlock, position: int, reg: Reg,
                  live_tracker: LiveOnExitTracker) -> bool:
    """Does the def of ``reg`` at ``position`` reach only uses inside
    ``home``?  True if a later def cuts it off, or the register is dead on
    exit of the home block."""
    for ins in home.instrs[position + 1:]:
        if reg in ins.reg_defs():
            return True  # web ends at the next definition
    return reg not in live_tracker.live_out_of(home.label)


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
