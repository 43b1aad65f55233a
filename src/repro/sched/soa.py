"""Struct-of-arrays storage for the scheduler hot core.

The event-driven engine of :mod:`repro.sched.global_sched` used to run on
identity-keyed dicts of mutable entry objects; every heap operation,
dependence-counter update and readiness query paid Python object overhead
per instruction.  This module lowers one region onto dense interned
storage instead:

* :class:`repro.pdg.data_deps.DenseDDG` (built via
  ``DataDependenceGraph.to_dense``) interns instructions to dense indices
  and flattens the adjacency to CSR posting lists with precomputed edge
  weights;
* :class:`DenseDependenceState` keeps the unfulfilled-predecessor
  counters, earliest starts, and issue cycles of the whole region as flat
  ``array('i')`` / ``bytearray`` tables indexed by that interning;
* :func:`pack_rows` packs the static per-candidate priority tuples into
  single ints whose ``<`` order equals the tuples' lexicographic order,
  so the ready heaps compare machine ints instead of nested tuples;
* :class:`DenseReadyQueue` is the ready structure itself: all
  per-candidate state lives in parallel arrays indexed by the candidate's
  collection sequence number, heap items are ``(packed_key, seq, epoch)``
  int triples, and the evaluation queue is a heap of plain ints.

Decision contract: at every scan point the heap residents are exactly
the candidates the Section 5.1 loop finds ready, selection follows their
sorted order (packing is strictly monotone, and ``seq`` is the
collection-order tie-break), and veto/rename judgments happen for
exactly the candidates whose answer could have changed, in collection
order.  The order checker (:mod:`repro.verify.order`) replays traced,
verified sweeps against that definition: ``tests/verify/test_order.py``
and the scorecard's ``order_ok`` cells across machines x levels.

Graph mutations (Section 4.2 renames, Definition 6 duplication) bump
``DataDependenceGraph.version``; the dense snapshot is rebuilt lazily and
indices are stable (the instruction list is append-only), so fulfilment
flags and issue cycles survive rebuilds and only the derived counters are
recomputed.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from time import perf_counter

from ..ir.opcodes import UnitType
from ..machine.model import MachineModel
from ..obs.metrics import NULL_METRICS
from ..pdg.data_deps import DataDependenceGraph

#: entry lifecycle states (shared with the retired object-based queue's
#: numbering; module-level ints keep attribute loads off the hot path)
_WAITING = 0   #: some dependence predecessor is still unfulfilled
_TIMED = 1     #: dependences satisfied, earliest start is in the future (wheel)
_PENDING = 2   #: issuable once judged -- sitting in an evaluation queue
_READY = 3     #: judged issuable, resident in its unit heap
_PARKED = 4    #: vetoed by the live-on-exit test (or rename failed)
_ISSUED = 5    #: scheduled; terminal

#: "never issued / no carry" sentinel for start-cycle arrays; any real
#: start (local or carried) is far above this
_NEVER = -(1 << 30)


def pack_rows(rows: list[tuple]) -> list[int]:
    """Pack equal-length all-int tuples into ints, preserving order.

    Unchecked: callers guarantee the shape (``global_sched`` checks a
    custom ``priority_fn``'s keys before packing them).

    Classic mixed-radix packing: each field is offset by its column
    minimum and given exactly the bits its column range needs, so for any
    two rows ``a < b  <=>  pack(a) < pack(b)`` and ``a == b  <=>
    pack(a) == pack(b)``.  Constant columns contribute zero bits.  The
    ready heaps compare these ints instead of the tuples; the tuples are
    only rebuilt for decision tracing.
    """
    if not rows:
        return []
    # column extrema via C-speed min/max; shift-accumulate per row with
    # constant (zero-bit) columns dropped from the inner loop entirely
    cols = tuple(zip(*rows))
    plan = []
    for f, col in enumerate(cols):
        low = min(col)
        bits = (max(col) - low).bit_length()
        if bits:
            plan.append((f, bits, low))
    if not plan:
        return [0] * len(rows)
    packed = []
    for row in rows:
        acc = 0
        for f, bits, low in plan:
            acc = (acc << bits) | (row[f] - low)
        packed.append(acc)
    return packed


class DenseDependenceState:
    """Fulfilment and earliest-start tracking on flat arrays.

    Every per-instruction fact is an array slot indexed by the region's
    dense interning:

    * ``_fulfilled``: bytearray flag per instruction;
    * ``_blocked``: ``array('i')`` of unfulfilled-predecessor counts,
      recomputed eagerly from the CSR predecessor lists on snapshot
      (re)binding, then decremented on every fulfilment;
    * ``_earliest``: ``array('i')`` earliest start within the current
      pass, folded incrementally on issue;
    * ``_local`` / ``_carry``: issue cycles (current pass / shifted
      previous pass) with the :data:`_NEVER` sentinel.

    A DDG version bump triggers a rebind: the dense snapshot is refreshed
    (indices are stable, new instructions append), surviving per-index
    facts are extended, and the derived counters are recomputed from the
    current fulfilment.
    """

    def __init__(self, ddg: DataDependenceGraph, machine: MachineModel,
                 metrics=NULL_METRICS):
        self.ddg = ddg
        self.machine = machine
        self._m = metrics if metrics.enabled else None
        self.invalidations = 0
        self._listener = None
        self._fulfilled = bytearray()
        self._local = array("i")
        self._carry = array("i")
        self._blocked = array("i")
        self._earliest = array("i")
        #: indices issued in the current block pass / carried from the
        #: previous one -- begin_block only visits these, not all of n
        self._pass_issued: list[int] = []
        self._carried: list[int] = []
        self._n_fulfilled = 0
        self._zeros = array("i")
        self._version = -1
        self._bind()

    def set_listener(self, listener) -> None:
        """Subscribe ``listener(idx)`` to blocked-count zero crossings
        (``idx`` is the instruction's dense index).  After a version bump
        the counters are recomputed, so the subscriber must requalify via
        the rebuild protocol :class:`DenseReadyQueue` follows."""
        self._listener = listener

    # -- snapshot lifecycle --------------------------------------------------

    def _bind(self) -> None:
        """(Re)take the dense snapshot and recompute derived counters."""
        t0 = perf_counter() if self._m is not None else 0.0
        dense = self.ddg.to_dense(self.machine)
        self._dense = dense
        self._version = self.ddg.version
        n = dense.n
        grow = n - len(self._fulfilled)
        if grow > 0:
            self._fulfilled.extend(bytes(grow))
            pad = array("i", [_NEVER]) * grow
            self._local.extend(pad)
            self._carry.extend(pad)
        self._recompute()
        if self._m is not None:
            self._m.observe("sched.soa.intern_ms",
                            (perf_counter() - t0) * 1e3)
            self._m.inc("sched.soa.dense_bytes", dense.nbytes())

    def _recompute(self) -> None:
        """Blocked counts and earliest starts, from scratch (O(V+E))."""
        dense = self._dense
        n = dense.n
        fulfilled = self._fulfilled
        local = self._local
        carry = self._carry
        pred_off = dense.pred_off
        if (self._n_fulfilled == 0 and not self._pass_issued
                and not self._carried):
            # fresh state (the common per-region bind): every predecessor
            # is unfulfilled and nothing has started -- blocked counts are
            # just the pred degrees, earliest starts are all zero
            self._blocked = array("i", [pred_off[i + 1] - pred_off[i]
                                        for i in range(n)])
            self._earliest = array("i", bytes(4 * n))
            return
        pred_idx = dense.pred_idx
        pred_w = dense.pred_w
        blocked = array("i", bytes(4 * n))
        earliest = array("i", bytes(4 * n))
        for i in range(n):
            count = 0
            e = 0
            for k in range(pred_off[i], pred_off[i + 1]):
                j = pred_idx[k]
                if not fulfilled[j]:
                    count += 1
                start = local[j]
                if start == _NEVER:
                    start = carry[j]
                if start != _NEVER:
                    bound = start + pred_w[k]
                    if bound > e:
                        e = bound
            blocked[i] = count
            earliest[i] = e
        self._blocked = blocked
        self._earliest = earliest

    def _sync(self) -> None:
        if self._version != self.ddg.version:
            self._bind()
            self.invalidations += 1

    def index_of(self, ins) -> int:
        """Dense index of ``ins`` in the current snapshot (-1 if absent)."""
        self._sync()
        return self._dense.index.get(id(ins), -1)

    # -- pass lifecycle ------------------------------------------------------

    def begin_block(self, *, carry_cycles: int | None = None) -> None:
        """Start a new block pass: the
        previous pass's issue cycles either stop constraining timing or
        carry over shifted by ``carry_cycles``, and earliest starts are
        recomputed under the new pass's clock.

        Only the instructions issued last pass (and the carries of the
        pass before) are touched -- O(issued + their successors) plus one
        C-level zero fill, not O(V + E)."""
        self._sync()
        local = self._local
        carry = self._carry
        for i in self._carried:
            carry[i] = _NEVER
        carried: list[int] = []
        if carry_cycles is None:
            for i in self._pass_issued:
                local[i] = _NEVER
        else:
            for i in self._pass_issued:
                s = local[i]
                if s != _NEVER:
                    carry[i] = s - carry_cycles
                    carried.append(i)
                    local[i] = _NEVER
        self._carried = carried
        self._pass_issued = []
        # every earliest start was relative to the old pass's clock; under
        # the new one only carried predecessors constrain anything
        dense = self._dense
        earliest = self._earliest
        zeros = self._zeros
        if len(zeros) != dense.n:
            zeros = self._zeros = array("i", bytes(4 * dense.n))
        earliest[:] = zeros              # C-level fill, no reallocation
        succ_off = dense.succ_off
        succ_idx = dense.succ_idx
        succ_w = dense.succ_w
        for i in carried:
            base = carry[i]
            for k in range(succ_off[i], succ_off[i + 1]):
                j = succ_idx[k]
                bound = base + succ_w[k]
                if bound > earliest[j]:
                    earliest[j] = bound
        self._earliest = earliest

    # -- state transitions ---------------------------------------------------

    def mark_prefulfilled_idx(self, i: int) -> None:
        """Instruction ``i`` completed in an earlier block (or is a passed
        abstract-loop barrier): fulfilled, timing-neutral."""
        if self._fulfilled[i]:
            return
        self._fulfilled[i] = 1
        self._n_fulfilled += 1
        dense = self._dense
        blocked = self._blocked
        listener = self._listener
        succ_off = dense.succ_off
        succ_idx = dense.succ_idx
        for k in range(succ_off[i], succ_off[i + 1]):
            j = succ_idx[k]
            count = blocked[j] - 1
            blocked[j] = count
            if count == 0 and listener is not None:
                listener(j)

    def mark_prefulfilled(self, ins) -> None:
        i = self.index_of(ins)
        if i >= 0:
            self.mark_prefulfilled_idx(i)

    def mark_issued_idx(self, i: int, cycle: int) -> None:
        fulfilled = self._fulfilled
        first = not fulfilled[i]
        fulfilled[i] = 1
        if first:
            self._n_fulfilled += 1
        if self._local[i] == _NEVER:
            self._pass_issued.append(i)
        self._local[i] = cycle
        dense = self._dense
        blocked = self._blocked
        earliest = self._earliest
        listener = self._listener
        succ_off = dense.succ_off
        succ_idx = dense.succ_idx
        succ_w = dense.succ_w
        for k in range(succ_off[i], succ_off[i + 1]):
            j = succ_idx[k]
            # fold the timing bound *before* any zero-crossing can fire
            # the listener: the queue classifies the successor against
            # earliest_start_idx the moment it unblocks, so the bound
            # must already hold
            bound = cycle + succ_w[k]
            if bound > earliest[j]:
                earliest[j] = bound
            if first:
                count = blocked[j] - 1
                blocked[j] = count
                if count == 0 and listener is not None:
                    listener(j)

    def mark_issued(self, ins, cycle: int) -> None:
        i = self.index_of(ins)
        if i >= 0:
            self.mark_issued_idx(i, cycle)

    # -- queries -------------------------------------------------------------

    def deps_satisfied_idx(self, i: int) -> bool:
        return self._blocked[i] == 0

    def earliest_start_idx(self, i: int) -> int:
        return self._earliest[i]

    def deps_satisfied(self, ins) -> bool:
        i = self.index_of(ins)
        return i < 0 or self._blocked[i] == 0

    def earliest_start(self, ins) -> int:
        i = self.index_of(ins)
        return 0 if i < 0 else self._earliest[i]

    def is_fulfilled(self, ins) -> bool:
        i = self.index_of(ins)
        return i >= 0 and bool(self._fulfilled[i])


class DenseReadyQueue:
    """Event-driven ready bookkeeping on parallel arrays.

    Mechanism-for-mechanism port of the retired object-based queue: one
    slot per candidate in collection order (``seq``), so ``seq`` doubles
    as the collection-order tie-break.  State per candidate --
    status, heap epoch, queued/flagged bits, unit, packed key, dense DDG
    index -- lives in parallel arrays; the per-unit heaps hold
    ``(packed_key, seq, epoch)`` int triples with lazy deletion (an entry
    is live iff its status is ready and its stamped epoch is current),
    the timing wheel maps cycle -> list of seqs, and the evaluation queue
    is a plain int heap ordered by seq.

    The three equivalence mechanisms (activations staged to the next scan
    point, targeted liveness re-flags through a reg -> seq inverted
    index, and ``drain_seq``-gated rebuilds on graph mutation) are
    unchanged in logic from the object queue; see the module docstring
    for the contract.
    """

    def __init__(self, state: DenseDependenceState, cands, pkeys,
                 terminator, metrics=NULL_METRICS):
        """``cands``/``pkeys``: parallel lists of candidates and their
        packed keys in collection order.  The terminator (pull-checked by
        the scheduler, never queued) and foreign branches (never issuable)
        still consume sequence numbers so tie-breaks stay aligned with the
        Section 5.1 scan."""
        self._state = state
        self._m = metrics if metrics.enabled else None
        self._heaps: list[list] = [[] for _ in UnitType]
        self._wheel: dict[int, list[int]] = {}
        self._current: list[int] = []    # seq heap: judged this scan
        self._staged: list[int] = []     # judged at the next scan point
        self._index: dict = {}           # Reg -> [speculative heap seqs]
        self._live = 0                   # heap residents == ready count
        self._cycle = 0
        self._drain_seq = -1             # last seq judged this scan
        self._requalify = False          # stale pre-mutation judgments exist

        state._sync()
        dense_index = state._dense.index
        units = [c.ins.unit.index for c in cands]
        idxs = [dense_index.get(id(c.ins), -1) for c in cands]
        veto = bytearray(
            0 if (c.useful or c.duplicate_into) else 1 for c in cands)
        active: list[int] = []
        dup_seqs: list[int] = []
        term_seq = -1
        for seq, cand in enumerate(cands):
            ins = cand.ins
            if terminator is not None and ins is terminator:
                term_seq = seq
                continue
            if ins.is_branch:
                continue  # foreign branches never move
            active.append(seq)
            if cand.duplicate_into:
                dup_seqs.append(seq)

        n = len(cands)
        self.cands = cands
        self.pkeys = pkeys
        self.units = units
        self.seq_idx = array("i", idxs) if idxs else array("i")
        self._veto = veto
        self.status = bytearray(n)       # all _WAITING
        self._epoch = array("i", bytes(4 * n))
        self._queued = bytearray(n)
        self._flagged = bytearray(n)
        self._active = active
        self.term_seq = term_seq
        self.duplication_seqs = dup_seqs
        #: dense DDG index -> seq, for the dependence-state listener
        self._seq_of_idx = {idxs[s]: s for s in active if idxs[s] >= 0}

        self._version = state.ddg.version
        # initial classification, inlined from _classify: the ctor runs
        # once per block pass over every candidate, at cycle 0 with an
        # empty evaluation queue (first-time _enqueue_eval always stages)
        blocked = state._blocked
        earliest = state._earliest
        status = self.status
        wheel = self._wheel
        queued = self._queued
        staged = self._staged
        m = self._m
        for seq in active:
            i = idxs[seq]
            if i >= 0:
                if blocked[i]:
                    continue                 # stays _WAITING
                start = earliest[i]
                if start > 0:
                    status[seq] = _TIMED
                    wheel.setdefault(start, []).append(seq)
                    if m is not None:
                        m.inc("sched.queue.wheel_holds")
                    continue
            status[seq] = _PENDING
            queued[seq] = 1
            staged.append(seq)
        state.set_listener(self._on_deps_ready)

    def detach(self) -> None:
        """Unsubscribe from the dependence state (end of the block pass)."""
        self._state.set_listener(None)

    # -- scan-point lifecycle ------------------------------------------------

    def begin_cycle(self, cycle: int) -> None:
        """Advance the clock; drain the wheel slot that just matured."""
        self._cycle = cycle
        batch = self._wheel.pop(cycle, None)
        if batch:
            status = self.status
            for seq in batch:
                if status[seq] == _TIMED:
                    status[seq] = _PENDING
                    self._enqueue_eval(seq, now=False)

    def scan_start(self) -> None:
        """Open a scan point: rebuild if the graph moved, then make the
        staged activations/flags judgeable."""
        self._drain_seq = -1
        if self._state.ddg.version != self._version or self._requalify:
            self._rebuild()
        if self._staged:
            current = self._current
            for seq in self._staged:
                heappush(current, seq)
            self._staged.clear()

    def next_evaluation(self) -> int:
        """Seq of the next candidate the scheduler must judge (veto /
        rename), in collection order; -1 when the scan point is drained.
        Non-speculative activations are promoted straight to their heap
        here -- they need no judgment and the Section 5.1 scan emits
        nothing for them."""
        current = self._current
        status = self.status
        queued = self._queued
        flagged = self._flagged
        veto = self._veto
        m = self._m
        while current:
            seq = heappop(current)
            queued[seq] = 0
            st = status[seq]
            if st == _PENDING:
                self._drain_seq = seq
                if veto[seq]:
                    if m is not None:
                        m.inc("sched.queue.veto_rechecks")
                    return seq
                self._push_heap(seq)
                continue
            if st == _READY and flagged[seq]:
                self._drain_seq = seq
                flagged[seq] = 0
                if m is not None:
                    m.inc("sched.queue.veto_rechecks")
                return seq
            # stale: demoted/parked/issued since it was enqueued
        return -1

    # -- judgment outcomes ---------------------------------------------------

    def promote(self, seq: int) -> None:
        """The candidate passed (or renamed its way past) the veto."""
        if self.status[seq] != _READY:
            self._push_heap(seq)

    def park(self, seq: int) -> None:
        """The candidate is vetoed and unrenameable: out of play until
        liveness flags it again or the graph mutates."""
        if self.status[seq] == _READY:
            self._live -= 1
        self.status[seq] = _PARKED
        self._epoch[seq] += 1

    # -- selection -----------------------------------------------------------

    @property
    def ready_count(self) -> int:
        return self._live

    @property
    def expecting(self) -> bool:
        """Can a later scan point find work with no further issue: a
        start on the wheel, or judgments a rename left to requalify?"""
        return bool(self._wheel or self._staged or self._requalify)

    def select(self, free: list[int]) -> int:
        """Seq of the best heap resident whose unit still has a free slot
        (the first issuable candidate in sorted order), or
        -1.  Heap items compare ``(packed_key, seq)`` first, which is
        exactly the sorted-then-stable order."""
        best = None
        for unit_idx, heap in enumerate(self._heaps):
            if free[unit_idx] <= 0:
                continue
            top = self._peek(heap)
            if top is not None and (best is None or top < best):
                best = top
        return -1 if best is None else best[1]

    def pop_issue(self, seq: int) -> None:
        self.status[seq] = _ISSUED
        self._epoch[seq] += 1
        self._live -= 1
        if self._m is not None:
            self._m.inc("sched.queue.heap_pops")

    def retire_terminator(self) -> None:
        """The scheduler issued the (never-queued) terminator."""
        self.status[self.term_seq] = _ISSUED

    def ready_seqs(self, include_term: bool) -> list[int]:
        """The full sorted ready list as seqs, for issue
        tracing only."""
        status = self.status
        epoch = self._epoch
        seqs = []
        for heap in self._heaps:
            for _pkey, seq, e in heap:
                if status[seq] == _READY and epoch[seq] == e:
                    seqs.append(seq)
        if include_term:
            seqs.append(self.term_seq)
        pkeys = self.pkeys
        seqs.sort(key=lambda s: (pkeys[s], s))
        return seqs

    # -- external events -----------------------------------------------------

    def note_liveness_grown(self, regs) -> None:
        """A motion extended live ranges: flag only the speculative heap
        residents defining one of ``regs`` for re-judgment at the next
        scan point (the targeted veto invalidation)."""
        index = self._index
        status = self.status
        flagged = self._flagged
        count = 0
        for reg in regs:
            bucket = index.get(reg)
            if not bucket:
                continue
            keep = []
            for seq in bucket:
                if status[seq] != _READY:
                    continue  # prune lazily
                keep.append(seq)
                if not flagged[seq]:
                    flagged[seq] = 1
                    count += 1
                    self._enqueue_eval(seq, now=False)
            index[reg] = keep
        if count and self._m is not None:
            self._m.inc("sched.queue.liveness_flags", count)

    def note_graph_mutation(self) -> None:
        """Called right after a judgment mutated the DDG (a successful
        Section 4.2 rename): rebuild now, gated on the drain position."""
        if self._state.ddg.version != self._version:
            self._rebuild()

    # -- internals -----------------------------------------------------------

    def _classify(self, seq: int) -> None:
        state = self._state
        i = self.seq_idx[seq]
        if i < 0:
            # not in the DDG (like the dict state, absent means
            # dependence-free): judgeable immediately
            self.status[seq] = _PENDING
            self._enqueue_eval(seq, now=False)
            return
        if not state.deps_satisfied_idx(i):
            self.status[seq] = _WAITING
            return
        start = state.earliest_start_idx(i)
        if start > self._cycle:
            self.status[seq] = _TIMED
            self._wheel.setdefault(start, []).append(seq)
            if self._m is not None:
                self._m.inc("sched.queue.wheel_holds")
            return
        self.status[seq] = _PENDING
        self._enqueue_eval(seq, now=False)

    def _enqueue_eval(self, seq: int, *, now: bool) -> None:
        if self._queued[seq]:
            return
        self._queued[seq] = 1
        if now:
            heappush(self._current, seq)
        else:
            self._staged.append(seq)

    def _push_heap(self, seq: int) -> None:
        self.status[seq] = _READY
        e = self._epoch[seq] + 1
        self._epoch[seq] = e
        heappush(self._heaps[self.units[seq]], (self.pkeys[seq], seq, e))
        self._live += 1
        if self._m is not None:
            self._m.inc("sched.queue.ready_pushes")
        if self._veto[seq]:
            index = self._index
            for reg in self.cands[seq].ins.reg_defs():
                index.setdefault(reg, []).append(seq)

    def _peek(self, heap):
        status = self.status
        epoch = self._epoch
        while heap:
            top = heap[0]
            seq = top[1]
            if status[seq] == _READY and epoch[seq] == top[2]:
                return top
            heappop(heap)
        return None

    def _on_deps_ready(self, i: int) -> None:
        seq = self._seq_of_idx.get(i)
        if seq is None or self.status[seq] != _WAITING:
            return
        start = self._state.earliest_start_idx(i)
        if start > self._cycle:
            self.status[seq] = _TIMED
            self._wheel.setdefault(start, []).append(seq)
            if self._m is not None:
                self._m.inc("sched.queue.wheel_holds")
            return
        self.status[seq] = _PENDING
        self._enqueue_eval(seq, now=False)

    def _rebuild(self) -> None:
        """Reclassify every unissued candidate against the current graph.

        ``gate == -1`` (a scan-point rebuild) reclassifies everything.
        A mid-scan rebuild (``gate >= 0``, a rename fired while judging)
        preserves the judgments already made this scan -- the Section 5.1 scan
        judged those candidates on the pre-rename graph -- and schedules
        a requalifying rebuild for the next scan point.
        """
        self._state._sync()  # classify against the mutated graph
        gate = self._drain_seq
        self._version = self._state.ddg.version
        self._requalify = gate >= 0
        for heap in self._heaps:
            heap.clear()
        self._wheel.clear()
        self._current.clear()
        self._staged.clear()
        self._index.clear()
        self._live = 0
        if self._m is not None:
            self._m.inc("sched.queue.rebuilds")
        status = self.status
        queued = self._queued
        flagged = self._flagged
        for seq in self._active:
            st = status[seq]
            if st == _ISSUED:
                continue
            queued[seq] = 0
            if seq <= gate:
                # judged this scan, pre-mutation: keep the judgment live
                # for the remainder of the scan (requalified next scan)
                if st == _READY:
                    was_flagged = flagged[seq]
                    self._push_heap(seq)
                    if was_flagged:
                        self._enqueue_eval(seq, now=True)
                elif st == _TIMED or st == _PENDING:
                    # wheel slot / eval queue just cleared; requalify
                    status[seq] = _WAITING
                continue
            flagged[seq] = 0
            self._classify(seq)
            if status[seq] == _PENDING:
                # eligible for judgment in this very scan: the Section 5.1 scan
                # reaches these positions only after the mutation
                self._staged.pop()  # _classify staged it as the last element
                heappush(self._current, seq)
