"""Struct-of-arrays dependence state for the global block pass.

:class:`repro.pdg.data_deps.DenseDDG` (built via
``DataDependenceGraph.to_dense``) interns a region's instructions to
dense indices and flattens the adjacency to CSR posting lists with
precomputed edge weights.  :class:`DenseDependenceState` keeps the
unfulfilled-predecessor counters, earliest starts and issue cycles of
the whole region as flat ``array('i')`` / ``bytearray`` tables indexed by
that interning, so the Section 5.1 readiness scan of
:mod:`repro.sched.global_sched` reads two ints per candidate.

Graph mutations (Section 4.2 renames, Definition 6 duplication) bump
``DataDependenceGraph.version``; :meth:`DenseDependenceState.sync` then
retakes the snapshot.  Indices are stable (the instruction list is
append-only), so fulfilment flags and issue cycles survive and only the
derived counters are recomputed.
"""

from __future__ import annotations

from array import array
from time import perf_counter

from ..machine.model import MachineModel
from ..obs.metrics import NULL_METRICS
from ..pdg.data_deps import DataDependenceGraph

#: "never issued / no carry" sentinel for start-cycle arrays; any real
#: start (local or carried) is far above this
_NEVER = -(1 << 30)


class DenseDependenceState:
    """Fulfilment and earliest-start tracking on flat arrays.

    Every per-instruction fact is an array slot indexed by the region's
    dense interning:

    * ``_fulfilled``: bytearray flag per instruction;
    * ``blocked``: ``array('i')`` of unfulfilled-predecessor counts,
      recomputed from the CSR predecessor lists on snapshot (re)binding,
      then decremented on every fulfilment;
    * ``earliest``: ``array('i')`` earliest start within the current
      pass, folded incrementally on issue;
    * ``_local`` / ``_carry``: issue cycles (current pass / shifted
      previous pass) with the :data:`_NEVER` sentinel.

    The block pass reads ``blocked`` and ``earliest`` directly; a rebind
    replaces both arrays, so it re-reads them after :meth:`sync`.
    """

    def __init__(self, ddg: DataDependenceGraph, machine: MachineModel,
                 metrics=NULL_METRICS):
        self.ddg = ddg
        self.machine = machine
        self._m = metrics if metrics.enabled else None
        self.invalidations = 0
        self._fulfilled = bytearray()
        self._local = array("i")
        self._carry = array("i")
        self.blocked = array("i")
        self.earliest = array("i")
        #: indices issued in the current block pass / carried from the
        #: previous one -- begin_block only visits these, not all of n
        self._pass_issued: list[int] = []
        self._carried: list[int] = []
        self._n_fulfilled = 0
        self._zeros = array("i")
        self._version = -1
        self._bind()

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
            self.blocked = array("i", [pred_off[i + 1] - pred_off[i]
                                       for i in range(n)])
            self.earliest = array("i", bytes(4 * n))
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
        self.blocked = blocked
        self.earliest = earliest

    def sync(self) -> None:
        """Retake the snapshot if the graph changed since the last one."""
        if self._version != self.ddg.version:
            self._bind()
            self.invalidations += 1

    def index_of(self, ins) -> int:
        """Dense index of ``ins`` in the current snapshot (-1 if absent)."""
        self.sync()
        return self._dense.index.get(id(ins), -1)

    def indices(self, instrs) -> list[int]:
        """:meth:`index_of` for each of ``instrs``, on one snapshot."""
        self.sync()
        get = self._dense.index.get
        return [get(id(ins), -1) for ins in instrs]

    # -- pass lifecycle ------------------------------------------------------

    def begin_block(self, *, carry_cycles: int | None = None) -> None:
        """Start a new block pass: the
        previous pass's issue cycles either stop constraining timing or
        carry over shifted by ``carry_cycles``, and earliest starts are
        recomputed under the new pass's clock.

        Only the instructions issued last pass (and the carries of the
        pass before) are touched -- O(issued + their successors) plus one
        C-level zero fill, not O(V + E)."""
        self.sync()
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
        earliest = self.earliest
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

    # -- state transitions ---------------------------------------------------

    def mark_prefulfilled(self, ins) -> None:
        """``ins`` completed in an earlier block (or is a passed
        abstract-loop barrier): fulfilled, timing-neutral."""
        i = self.index_of(ins)
        if i < 0 or self._fulfilled[i]:
            return
        self._fulfilled[i] = 1
        self._n_fulfilled += 1
        dense = self._dense
        blocked = self.blocked
        succ_idx = dense.succ_idx
        for k in range(dense.succ_off[i], dense.succ_off[i + 1]):
            blocked[succ_idx[k]] -= 1

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
        blocked = self.blocked
        earliest = self.earliest
        succ_off = dense.succ_off
        succ_idx = dense.succ_idx
        succ_w = dense.succ_w
        for k in range(succ_off[i], succ_off[i + 1]):
            j = succ_idx[k]
            bound = cycle + succ_w[k]
            if bound > earliest[j]:
                earliest[j] = bound
            if first:
                blocked[j] -= 1

    def mark_issued(self, ins, cycle: int) -> None:
        i = self.index_of(ins)
        if i >= 0:
            self.mark_issued_idx(i, cycle)

    # -- queries -------------------------------------------------------------

    def deps_satisfied(self, ins) -> bool:
        i = self.index_of(ins)
        return i < 0 or self.blocked[i] == 0

    def earliest_start(self, ins) -> int:
        i = self.index_of(ins)
        return 0 if i < 0 else self.earliest[i]

    def is_fulfilled(self, ins) -> bool:
        i = self.index_of(ins)
        return i >= 0 and bool(self._fulfilled[i])
