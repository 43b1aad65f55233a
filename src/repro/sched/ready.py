"""Dependence-state bookkeeping for the cycle-driven schedulers.

Tracks which instructions have been *fulfilled* ("its data dependences to
the following instructions are marked as fulfilled", Section 5.1) and the
earliest start cycle each not-yet-issued instruction may receive within the
block currently being scheduled.

Timing is local to each block pass (blocks are scheduled one at a time and
each starts its own cycle count at 0): instructions issued in *earlier*
blocks are fulfilled with no timing constraint, while instructions issued
earlier in the *current* pass constrain their successors by
``start + weight`` where ``weight`` is ``E(src) + delay`` for flow edges
and 0 for anti/output/memory edges (which only require issue order).

Both queries the schedulers make on their inner loop --
:meth:`DependenceState.deps_satisfied` and
:meth:`~DependenceState.earliest_start` -- are maintained *incrementally*:
issuing an instruction decrements an unfulfilled-predecessor counter and
folds ``start + weight`` into a cached earliest start for each successor,
instead of every query re-walking the predecessor edges.  The caches are
keyed to :attr:`DataDependenceGraph.version`, so graph mutation mid-region
(speculative renaming rewrites edges, Definition-6 duplication adds them)
transparently drops and lazily rebuilds them.

This dict-based state serves only the scan-driven test oracles
(:mod:`repro.sched.reference`); every compile runs on its
struct-of-arrays twin, :class:`repro.sched.soa.DenseDependenceState`,
with the event-driven ready structure in
:class:`repro.sched.soa.DenseReadyQueue` (per-unit heaps of packed int
keys, a time-indexed wheel, targeted liveness re-flags).  The two states
are behaviourally identical; only the storage differs.
"""

from __future__ import annotations

from ..ir.instruction import Instruction
from ..machine.model import MachineModel
from ..pdg.data_deps import DataDependenceGraph, DepEdge, DepKind


class DependenceState:
    """Fulfilment and earliest-start tracking over one region's DDG."""

    def __init__(self, ddg: DataDependenceGraph, machine: MachineModel):
        self.ddg = ddg
        self.machine = machine
        self._fulfilled: set[int] = set()
        #: start cycles of instructions issued in the *current* block pass
        self._local_start: dict[int, int] = {}
        #: shifted start cycles carried over from the previous block pass
        #: (negative values: "issued that many cycles before this block")
        self._carry_start: dict[int, int] = {}
        #: lazily-filled count of not-yet-fulfilled predecessors
        self._blocked: dict[int, int] = {}
        #: lazily-filled earliest start within the current pass
        self._earliest: dict[int, int] = {}
        self._ddg_version = ddg.version
        #: observability: how many times a DDG version bump forced the
        #: derived caches to be dropped (mid-region renames/duplication)
        self.invalidations = 0
        #: optional callback fired with an instruction whose unfulfilled
        #: predecessor counter just reached zero (the event-driven ready
        #: queue subscribes for the duration of one block pass)
        self._listener = None

    def set_listener(self, listener) -> None:
        """Subscribe ``listener(ins)`` to blocked-count zero crossings.

        Only counters already materialized in the ``_blocked`` cache fire
        (a lazily computed count of zero is visible to the subscriber via
        :meth:`deps_satisfied` at subscription time); after a DDG version
        bump the cleared cache fires nothing until the subscriber
        re-queries, which is exactly the rebuild protocol the ready
        structure follows.
        """
        self._listener = listener

    def edge_weight(self, edge: DepEdge) -> int:
        """Minimum start-to-start separation the edge imposes."""
        if edge.kind is DepKind.FLOW:
            return self.machine.exec_time(edge.src) + edge.delay
        return 0

    def _sync(self) -> None:
        """Drop derived caches if the DDG changed under us.

        Fulfilment and issue times are facts about the schedule, not the
        graph, so they survive; the per-instruction counters and earliest
        starts are derived from edges and must be rebuilt lazily.
        """
        if self._ddg_version != self.ddg.version:
            self._ddg_version = self.ddg.version
            self._blocked.clear()
            self._earliest.clear()
            self.invalidations += 1

    # -- pass lifecycle -----------------------------------------------------

    def begin_block(self, *, carry_cycles: int | None = None) -> None:
        """Start a new block pass.

        With ``carry_cycles`` (the schedule length of the pass that just
        ended, when that block is a control-flow predecessor of the new
        one), the previous pass's issue times are carried over shifted by
        that length: an instruction issued at its local cycle ``c``
        appears to the new pass as issued at ``c - carry_cycles``.  This
        makes delays that straddle the block boundary visible -- e.g. a
        compare at the end of the predecessor holds this block's branch
        back for the remaining delay cycles, which is exactly the window
        the rotated-loop second pass fills with next-iteration instructions
        (the paper's partial software pipelining).  Older passes stop
        constraining timing entirely.
        """
        if carry_cycles is None:
            self._carry_start = {}
        else:
            self._carry_start = {
                key: start - carry_cycles
                for key, start in self._local_start.items()
            }
        self._local_start.clear()
        # every cached earliest start was relative to the old pass's clock
        self._earliest.clear()

    # -- state transitions ------------------------------------------------------

    def mark_prefulfilled(self, ins: Instruction) -> None:
        """``ins`` completed in an earlier block (or is an abstract-loop
        barrier whose node was passed): fulfilled, timing-neutral."""
        self._sync()
        if id(ins) in self._fulfilled:
            return
        self._fulfilled.add(id(ins))
        blocked = self._blocked
        listener = self._listener
        for edge in self.ddg.succs(ins):
            key = id(edge.dst)
            if key in blocked:
                count = blocked[key] - 1
                blocked[key] = count
                if count == 0 and listener is not None:
                    listener(edge.dst)

    def mark_issued(self, ins: Instruction, cycle: int) -> None:
        self._sync()
        first = id(ins) not in self._fulfilled
        self._fulfilled.add(id(ins))
        self._local_start[id(ins)] = cycle
        blocked = self._blocked
        earliest = self._earliest
        listener = self._listener
        exec_time = self.machine.exec_time
        flow = DepKind.FLOW
        for edge in self.ddg.succs(ins):
            key = id(edge.dst)
            if first and key in blocked:
                count = blocked[key] - 1
                blocked[key] = count
                if count == 0 and listener is not None:
                    listener(edge.dst)
            if key in earliest:
                # edge_weight inlined: issue-time fan-out is a hot path
                if edge.kind is flow:
                    bound = cycle + exec_time(edge.src) + edge.delay
                else:
                    bound = cycle
                if bound > earliest[key]:
                    earliest[key] = bound

    # -- queries -----------------------------------------------------------------

    def is_fulfilled(self, ins: Instruction) -> bool:
        return id(ins) in self._fulfilled

    def deps_satisfied(self, ins: Instruction) -> bool:
        """Are all dependence predecessors of ``ins`` fulfilled?"""
        self._sync()
        count = self._blocked.get(id(ins))
        if count is None:
            fulfilled = self._fulfilled
            count = sum(
                1 for edge in self.ddg.preds(ins)
                if id(edge.src) not in fulfilled
            )
            self._blocked[id(ins)] = count
        return count == 0

    def earliest_start(self, ins: Instruction) -> int:
        """Earliest cycle ``ins`` may start in the current pass, assuming
        :meth:`deps_satisfied`.  Pre-fulfilled predecessors contribute 0."""
        self._sync()
        cached = self._earliest.get(id(ins))
        if cached is not None:
            return cached
        earliest = 0
        local = self._local_start
        carry = self._carry_start
        for edge in self.ddg.preds(ins):
            start = local.get(id(edge.src))
            if start is None:
                start = carry.get(id(edge.src))
            if start is not None:
                bound = start + self.edge_weight(edge)
                if bound > earliest:
                    earliest = bound
        self._earliest[id(ins)] = earliest
        return earliest

    def start_of(self, ins: Instruction) -> int | None:
        """Issue cycle within the current pass (None if not issued here)."""
        return self._local_start.get(id(ins))

