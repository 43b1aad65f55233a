"""Test oracles for the scheduling layer.

The shipped scheduler runs one engine (:mod:`repro.sched.global_sched`
over :mod:`repro.sched.soa`).  This module keeps the seed's scan-driven
implementations as oracles that reach the same schedules by a different
algorithm:

* :func:`schedule_block_scan` -- the original Section 5.1 block pass over
  the dict :class:`~repro.sched.ready.DependenceState`: every inner
  iteration of every cycle rescans **all** pending candidates
  (readiness, earliest start, live-on-exit veto) and re-sorts the ready
  list by calling ``priority_fn`` afresh;
* :class:`LiveOnExitTrackerReference` -- the seed liveness tracker whose
  ``record_motion`` runs two full ``reachable_from`` traversals per motion
  (the shipped tracker intersects precomputed reachability bitsets);
* :func:`schedule_block_reference` -- the seed basic-block list scheduler.

The class of bug they exist to catch is the one the schedule verifier
cannot see: a schedule that is *legal* -- every dependence, resource and
live-on-exit rule holds -- but breaks the Section 5.2 decision order or
the decision trace (a candidate judged, vetoed, renamed or issued at a
different scan point than the paper's loop would have).  The verifier
accepts such a schedule; byte-identity of assembly and traces against
this oracle does not (``tests/sched/test_event_scan_equivalence.py``,
the scorecard's ``engines_agree`` cell).
"""

from __future__ import annotations

from contextlib import contextmanager

from ..ir.instruction import Instruction
from ..ir.opcodes import UnitType
from ..obs.events import CycleAdvance, MotionRecorded, SpeculationRenamed
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pdg.pdg import RegionPDG
from .candidates import (
    Candidate,
    candidate_blocks,
    collect_candidates,
    collect_duplication_candidates,
)
from .ready import DependenceState
from .speculation import LiveOnExitTracker, try_rename_for_motion


def _dict_state(ddg, machine, metrics) -> DependenceState:
    """The dict state, built with the dense state's signature."""
    return DependenceState(ddg, machine)


@contextmanager
def scan_scheduler():
    """Schedule with the scan block pass and the dict dependence state
    for the dynamic extent, by swapping them in for the names
    :func:`repro.sched.global_sched.schedule_region` calls."""
    from . import global_sched

    saved = (global_sched._schedule_block, global_sched.DenseDependenceState)
    global_sched._schedule_block = schedule_block_scan
    global_sched.DenseDependenceState = _dict_state
    try:
        yield
    finally:
        (global_sched._schedule_block,
         global_sched.DenseDependenceState) = saved


@contextmanager
def reference_scheduler():
    """The full seed scheduler arm: :func:`scan_scheduler` *and* the
    traversal-based liveness tracker, for the dynamic extent."""
    from . import driver

    with scan_scheduler():
        saved = driver.LiveOnExitTracker
        driver.LiveOnExitTracker = LiveOnExitTrackerReference
        try:
            yield
        finally:
            driver.LiveOnExitTracker = saved


class LiveOnExitTrackerReference(LiveOnExitTracker):
    """Seed live-on-exit tracker: per-motion graph traversals.

    ``record_motion`` re-walks the forward graph from the motion target and
    the reverse graph from the source on *every* motion, exactly as the
    original tracker did before reachability was precomputed as bitsets.
    """

    def __init__(self, live_out, forward, metrics=NULL_METRICS,
                 intern_cache=None):
        # intern_cache is accepted for interface compatibility with the
        # optimized tracker and ignored: the reference re-walks per motion
        super().__init__(live_out, forward)
        self._reverse = forward.reversed()

    def blocks_motion(self, ins: Instruction, target: str) -> bool:
        """Seed Section 5.3 veto: a set-membership loop per query (the
        optimized tracker answers from interned register bitmasks)."""
        live = self._live_out.get(target, set())
        return any(reg in live for reg in ins.reg_defs())

    def record_motion(self, ins: Instruction, src: str, dst: str) -> None:
        defs = ins.reg_defs()
        if not defs:
            return
        downstream = self._forward.reachable_from(dst)
        upstream = self._reverse.reachable_from(src)
        between = (downstream & upstream) - {src}
        between.add(dst)
        for label in between:
            live = self._live_out.setdefault(label, set())
            live.update(defs)


def schedule_block_scan(
    pdg: RegionPDG,
    label: str,
    level,
    live_tracker: LiveOnExitTracker,
    state: DependenceState,
    priorities: dict[int, tuple[int, int]],
    max_speculation: int,
    rename_on_demand: bool,
    carry_cycles: int | None,
    report,
    priority_fn,
    allow_duplication: bool,
    block_filter=None,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> None:
    """One block pass of Section 5.1, scan-driven (the seed inner loop)."""
    from .global_sched import (
        _DUP_FILL_WINDOW,
        _MAX_STALL,
        Motion,
        _note_block_entry,
        _place_duplicates,
        _trace_issue,
    )
    from ..obs.events import BlockEnd, UnitOccupancy

    func = pdg.func
    block = func.block(label)
    state.begin_block(carry_cycles=carry_cycles)

    equiv, speculative = candidate_blocks(pdg, label, level,
                                          max_speculation=max_speculation,
                                          block_filter=block_filter)
    pending: dict[int, Candidate] = {
        id(c.ins): c
        for c in collect_candidates(pdg, label, equiv, speculative)
    }
    if allow_duplication:
        for cand in collect_duplication_candidates(pdg, label):
            pending.setdefault(id(cand.ins), cand)
    if tracer.enabled or metrics.enabled:
        _note_block_entry(tracer, metrics, label, carry_cycles,
                          equiv, speculative, pending)
    #: ids of instructions whose live-on-exit veto was already reported
    #: this pass (the readiness scan re-evaluates them every cycle)
    vetoes_logged: set[int] = set()
    terminator = block.terminator
    own_remaining = {id(ins) for ins in block.instrs}
    issued_order: list[Instruction] = []
    machine = pdg.machine

    fill_budget = _DUP_FILL_WINDOW if any(
        c.duplicate_into for c in pending.values()) else 0

    def dup_fill_wanted(at_cycle: int) -> bool:
        if fill_budget <= 0:
            return False
        return any(
            c.duplicate_into
            and state.deps_satisfied(c.ins)
            and state.earliest_start(c.ins) <= at_cycle + 1
            for c in pending.values()
        )

    def sort_key(c: Candidate):
        # duplication is the costliest class: it ranks after useful
        # and speculative candidates (the paper's conservative order)
        return (1 if c.duplicate_into else 0,
                priority_fn(c.ins, useful=c.useful, priorities=priorities))

    cycle = 0
    stall = 0
    done = not own_remaining
    while not done:
        free = {unit: machine.unit_count(unit) for unit in UnitType}
        budget = machine.total_issue_width
        issued_this_cycle = False
        issued_count = 0
        cycle_traced = False
        hold_for_dup = dup_fill_wanted(cycle)

        progress = True
        while progress and budget > 0:
            progress = False
            ready = _ready_candidates(
                pending, state, cycle, terminator, own_remaining,
                live_tracker, label, pdg, rename_on_demand,
                hold_terminator=hold_for_dup,
                tracer=tracer, metrics=metrics, vetoes_logged=vetoes_logged,
            )
            ready.sort(key=sort_key)
            if not cycle_traced and (tracer.enabled or metrics.enabled):
                # the first readiness scan of the cycle is the pressure
                # snapshot: later scans see candidates unlocked mid-cycle
                cycle_traced = True
                if tracer.enabled:
                    tracer.emit(CycleAdvance(label=label, cycle=cycle,
                                             ready=len(ready)))
                if metrics.enabled:
                    metrics.observe("sched.ready", len(ready))
            for pos, cand in enumerate(ready):
                unit = cand.ins.unit
                if free.get(unit, 0) <= 0:
                    continue
                # issue!
                free[unit] -= 1
                budget -= 1
                state.mark_issued(cand.ins, cycle)
                issued_order.append(cand.ins)
                del pending[id(cand.ins)]
                own_remaining.discard(id(cand.ins))
                issued_this_cycle = True
                issued_count += 1
                progress = True
                if tracer.enabled:
                    _trace_issue(tracer, label, cycle, cand, machine, ready,
                                 pos, sort_key)
                if cand.home != label:
                    is_spec = not cand.useful and not cand.duplicate_into
                    report.motions.append(Motion(
                        cand.ins.uid, cand.ins.opcode.mnemonic,
                        cand.home, label, is_spec,
                        duplicated_into=cand.duplicate_into or (),
                    ))
                    if tracer.enabled:
                        tracer.emit(MotionRecorded(
                            uid=cand.ins.uid,
                            opcode=cand.ins.opcode.mnemonic,
                            src=cand.home, dst=label, speculative=is_spec,
                            duplicated_into=cand.duplicate_into or ()))
                    if metrics.enabled:
                        metrics.inc(
                            "sched.motions.speculative" if is_spec
                            else "sched.motions.duplicated"
                            if cand.duplicate_into else "sched.motions.useful")
                    func.block(cand.home).remove(cand.ins)
                    if cand.duplicate_into:
                        _place_duplicates(pdg, state, cand, report)
                    # Any upward motion extends the moved definition's live
                    # range down to its old home; record it so later
                    # speculative legality checks see fresh liveness.
                    live_tracker.record_motion(cand.ins, cand.home, label)
                if cand.ins is terminator:
                    done = True
                break  # re-evaluate readiness (0-weight edges) and priorities
            if (not own_remaining and terminator is None
                    and not dup_fill_wanted(cycle)):
                done = True
                break
            if done:
                break

        if tracer.enabled and issued_count:
            used = {
                unit.value: machine.unit_count(unit) - free.get(unit, 0)
                for unit in UnitType
                if machine.unit_count(unit) - free.get(unit, 0) > 0
            }
            tracer.emit(UnitOccupancy(label=label, cycle=cycle, used=used,
                                      issued=issued_count))
        if done:
            report.block_cycles[label] = cycle + 1
            break
        if not own_remaining or own_remaining == {id(terminator)}:
            fill_budget -= 1  # this cycle was borrowed for duplication
        stall = 0 if issued_this_cycle else stall + 1
        if stall > _MAX_STALL:
            stuck = sorted(f"I{pending[i].ins.uid}"
                           for i in own_remaining)
            raise RuntimeError(
                f"scheduler stalled in block {label}: remaining own "
                f"instructions {stuck} never became ready"
            )
        cycle += 1

    block.instrs = issued_order
    if tracer.enabled:
        tracer.emit(BlockEnd(label=label,
                             cycles=report.block_cycles.get(label, 0)))
    if metrics.enabled:
        metrics.inc("sched.blocks")


def _ready_candidates(
    pending: dict[int, Candidate],
    state: DependenceState,
    cycle: int,
    terminator: Instruction | None,
    own_remaining: set[int],
    live_tracker: LiveOnExitTracker,
    label: str,
    pdg: RegionPDG,
    rename_on_demand: bool,
    hold_terminator: bool = False,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
    vetoes_logged: set[int] | None = None,
) -> list[Candidate]:
    """Candidates issuable at ``cycle``.

    The terminator is held back until it is the only own instruction left
    (branches close their block; their original order is preserved), and
    additionally while ``hold_terminator`` keeps the block open for an
    imminent duplicated motion.  Speculative candidates must pass the
    live-on-exit test *now* -- the sets grow as motions happen, so this is
    re-checked at issue time; a candidate blocked only by that test may
    get its definition renamed (Section 4.2's SSA-like renaming) when its
    def-use web is block-local.
    """
    from .global_sched import _note_veto

    ready: list[Candidate] = []
    for cand in pending.values():
        ins = cand.ins
        if terminator is not None and ins is terminator:
            if own_remaining != {id(ins)} or hold_terminator:
                continue
        elif ins.is_branch:
            continue  # foreign branches never move
        if not state.deps_satisfied(ins):
            continue
        if state.earliest_start(ins) > cycle:
            continue
        if (not cand.useful and not cand.duplicate_into
                and live_tracker.blocks_motion(ins, label)):
            # duplication needs no liveness test: every path into the
            # join still executes (a copy of) the definition
            if not rename_on_demand:
                _note_veto(tracer, metrics, vetoes_logged, live_tracker,
                           cand, label)
                continue
            observing = tracer.enabled or metrics.enabled
            regs = (live_tracker.blocking_regs(ins, label)
                    if observing else ())
            renamed = try_rename_for_motion(
                ins, pdg.func.block(cand.home), label, live_tracker,
                pdg.ddg, pdg.func, pdg.machine,
            )
            if not renamed:
                _note_veto(tracer, metrics, vetoes_logged, live_tracker,
                           cand, label, regs=regs)
                continue
            # the rename mutated the instruction, so this branch cannot
            # re-trigger: one event per successful rename
            if observing:
                if tracer.enabled:
                    tracer.emit(SpeculationRenamed(
                        label=label, uid=ins.uid,
                        opcode=ins.opcode.mnemonic, home=cand.home,
                        regs=tuple(str(r) for r in regs)))
                if metrics.enabled:
                    metrics.inc("sched.speculation.renamed")
        ready.append(cand)
    return ready


def schedule_block_reference(block, machine) -> int:
    """The seed basic-block list scheduler, verbatim: every inner
    iteration of every cycle rescans all pending instructions and re-sorts
    the ready list.  ``repro.sched.bb_sched.schedule_block`` re-hosted the
    pass on the dense substrate (CSR DDG, packed int keys, incremental
    readiness); this copy is its equivalence oracle.
    """
    from ..pdg.data_deps import build_block_ddg
    from . import bb_sched
    from .heuristics import local_priorities

    if not block.instrs:
        return 0
    if len(block.instrs) == 1:
        return machine.exec_time(block.instrs[0])

    ddg = build_block_ddg(block, machine)
    priorities = local_priorities(block, ddg, machine)
    state = DependenceState(ddg, machine)
    state.begin_block()
    position = {id(ins): i for i, ins in enumerate(block.instrs)}

    def sort_key(ins):
        d, cp = priorities.get(id(ins), (0, 0))
        return (-d, -cp, position[id(ins)])

    terminator = block.terminator
    remaining = {id(ins) for ins in block.instrs}
    issued: list[Instruction] = []

    cycle = 0
    stall = 0
    while remaining:
        free = {unit: machine.unit_count(unit) for unit in UnitType}
        budget = machine.total_issue_width
        progress = True
        issued_this_cycle = False
        while progress and budget > 0:
            progress = False
            ready = []
            for ins in block.instrs:
                if id(ins) not in remaining:
                    continue
                if ins is terminator and remaining != {id(ins)}:
                    continue
                if not state.deps_satisfied(ins):
                    continue
                if state.earliest_start(ins) > cycle:
                    continue
                ready.append(ins)
            ready.sort(key=sort_key)
            for ins in ready:
                if free.get(ins.unit, 0) <= 0:
                    continue
                free[ins.unit] -= 1
                budget -= 1
                state.mark_issued(ins, cycle)
                issued.append(ins)
                remaining.discard(id(ins))
                progress = True
                issued_this_cycle = True
                break
        if not remaining:
            break
        stall = 0 if issued_this_cycle else stall + 1
        if stall > bb_sched._MAX_STALL:
            raise RuntimeError(
                f"basic-block scheduler stalled in {block.label}")
        cycle += 1

    block.instrs = issued
    return cycle + 1
