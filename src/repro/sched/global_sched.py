"""The global scheduling top-level process (Section 5.1).

Blocks of a region are visited in topological order.  For each block ``A``:

1. the candidate blocks ``C(A)`` are derived from the CSPDG (equivalent
   blocks for useful motion; immediate CSPDG successors for 1-branch
   speculative motion),
2. candidate instructions are collected (calls never move globally, stores
   never move speculatively, branches never move),
3. instructions are issued cycle by cycle against the parametric machine
   description: each cycle, ready candidates (all dependence predecessors
   fulfilled, earliest start reached) are issued into free functional-unit
   slots in the priority order of Section 5.2,
4. a speculative candidate is additionally required not to define any
   register live on exit from ``A``, with liveness updated dynamically
   after each speculative motion (Section 5.3),
5. ``A``'s terminator issues last, closing the block; foreign instructions
   that were issued are physically moved into ``A``.

The result: "the instructions in A are reordered and there might be
instructions external to A that are physically moved into A."

Step 3's inner loop is **event-driven** and runs on **struct-of-arrays
storage** (:mod:`repro.sched.soa`): the region's instructions are interned
to dense ints, dependence counters and earliest starts live in flat
``array('i')`` tables over a CSR snapshot of the DDG, and candidates enter
per-unit ready heaps exactly once -- when their last dependence
predecessor fulfills -- keyed by priority tuples *packed into single
ints* at collection time, with future earliest starts absorbed by a
timing wheel and speculative candidates re-judged only when a motion
actually grew a live-on-exit set their definitions appear in.  The seed's
scan-driven loop survives only as the test oracle in
:mod:`repro.sched.reference`; both produce byte-identical schedules,
motions and traces (``tests/sched/test_event_scan_equivalence.py``).

Packing keys at collection time is what makes ``priority_fn`` static by
contract: it must return a tuple of ints, of one length for every
instruction, fixed for the whole block pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.instruction import Instruction
from ..ir.opcodes import UnitType
from ..obs.events import (
    BlockBegin,
    BlockEnd,
    CandidateBlocksComputed,
    CandidatesCollected,
    CycleAdvance,
    Issue,
    MotionRecorded,
    PriorityDecision,
    RegionEnter,
    RegionExit,
    SpeculationRejected,
    SpeculationRenamed,
    UnitOccupancy,
)
from ..obs.metrics import NULL_METRICS
from ..obs.tracer import NULL_TRACER
from ..pdg.pdg import RegionPDG
from ..pdg.data_deps import DepKind
from .candidates import (
    Candidate,
    ScheduleLevel,
    candidate_blocks,
    collect_candidates,
    collect_duplication_candidates,
)
from .heuristics import (
    PRIORITY_STEPS,
    compute_region_priorities,
    deciding_step,
    machine_free_exec,
    priority_key,
)
from .soa import DenseDependenceState, DenseReadyQueue, pack_rows
from .soa import _ISSUED as _SEQ_ISSUED
from .speculation import LiveOnExitTracker, try_rename_for_motion

#: fixed unit order for the flattened per-cycle free-slot arrays
_UNIT_LIST = tuple(UnitType)

#: the full decision order of the sorted ready list: duplication class
#: first (a global_sched refinement), then the Section 5.2 steps
_FULL_PRIORITY_STEPS = ("duplication-class", *PRIORITY_STEPS)

#: Safety valve: a block pass that stalls this many consecutive cycles
#: without issuing anything indicates a dependence-state bug.
_MAX_STALL = 10_000

#: How many extra cycles a block may stay open to host duplicated motion
#: (Definition 6); bounds the code-size / schedule-length trade.
_DUP_FILL_WINDOW = 8


@dataclass(frozen=True)
class Motion:
    """One inter-block code motion performed by the scheduler."""

    uid: int
    opcode: str
    src: str
    dst: str
    speculative: bool
    #: blocks that received copies (Definition 6 duplication), if any
    duplicated_into: tuple[str, ...] = ()

    @property
    def duplicated(self) -> bool:
        return bool(self.duplicated_into)

    def __repr__(self) -> str:
        kind = "spec" if self.speculative else "useful"
        if self.duplicated:
            kind = f"dup[{','.join(self.duplicated_into)}]"
        return f"<Motion I{self.uid} {self.opcode} {self.src}->{self.dst} {kind}>"


@dataclass
class RegionScheduleReport:
    """What happened while scheduling one region."""

    header: str
    level: ScheduleLevel
    motions: list[Motion] = field(default_factory=list)
    #: local schedule length (cycles) per block, in visit order
    block_cycles: dict[str, int] = field(default_factory=dict)

    @property
    def useful_motions(self) -> list[Motion]:
        return [m for m in self.motions if not m.speculative]

    @property
    def speculative_motions(self) -> list[Motion]:
        return [m for m in self.motions if m.speculative]


def schedule_region(
    pdg: RegionPDG,
    level: ScheduleLevel,
    live_tracker: LiveOnExitTracker,
    *,
    max_speculation: int = 1,
    rename_on_demand: bool = True,
    priority_fn=None,
    allow_duplication: bool = False,
    block_filter=None,
    region_kind: str = "region",
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> RegionScheduleReport:
    """Globally schedule one region in place.  Returns a report.

    ``rename_on_demand`` enables the SSA-flavoured renaming of Section 4.2:
    a speculative candidate whose definition clashes with a live-on-exit
    register gets a fresh name when its def-use web is block-local (this is
    what turns I12's ``cr6`` into ``cr5`` in the paper's Figure 6).

    ``priority_fn(ins, useful, priorities) -> tuple[int, ...]`` overrides
    the Section 5.2 decision order; the heuristic-ordering ablation bench
    uses it (the paper: "experimentation and tuning are needed").  Its
    tuples must all have one length and stay fixed for the block pass
    (:func:`priority_key` is the default).

    ``tracer``/``metrics`` observe every decision (see :mod:`repro.obs`);
    the no-op defaults cost one guarded attribute load per site and must
    never perturb scheduling.
    """
    report = RegionScheduleReport(header=pdg.header, level=level)
    if level is ScheduleLevel.NONE:
        return report
    if tracer.enabled:
        tracer.emit(RegionEnter(header=pdg.header, region_kind=region_kind,
                                level=level.value,
                                blocks=tuple(pdg.topo_labels)))
    if metrics.enabled:
        metrics.inc("sched.regions")

    ddg_blocks = [pdg.block(label) for label in pdg.topo_labels]
    priorities = compute_region_priorities(ddg_blocks, pdg.ddg, pdg.machine)

    state = DenseDependenceState(pdg.ddg, pdg.machine, metrics)

    previous: str | None = None
    for node in pdg.topo_labels:
        if pdg.is_abstract(node):
            # Passing an inner loop: its barrier is now "done", releasing
            # dependences of downstream instructions on the loop's effects.
            for barrier in pdg.block(node).instrs:
                state.mark_prefulfilled(barrier)
            previous = None  # timing does not carry across opaque loops
            continue
        # Carry the previous pass's timing across the block boundary when
        # control actually flows that way (see DependenceState.begin_block).
        carry = None
        if previous is not None and previous in pdg.forward.preds(node):
            carry = report.block_cycles.get(previous)
        _schedule_block(pdg, node, level, live_tracker, state, priorities,
                        max_speculation, rename_on_demand, carry, report,
                        priority_fn or priority_key, allow_duplication,
                        block_filter, tracer, metrics)
        previous = node
    if metrics.enabled and state.invalidations:
        metrics.inc("sched.ddg_invalidations", state.invalidations)
    if tracer.enabled:
        tracer.emit(RegionExit(header=pdg.header, motions=len(report.motions),
                               speculative_motions=len(
                                   report.speculative_motions)))
    return report


def _schedule_block(
    pdg: RegionPDG,
    label: str,
    level: ScheduleLevel,
    live_tracker: LiveOnExitTracker,
    state: DenseDependenceState,
    priorities: dict[int, tuple[int, int]],
    max_speculation: int,
    rename_on_demand: bool,
    carry_cycles: int | None,
    report: RegionScheduleReport,
    priority_fn,
    allow_duplication: bool,
    block_filter=None,
    tracer=NULL_TRACER,
    metrics=NULL_METRICS,
) -> None:
    func = pdg.func
    block = func.block(label)
    machine = pdg.machine
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
    observing = tracer.enabled or metrics.enabled
    if observing:
        _note_block_entry(tracer, metrics, label, carry_cycles,
                          equiv, speculative, pending)
    #: ids of instructions whose live-on-exit veto was already reported
    #: this pass (re-judgments would otherwise repeat it)
    vetoes_logged: set[int] = set()
    terminator = block.terminator
    term_id = id(terminator) if terminator is not None else None
    own_remaining = {id(ins) for ins in block.instrs}
    issued_order: list[Instruction] = []

    # priority rows are static per block pass (usefulness, D/CP and the
    # uid tie-break never change; renames keep the uid): compute each
    # candidate's full sort tuple exactly once at collection time, then
    # pack the rows into single ints so the heaps compare machine ints
    cands = list(pending.values())
    if priority_fn is priority_key:
        get_pr = priorities.get
        rows = []
        for c in cands:
            ins = c.ins
            pr = get_pr(id(ins))
            d, cp = pr if pr is not None else (0, machine_free_exec(ins))
            rows.append((1 if c.duplicate_into else 0,
                         0 if c.useful else 1, -d, -cp, ins.uid))
    else:
        keys = [priority_fn(c.ins, useful=c.useful, priorities=priorities)
                for c in cands]
        _check_priority_keys(keys)
        rows = [(1 if c.duplicate_into else 0, *key)
                for c, key in zip(cands, keys)]
    pkeys = pack_rows(rows)
    if metrics.enabled:
        metrics.inc("sched.soa.packed_keys", len(rows))
    if tracer.enabled:
        # decision tracing wants the unpacked (dup-class, priority-tuple)
        # form; rebuilt off the hot path, only when a tracer listens
        nested_keys = [(row[0], tuple(row[1:])) for row in rows]

    queue = DenseReadyQueue(state, cands, pkeys, terminator, metrics)
    term_seq = queue.term_seq
    dup_seqs = queue.duplication_seqs
    seq_status = queue.status
    seq_units = queue.units
    seq_idx = queue.seq_idx
    #: how many candidates the seed scan would revisit per scan point
    unissued = len(pending)

    # Definition 6 extension: a block may stay open for a few extra
    # cycles to catch join instructions that are about to become ready
    # (otherwise blocks whose own work finishes instantly -- an arm's
    # single AI plus its jump -- would never host a duplicated motion).
    fill_budget = _DUP_FILL_WINDOW if dup_seqs else 0

    def dup_fill_wanted(at_cycle: int) -> bool:
        if fill_budget <= 0:
            return False
        state._sync()  # a duplication may just have mutated the graph
        limit = at_cycle + 1
        for s in dup_seqs:
            if seq_status[s] == _SEQ_ISSUED:
                continue
            i = seq_idx[s]
            if i < 0 or (state.deps_satisfied_idx(i)
                         and state.earliest_start_idx(i) <= limit):
                return True
        return False

    def trace_snapshot(chosen_seq: int, with_term: bool):
        """The seed scheduler's sorted ready list, for issue tracing."""
        snap = queue.ready_seqs(include_term=with_term)
        pos = snap.index(chosen_seq)
        keys = {id(queue.cands[s].ins): nested_keys[s] for s in snap}
        return ([queue.cands[s] for s in snap], pos,
                lambda c: keys[id(c.ins)])

    term_idx = -1 if terminator is None else state.index_of(terminator)
    unit_counts = [machine.unit_count(unit) for unit in _UNIT_LIST]
    cycle = 0
    stall = 0
    done = not own_remaining
    try:
        while not done:
            queue.begin_cycle(cycle)
            free = unit_counts.copy()
            budget = machine.total_issue_width
            issued_this_cycle = False
            issued_count = 0
            cycle_traced = False
            hold_for_dup = dup_fill_wanted(cycle)

            progress = True
            while progress and budget > 0:
                progress = False
                queue.scan_start()
                while True:
                    seq = queue.next_evaluation()
                    if seq < 0:
                        break
                    _judge_speculative(seq, queue, live_tracker, label,
                                       pdg, rename_on_demand, vetoes_logged,
                                       tracer, metrics)
                term_ready = (
                    terminator is not None
                    and not hold_for_dup
                    and own_remaining == {term_id}
                    and (term_idx < 0
                         or (state.deps_satisfied_idx(term_idx)
                             and state.earliest_start_idx(term_idx)
                             <= cycle))
                )
                if metrics.enabled:
                    metrics.inc("sched.queue.scan_points")
                    metrics.inc("sched.queue.seed_scan_visits", unissued)
                if not cycle_traced and observing:
                    # the first scan point of the cycle is the pressure
                    # snapshot: later ones see candidates unlocked mid-cycle
                    cycle_traced = True
                    n_ready = queue.ready_count + (1 if term_ready else 0)
                    if tracer.enabled:
                        tracer.emit(CycleAdvance(label=label, cycle=cycle,
                                                 ready=n_ready))
                    if metrics.enabled:
                        metrics.observe("sched.ready", n_ready)
                seq = queue.select(free)
                if (term_ready and free[seq_units[term_seq]] > 0
                        and (seq < 0 or pkeys[term_seq] < pkeys[seq])):
                    seq = term_seq
                if seq >= 0:
                    # issue!
                    cand = queue.cands[seq]
                    ins = cand.ins
                    free[seq_units[seq]] -= 1
                    budget -= 1
                    if tracer.enabled:
                        ready_cands, pos, key_fn = trace_snapshot(
                            seq, term_ready)
                    if seq == term_seq:
                        queue.retire_terminator()
                    else:
                        queue.pop_issue(seq)
                    i = seq_idx[seq]
                    if i >= 0:
                        state.mark_issued_idx(i, cycle)
                    issued_order.append(ins)
                    unissued -= 1
                    own_remaining.discard(id(ins))
                    issued_this_cycle = True
                    issued_count += 1
                    progress = True
                    if tracer.enabled:
                        _trace_issue(tracer, label, cycle, cand, machine,
                                     ready_cands, pos, key_fn)
                    if cand.home != label:
                        is_spec = not cand.useful and not cand.duplicate_into
                        report.motions.append(Motion(
                            ins.uid, ins.opcode.mnemonic,
                            cand.home, label, is_spec,
                            duplicated_into=cand.duplicate_into or (),
                        ))
                        if tracer.enabled:
                            tracer.emit(MotionRecorded(
                                uid=ins.uid,
                                opcode=ins.opcode.mnemonic,
                                src=cand.home, dst=label, speculative=is_spec,
                                duplicated_into=cand.duplicate_into or ()))
                        if metrics.enabled:
                            metrics.inc(
                                "sched.motions.speculative" if is_spec
                                else "sched.motions.duplicated"
                                if cand.duplicate_into
                                else "sched.motions.useful")
                        func.block(cand.home).remove(ins)
                        if cand.duplicate_into:
                            _place_duplicates(pdg, state, cand, report)
                        # Any upward motion extends the moved definition's
                        # live range down to its old home; record it so later
                        # speculative legality checks see fresh liveness.
                        live_tracker.record_motion(ins, cand.home, label)
                        queue.note_liveness_grown(ins.reg_defs())
                    if ins is terminator:
                        done = True
                if (not own_remaining and terminator is None
                        and not dup_fill_wanted(cycle)):
                    done = True
                    break
                if done:
                    break

            if tracer.enabled and issued_count:
                used = {}
                for unit_idx, unit in enumerate(_UNIT_LIST):
                    busy = unit_counts[unit_idx] - free[unit_idx]
                    if busy > 0:
                        used[unit.value] = busy
                tracer.emit(UnitOccupancy(label=label, cycle=cycle, used=used,
                                          issued=issued_count))
            if done:
                report.block_cycles[label] = cycle + 1
                break
            if not own_remaining or own_remaining == {term_id}:
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
    finally:
        queue.detach()

    block.instrs = issued_order
    if tracer.enabled:
        tracer.emit(BlockEnd(label=label,
                             cycles=report.block_cycles.get(label, 0)))
    if metrics.enabled:
        metrics.inc("sched.blocks")


def _check_priority_keys(keys: list) -> None:
    """Hold a custom ``priority_fn`` to the contract :func:`pack_rows`
    relies on: tuples of ints, one length for every instruction (a
    shorter row would be truncated, a float would not pack)."""
    width = len(keys[0]) if keys else 0
    for key in keys:
        if not (isinstance(key, tuple) and len(key) == width
                and all(isinstance(v, int) for v in key)):
            raise TypeError(
                "priority_fn must return a tuple of ints of one length "
                "for every instruction, fixed for the block pass; got "
                f"{key!r} beside {keys[0]!r}")


def _judge_speculative(seq, queue, live_tracker, label, pdg,
                       rename_on_demand, vetoes_logged, tracer, metrics):
    """Judge one speculative candidate's Section 5.3 veto, exactly as the
    scan engine would at the same scan point: pass -> heap, veto ->
    rename attempt (Section 4.2) or park."""
    cand = queue.cands[seq]
    ins = cand.ins
    if not live_tracker.blocks_motion(ins, label):
        queue.promote(seq)
        return
    if not rename_on_demand:
        _note_veto(tracer, metrics, vetoes_logged, live_tracker, cand, label)
        queue.park(seq)
        return
    observing = tracer.enabled or metrics.enabled
    regs = live_tracker.blocking_regs(ins, label) if observing else ()
    renamed = try_rename_for_motion(
        ins, pdg.func.block(cand.home), label, live_tracker,
        pdg.ddg, pdg.func, pdg.machine,
    )
    if not renamed:
        _note_veto(tracer, metrics, vetoes_logged, live_tracker,
                   cand, label, regs=regs)
        queue.park(seq)
        return
    # the rename mutated the instruction (and the DDG), so this veto
    # cannot re-trigger: one event per successful rename
    if observing:
        if tracer.enabled:
            tracer.emit(SpeculationRenamed(
                label=label, uid=ins.uid,
                opcode=ins.opcode.mnemonic, home=cand.home,
                regs=tuple(str(r) for r in regs)))
        if metrics.enabled:
            metrics.inc("sched.speculation.renamed")
    queue.promote(seq)
    queue.note_graph_mutation()


def _note_block_entry(tracer, metrics, label: str, carry_cycles: int | None,
                      equiv: list[str], speculative: list[str],
                      pending: dict[int, Candidate]) -> None:
    """Off-hot-path bookkeeping when a traced/measured block pass opens."""
    own = useful = spec = dup = 0
    for cand in pending.values():
        if cand.home == label:
            own += 1
        elif cand.duplicate_into:
            dup += 1
        elif cand.useful:
            useful += 1
        else:
            spec += 1
    if tracer.enabled:
        tracer.emit(BlockBegin(label=label, carry_cycles=carry_cycles))
        tracer.emit(CandidateBlocksComputed(
            label=label, equiv=tuple(equiv), speculative=tuple(speculative)))
        tracer.emit(CandidatesCollected(label=label, own=own, useful=useful,
                                        speculative=spec, duplication=dup))
    if metrics.enabled:
        metrics.inc("sched.candidates.own", own)
        metrics.inc("sched.candidates.useful", useful)
        metrics.inc("sched.candidates.speculative", spec)
        metrics.inc("sched.candidates.duplication", dup)


def _trace_issue(tracer, label: str, cycle: int, cand: Candidate, machine,
                 ready: list[Candidate], pos: int, sort_key) -> None:
    """Emit the issue event and, when a runner-up was waiting, which step
    of the decision order separated the two."""
    klass = ("own" if cand.home == label
             else "useful" if cand.useful
             else "duplicated" if cand.duplicate_into
             else "speculative")
    tracer.emit(Issue(label=label, cycle=cycle, uid=cand.ins.uid,
                      opcode=cand.ins.opcode.mnemonic,
                      unit=cand.ins.unit.value, home=cand.home, klass=klass,
                      exec_cycles=machine.exec_time(cand.ins)))
    if pos + 1 < len(ready):
        runner_up = ready[pos + 1]
        winner_key, runner_key = sort_key(cand), sort_key(runner_up)
        # flatten (dup-class, priority-tuple) so the step names line up
        step = deciding_step((winner_key[0], *winner_key[1]),
                             (runner_key[0], *runner_key[1]),
                             _FULL_PRIORITY_STEPS)
        tracer.emit(PriorityDecision(
            label=label, cycle=cycle, winner_uid=cand.ins.uid,
            runner_up_uid=runner_up.ins.uid, step=step))


def _note_veto(tracer, metrics, vetoes_logged: set[int] | None,
               live_tracker: LiveOnExitTracker, cand: Candidate, label: str,
               regs: tuple = ()) -> None:
    """Report a Section 5.3 live-on-exit veto, once per candidate per
    block pass (the readiness scan re-evaluates every cycle)."""
    if not (tracer.enabled or metrics.enabled):
        return
    if vetoes_logged is None or id(cand.ins) in vetoes_logged:
        return
    vetoes_logged.add(id(cand.ins))
    if not regs:
        regs = live_tracker.blocking_regs(cand.ins, label)
    if tracer.enabled:
        tracer.emit(SpeculationRejected(
            label=label, uid=cand.ins.uid, opcode=cand.ins.opcode.mnemonic,
            home=cand.home, regs=tuple(str(r) for r in regs)))
    if metrics.enabled:
        metrics.inc("sched.speculation.rejected_live")


def _place_duplicates(pdg: RegionPDG, state,
                      cand: Candidate, report: RegionScheduleReport) -> None:
    """Append copies of a duplicated instruction to the join's other
    predecessors and thread them into the dependence graph so later block
    passes order them correctly."""
    func = pdg.func
    for pred_label in cand.duplicate_into:
        pred = func.block(pred_label)
        copy = cand.ins.clone()
        copy.comment = (cand.ins.comment + " (dup)").strip()
        func.assign_uid(copy)
        func.note_registers(copy)
        # dependences from the predecessor's existing instructions
        for existing in pred.instrs:
            _add_pair_edges(pdg, existing, copy)
        pred.insert_before_terminator(copy)
        # the join's remaining instructions that depended on the original
        # must now also wait for (and stay below) the copy
        for edge in tuple(pdg.ddg.succs(cand.ins)):
            pdg.ddg.add_edge(copy, edge.dst, edge.kind, edge.delay, edge.reg)
        if pred_label in report.block_cycles:
            # that block's pass already ran: the copy stays at its end,
            # and downstream readiness must not wait on it forever
            state.mark_prefulfilled(copy)


def _add_pair_edges(pdg: RegionPDG, src, dst) -> None:
    """Conservative dependence edges ``src -> dst`` from current operands."""
    machine = pdg.machine
    src_defs = set(src.reg_defs())
    src_uses = set(src.reg_uses())
    for reg in dst.reg_uses():
        if reg in src_defs:
            pdg.ddg.add_edge(src, dst, DepKind.FLOW,
                             machine.flow_delay(src, dst, reg), reg)
    for reg in dst.reg_defs():
        if reg in src_uses:
            pdg.ddg.add_edge(src, dst, DepKind.ANTI, 0, reg)
        if reg in src_defs:
            pdg.ddg.add_edge(src, dst, DepKind.OUTPUT, 0, reg)
    if (src.touches_memory and dst.touches_memory
            and (src.writes_memory or dst.writes_memory)):
        pdg.ddg.add_edge(src, dst, DepKind.MEM, 0)
