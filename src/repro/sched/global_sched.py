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

Step 3 is the Section 5.1 scan itself, run on the struct-of-arrays
dependence state of :mod:`repro.sched.soa`: each scan point walks the
block's unissued candidates in collection order, keeps those whose
dependence predecessors have all issued and whose earliest start is
reached (a speculative one must also pass the Section 5.3 veto, or be
admitted by a Section 4.2 rename), and issues the smallest priority row
that has a free unit.  A traced, verified compile replays each sweep's
decision events through the order checker (:mod:`repro.verify.order`),
which recomputes readiness, D and CP from their definitions and holds
every issue to the Section 5.2 order.
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
from ..pdg.data_deps import refresh_edge
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
from .soa import DenseDependenceState
from .speculation import LiveOnExitTracker, try_rename_for_motion

#: fixed unit order for the flattened per-cycle free-slot arrays
_UNIT_LIST = tuple(UnitType)

#: the full decision order of a priority row: duplication class first
#: (a global_sched refinement), then the Section 5.2 steps
_FULL_PRIORITY_STEPS = ("duplication-class", *PRIORITY_STEPS)

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

    ``priority_fn(ins, useful, priorities) -> tuple`` overrides the
    Section 5.2 decision order; the heuristic-ordering ablation bench
    uses it (the paper: "experimentation and tuning are needed").  Its
    keys are compared as tuples, smaller first, and are taken once per
    block pass (:func:`priority_key` is the default).

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
        # control actually flows that way (see
        # DenseDependenceState.begin_block).
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
    #: this pass (the scan re-judges them at every scan point)
    vetoes_logged: set[int] = set()

    # One slot per candidate in collection order, so a slot number is
    # also the tie-break.  The own block comes first and its terminator
    # last within it.  Priority rows are static per block pass
    # (usefulness, D/CP and the uid never change; renames keep the uid);
    # duplication is the costliest class and ranks after the rest.
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
        rows = [(1 if c.duplicate_into else 0,
                 *priority_fn(c.ins, useful=c.useful, priorities=priorities))
                for c in cands]
    idx = state.indices([c.ins for c in cands])
    units = [c.ins.unit.index for c in cands]
    #: speculative candidates answer to the Section 5.3 veto; duplication
    #: needs none (every path into the join still runs a copy)
    veto = [not (c.useful or c.duplicate_into) for c in cands]
    n_own = len(block.instrs)
    terminator = block.terminator
    term = n_own - 1 if terminator is not None else -1
    term_idx = idx[term] if term >= 0 else -1
    #: the unissued candidates in collection order, the terminator and
    #: foreign branches aside (branches never move)
    walk = [seq for seq, c in enumerate(cands)
            if seq != term and not c.ins.is_branch]
    dups = [seq for seq in walk if cands[seq].duplicate_into]
    issued = bytearray(len(cands))
    own_left = n_own
    issued_order: list[Instruction] = []

    # Definition 6 extension: a block may stay open for a few extra
    # cycles to catch join instructions that are about to become ready
    # (otherwise blocks whose own work finishes instantly -- an arm's
    # single AI plus its jump -- would never host a duplicated motion).
    fill_budget = _DUP_FILL_WINDOW if dups else 0

    def dup_fill_wanted(at_cycle: int) -> bool:
        if fill_budget <= 0:
            return False
        state.sync()  # a duplication may just have mutated the graph
        blocked, earliest = state.blocked, state.earliest
        for s in dups:
            i = idx[s]
            if not issued[s] and (i < 0 or (not blocked[i] and
                                            earliest[i] <= at_cycle + 1)):
                return True
        return False

    blocks_motion = live_tracker.blocks_motion
    unit_counts = [machine.unit_count(unit) for unit in _UNIT_LIST]
    cycle = 0
    done = not n_own
    while not done:
        free = unit_counts.copy()
        budget = machine.total_issue_width
        issued_count = 0
        version = pdg.ddg.version
        hold_for_dup = dup_fill_wanted(cycle)

        first_scan = True
        while budget > 0:
            # one scan point: the ready list in collection order
            state.sync()
            blocked = state.blocked
            earliest = state.earliest
            ready = []
            for seq in walk:
                i = idx[seq]
                if i >= 0 and (blocked[i] or earliest[i] > cycle):
                    continue
                if veto[seq] and blocks_motion(cands[seq].ins, label):
                    if not _renamed_past_veto(
                            cands[seq], label, pdg, live_tracker,
                            rename_on_demand, vetoes_logged, tracer,
                            metrics):
                        continue
                    # judge the rest of the scan on the renamed graph
                    state.sync()
                    blocked = state.blocked
                    earliest = state.earliest
                ready.append(seq)
            term_ready = (
                own_left == 1 and term >= 0 and not hold_for_dup
                and (term_idx < 0 or (not blocked[term_idx]
                                      and earliest[term_idx] <= cycle))
            )
            if first_scan and observing:
                # the first scan point of the cycle is the pressure
                # snapshot: later ones see candidates unlocked mid-cycle
                n_ready = len(ready) + term_ready
                if tracer.enabled:
                    tracer.emit(CycleAdvance(label=label, cycle=cycle,
                                             ready=n_ready))
                if metrics.enabled:
                    metrics.observe("sched.ready", n_ready)
            first_scan = False
            seq = _select(ready, rows, units, free)
            # the terminator closes the block: it issues last, and only
            # when it outranks every other choice
            if (term_ready and free[units[term]] > 0
                    and (seq < 0 or rows[term] < rows[seq])):
                seq = term
            if seq >= 0:
                # issue!
                cand = cands[seq]
                ins = cand.ins
                free[units[seq]] -= 1
                budget -= 1
                if tracer.enabled:
                    ranked = sorted([term, *ready] if term_ready else ready,
                                    key=rows.__getitem__)
                    pos = ranked.index(seq)
                    _trace_issue(tracer, label, cycle, machine, cands, rows,
                                 seq, ranked[pos + 1]
                                 if pos + 1 < len(ranked) else -1)
                issued[seq] = 1
                if seq != term:
                    walk.remove(seq)
                i = idx[seq]
                if i >= 0:
                    state.mark_issued_idx(i, cycle)
                issued_order.append(ins)
                if seq < n_own:
                    own_left -= 1
                issued_count += 1
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
                done = seq == term
            if (not own_left and terminator is None
                    and not dup_fill_wanted(cycle)):
                done = True
            if done or seq < 0:
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
        if not own_left or (own_left == 1 and term >= 0):
            fill_budget -= 1  # this cycle was borrowed for duplication
        # stuck after an idle cycle unless a duplication hold keeps the
        # block open (it expires with the fill budget), a rename changed
        # the graph, something ready has a unit on this machine, or some
        # start lies ahead
        if not (issued_count or hold_for_dup or pdg.ddg.version != version
                or _select(ready, rows, units, unit_counts) >= 0
                or _waiting_on_time(walk, idx, state, cycle)
                or (own_left == 1 and term_idx >= 0
                    and _waiting_on_time([term], idx, state, cycle))):
            stuck = sorted(f"I{cands[s].ins.uid}"
                           for s in range(n_own) if not issued[s])
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


def _select(ready: list[int], rows: list, units: list[int],
            free: list[int]) -> int:
    """The Section 5.2 pick from a ready list in collection order: the
    candidate with the smallest priority row whose unit has a free slot,
    the earlier one on a tie; -1 when none can issue."""
    best = -1
    for seq in ready:
        if free[units[seq]] > 0 and (best < 0 or rows[seq] < rows[best]):
            best = seq
    return best


def _waiting_on_time(seqs, idx, state: DenseDependenceState,
                     cycle: int) -> bool:
    """Has one of ``seqs`` every dependence met but its earliest start
    still ahead of ``cycle``?"""
    blocked, earliest = state.blocked, state.earliest
    return any(idx[s] >= 0 and not blocked[idx[s]]
               and earliest[idx[s]] > cycle for s in seqs)


def _renamed_past_veto(cand: Candidate, label: str, pdg: RegionPDG,
                       live_tracker: LiveOnExitTracker,
                       rename_on_demand: bool, vetoes_logged: set[int],
                       tracer, metrics) -> bool:
    """A speculative candidate the Section 5.3 veto keeps out of
    ``label``: True when a Section 4.2 rename of its clashing definitions
    admits it after all (the rename changes the graph); otherwise the
    veto is reported, once per candidate per block pass."""
    ins = cand.ins
    if not rename_on_demand:
        _note_veto(tracer, metrics, vetoes_logged, live_tracker, cand, label)
        return False
    observing = tracer.enabled or metrics.enabled
    regs = live_tracker.blocking_regs(ins, label) if observing else ()
    if not try_rename_for_motion(ins, pdg.func.block(cand.home), label,
                                 live_tracker, pdg.ddg, pdg.func,
                                 pdg.machine):
        _note_veto(tracer, metrics, vetoes_logged, live_tracker,
                   cand, label, regs=regs)
        return False
    # the rename mutated the instruction (and the DDG), so this veto
    # cannot re-trigger: one event per successful rename
    if tracer.enabled:
        tracer.emit(SpeculationRenamed(
            label=label, uid=ins.uid, opcode=ins.opcode.mnemonic,
            home=cand.home, regs=tuple(str(r) for r in regs)))
    if metrics.enabled:
        metrics.inc("sched.speculation.renamed")
    return True


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


def _trace_issue(tracer, label: str, cycle: int, machine, cands, rows,
                 seq: int, runner: int) -> None:
    """Emit the issue of slot ``seq`` and, when a runner-up ``runner``
    was waiting (-1: none), which step of the decision order separated
    the two."""
    cand = cands[seq]
    klass = ("own" if cand.home == label
             else "useful" if cand.useful
             else "duplicated" if cand.duplicate_into
             else "speculative")
    tracer.emit(Issue(label=label, cycle=cycle, uid=cand.ins.uid,
                      opcode=cand.ins.opcode.mnemonic,
                      unit=cand.ins.unit.value, home=cand.home, klass=klass,
                      exec_cycles=machine.exec_time(cand.ins)))
    if runner >= 0:
        step = deciding_step(rows[seq], rows[runner], _FULL_PRIORITY_STEPS)
        tracer.emit(PriorityDecision(
            label=label, cycle=cycle, winner_uid=cand.ins.uid,
            runner_up_uid=cands[runner].ins.uid, step=step))


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
            refresh_edge(pdg.ddg, existing, copy, pdg.machine)
        pred.insert_before_terminator(copy)
        # the join's remaining instructions that depended on the original
        # must now also wait for (and stay below) the copy
        for edge in tuple(pdg.ddg.succs(cand.ins)):
            pdg.ddg.add_edge(copy, edge.dst, edge.kind, edge.delay, edge.reg)
        if pred_label in report.block_cycles:
            # that block's pass already ran: the copy stays at its end,
            # and downstream readiness must not wait on it forever
            state.mark_prefulfilled(copy)
