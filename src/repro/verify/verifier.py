"""Static verification of global/local schedules.

Given a snapshot of a function *before* a scheduling pass (see
:meth:`repro.ir.Function.clone`) and the function *after* it, the verifier
checks -- without executing anything -- that the pass only did things the
paper allows:

* **skeleton** -- scheduling never creates, removes or re-terminates basic
  blocks ("the original order of branches is preserved", Section 5.1);
* **conservation** -- every instruction survives exactly once (modulo
  Definition 6 duplication), with only its registers possibly renamed;
* **placement** -- an instruction that changed blocks moved within its
  region, into a block for which its home was a legal candidate at the
  requested :class:`~repro.sched.candidates.ScheduleLevel` (equivalent
  blocks for useful motion, dominated blocks at most ``max_speculation``
  CSPDG branches away for speculative motion -- Definitions 4, 6 and 7);
* **dependence** -- every flow/anti/output/memory edge of the region's
  pre-scheduling data dependence graph (built un-reduced, so no edge is
  hidden by transitivity) still runs source-before-destination: same block
  implies earlier index, different blocks imply forward-graph
  reachability.  An edge to or from a collapsed inner loop is judged at
  the loop's pseudo-block (its abstract node in the forward graph), so
  code cannot cross an inner loop it depends on.  Edges legitimately
  dissolved by the scheduler's on-demand renaming (Section 4.2) are
  recognised from the after-side operands and skipped (an inner loop
  keeps its barrier's operands, a conservative summary).  Only what the
  sweep changed is judged.  A region none of whose blocks changed its
  uid order is skipped: each of its intra-block edges still runs forward
  in the original order, and each cross-block edge still joins a pair
  that was forward-reachable when the edge was drawn.  A local sweep
  (``ScheduleLevel.NONE``, no motions, every instruction in its home
  block) is judged block by block from each block's own DDG, without
  any region: with no instruction changing blocks, only intra-block
  edges can break, and a region DDG's intra-block edges are exactly its
  blocks' DDGs.  Block by block (a local sweep, or a block outside every
  region), only the blocks whose uid order changed get a DDG;
* **speculation** -- replaying the recorded motions in issue order against
  a fresh :class:`~repro.sched.speculation.LiveOnExitTracker` (seeded from
  the snapshot's liveness solution, exactly like the scheduling driver),
  every speculative motion must pass the Section 5.3 live-on-exit test at
  the moment it happened.

Flow-edge *delays* impose timing, not ordering: the simulated machine
interlocks (like the RS/6000), so a schedule that ignores a delay is slow,
never wrong.  The verifier therefore enforces delays as ordering
constraints (source strictly before destination) and leaves stall-cycle
accounting to the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfg.graph import ControlFlowGraph
from ..dataflow.liveness import compute_liveness
from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..ir.verify import VerificationError, verify_function
from ..machine.model import MachineModel
from ..pdg.data_deps import DepEdge, DepKind
from ..sched.candidates import ScheduleLevel, candidate_blocks
from ..sched.driver import default_live_at_exit
from ..sched.global_sched import Motion
from ..sched.regions import RegionSpec, build_region_pdg, find_regions
from ..sched.speculation import LiveOnExitTracker


class ScheduleVerificationError(VerificationError):
    """The scheduled function violates a schedule-legality invariant."""

    def __init__(self, report: "VerifyReport"):
        super().__init__(report.format())
        self.report = report


@dataclass(frozen=True)
class VerifyIssue:
    """One violation found by the verifier."""

    #: "skeleton" | "conservation" | "placement" | "dependence" | "speculation"
    kind: str
    message: str
    uid: int | None = None

    def __str__(self) -> str:
        tag = f" (I{self.uid})" if self.uid is not None else ""
        return f"[{self.kind}]{tag} {self.message}"


@dataclass
class VerifyReport:
    """Everything one verification pass looked at, plus what it found."""

    function: str
    level: ScheduleLevel
    issues: list[VerifyIssue] = field(default_factory=list)
    checked_edges: int = 0
    checked_motions: int = 0
    #: regions whose dependences were judged: those with a changed block
    checked_regions: int = 0
    #: what judged the sweep (:mod:`repro.verify.order` says "order check")
    check: str = "schedule verification"

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, message: str, uid: int | None = None) -> None:
        self.issues.append(VerifyIssue(kind, message, uid))

    def raise_if_failed(self) -> "VerifyReport":
        if not self.ok:
            raise ScheduleVerificationError(self)
        return self

    def format(self) -> str:
        head = (f"{self.check} of {self.function} @{self.level.value}: "
                f"{len(self.issues)} issue(s), {self.checked_edges} edges, "
                f"{self.checked_motions} motions, "
                f"{self.checked_regions} regions")
        return "\n".join([head, *(f"  {i}" for i in self.issues)])

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.issues)} issues"
        return f"<VerifyReport {self.function}: {status}>"


@dataclass(frozen=True)
class _Placed:
    """Where one instruction sits in a function."""

    ins: Instruction
    label: str
    index: int


def _index(func: Function) -> dict[int, _Placed]:
    """Map uid -> placement.  Duplicate uids are a skeleton error and are
    reported by the caller via :func:`verify_function`."""
    out: dict[int, _Placed] = {}
    for block in func.blocks:
        for i, ins in enumerate(block.instrs):
            out[ins.uid] = _Placed(ins, block.label, i)
    return out


def _immutable_fields(ins: Instruction) -> tuple:
    """The parts of an instruction scheduling may never change.

    Registers are excluded (on-demand renaming may substitute them); the
    memory *displacement* and symbol must survive even when the base
    register is renamed.
    """
    mem = (ins.mem.disp, ins.mem.symbol) if ins.mem is not None else None
    return (ins.opcode, ins.imm, mem, ins.target, ins.mask,
            len(ins.defs), len(ins.uses))


def _edge_dissolved(edge: DepEdge, a: Instruction, b: Instruction) -> bool:
    """Did renaming legitimately remove the dependence ``edge``?

    Recomputed from the *after* operands: a flow edge needs the source to
    still define a register the destination uses, and so on.  Memory edges
    never dissolve (renaming does not touch the memory disambiguator's
    verdict -- base registers may be renamed but then both sides were).
    """
    if edge.kind is DepKind.FLOW:
        return not (set(a.reg_defs()) & set(b.reg_uses()))
    if edge.kind is DepKind.ANTI:
        return not (set(a.reg_uses()) & set(b.reg_defs()))
    if edge.kind is DepKind.OUTPUT:
        return not (set(a.reg_defs()) & set(b.reg_defs()))
    return False


def verify_schedule(
    before: Function,
    after: Function,
    machine: MachineModel,
    *,
    level: ScheduleLevel = ScheduleLevel.SPECULATIVE,
    live_at_exit: frozenset[Reg] | None = None,
    motions: list[Motion] | tuple[Motion, ...] = (),
    max_speculation: int = 1,
    allow_duplication: bool = False,
    raise_on_error: bool = True,
) -> VerifyReport:
    """Check that ``after`` is a legal schedule of ``before``.

    ``before`` must be a uid-preserving snapshot (:meth:`Function.clone`)
    taken immediately before the scheduling pass; ``motions`` is the pass's
    recorded motion list (in issue order), used for the speculation replay
    and for recognising Definition 6 duplication copies.  Passing
    ``level=ScheduleLevel.NONE`` asserts a purely local pass: any
    cross-block movement at all is reported.

    The skeleton check starts with :func:`verify_function` on ``after``,
    so a malformed ``after`` is reported as a skeleton issue; a verified
    pipeline sweep relies on that walk and skips its own.  Dependences
    are judged only where the sweep changed a block's uid order (see
    the module docstring), so an identity sweep judges no edge.

    Returns a :class:`VerifyReport`; raises
    :class:`ScheduleVerificationError` on violations unless
    ``raise_on_error`` is false.
    """
    report = VerifyReport(function=after.name, level=level)

    # -- skeleton --------------------------------------------------------
    try:
        verify_function(after)
    except VerificationError as exc:
        report.add("skeleton", str(exc))
        return _finish(report, raise_on_error)
    before_labels = [b.label for b in before.blocks]
    after_labels = [b.label for b in after.blocks]
    if before_labels != after_labels:
        report.add("skeleton",
                   f"block layout changed: {before_labels} -> {after_labels}")
        return _finish(report, raise_on_error)
    for b_block, a_block in zip(before.blocks, after.blocks):
        b_term, a_term = b_block.terminator, a_block.terminator
        b_key = (b_term.uid, b_term.opcode, b_term.target) if b_term else None
        a_key = (a_term.uid, a_term.opcode, a_term.target) if a_term else None
        if b_key != a_key:
            report.add("skeleton",
                       f"terminator of {b_block.label} changed: "
                       f"{b_term!r} -> {a_term!r}")

    # -- conservation ----------------------------------------------------
    before_at = _index(before)
    after_at = _index(after)
    dup_uids = _check_conservation(report, before_at, after_at,
                                   motions, allow_duplication)
    if not report.ok:
        return _finish(report, raise_on_error)

    changed = _changed_labels(before, after)
    if (level is ScheduleLevel.NONE and not motions
            and all(after_at[uid].label == placed.label
                    for uid, placed in before_at.items())):
        # a local sweep: nothing to place or replay, and only intra-block
        # dependences can break
        _check_blocks(report, before.blocks, changed, machine, after_at)
        return _finish(report, raise_on_error)

    # -- per-region placement + dependence checks ------------------------
    regions = find_regions(before)
    region_of: dict[str, RegionSpec] = {}
    for spec in regions:
        for label in spec.member_labels:
            region_of[label] = spec
    pdgs: dict[str, object] = {}

    def pdg_of(spec: RegionSpec):
        if spec.header_node not in pdgs:
            # un-reduced: the verifier must see every natural edge, not the
            # transitive reduction the scheduler works from.  The builder
            # is injected from data_deps directly so namespace patches of
            # ``repro.pdg.pdg.build_region_ddg`` (chaos fault injection)
            # cannot corrupt the judge.
            from ..pdg.data_deps import build_region_ddg

            pdgs[spec.header_node] = build_region_pdg(
                before, machine, spec, reduce_ddg=False,
                ddg_builder=build_region_ddg)
        return pdgs[spec.header_node]

    next_uid = before._next_uid
    try:
        _check_placement(report, before, before_at, after_at, dup_uids,
                         region_of, pdg_of, level, max_speculation,
                         motions, allow_duplication)
        _check_dependences(report, regions, changed, pdg_of, after_at)
        _check_blocks(report,
                      [b for b in before.blocks if b.label not in region_of],
                      changed, machine, after_at)

        # -- speculation replay -----------------------------------------
        _replay_motions(report, before, after_at, motions, region_of,
                        pdg_of, live_at_exit)
    finally:
        # each collapsed inner loop's barrier drew a uid from the
        # snapshot's counter; hand them back, so that verifying leaves
        # ``before`` as it was given (barriers are matched by identity)
        before._next_uid = next_uid

    return _finish(report, raise_on_error)


def _finish(report: VerifyReport, raise_on_error: bool) -> VerifyReport:
    return report.raise_if_failed() if raise_on_error else report


def _check_conservation(
    report: VerifyReport,
    before_at: dict[int, _Placed],
    after_at: dict[int, _Placed],
    motions,
    allow_duplication: bool,
) -> set[int]:
    """Missing/extra/mutated instructions.  Returns the uids of accepted
    duplication copies (excluded from the placement check)."""
    for uid, placed in before_at.items():
        if uid not in after_at:
            report.add("conservation",
                       f"instruction vanished from {placed.label}: "
                       f"{placed.ins!r}", uid)
            continue
        b_ins, a_ins = placed.ins, after_at[uid].ins
        if _immutable_fields(b_ins) != _immutable_fields(a_ins):
            report.add("conservation",
                       f"instruction mutated beyond renaming: "
                       f"{b_ins!r} -> {a_ins!r}", uid)
    dup_uids: set[int] = set()
    dup_motions = [m for m in motions if m.duplicated]
    for uid, placed in after_at.items():
        if uid in before_at:
            continue
        match = allow_duplication and any(
            m.opcode == placed.ins.opcode.mnemonic
            and placed.label in m.duplicated_into
            for m in dup_motions
        )
        if match:
            dup_uids.add(uid)
        else:
            report.add("conservation",
                       f"instruction appeared out of nowhere in "
                       f"{placed.label}: {placed.ins!r}", uid)
    return dup_uids


def _check_placement(
    report: VerifyReport,
    before: Function,
    before_at: dict[int, _Placed],
    after_at: dict[int, _Placed],
    dup_uids: set[int],
    region_of: dict[str, RegionSpec],
    pdg_of,
    level: ScheduleLevel,
    max_speculation: int,
    motions,
    allow_duplication: bool,
) -> None:
    """Every block change must be a motion the paper's rules allow."""
    candidates_cache: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    dup_moves = {m.uid: m for m in motions if m.duplicated}
    before_preds: dict[str, list[str]] | None = None
    for uid, placed in before_at.items():
        after = after_at.get(uid)
        if after is None or after.label == placed.label:
            continue
        home, dest = placed.label, after.label
        ins = after.ins
        spec = region_of.get(home)
        if spec is None or dest not in spec.member_labels:
            report.add("placement",
                       f"{ins!r} left its region: {home} -> {dest}", uid)
            continue
        dup = dup_moves.get(uid)
        if dup is not None and dup.src == home and dup.dst == dest:
            # Definition 6: the original may move into a non-dominating
            # predecessor only when every *other* predecessor of its home
            # join got a copy.
            if not allow_duplication:
                report.add("placement",
                           f"{ins!r} moved {home} -> {dest} with "
                           f"duplication, but duplication was disabled",
                           uid)
                continue
            if before_preds is None:
                before_preds = {
                    label: [p.label for p in preds]
                    for label, preds in before.predecessors_map().items()
                }
            needed = set(before_preds.get(home, ())) - {dest}
            if not needed <= set(dup.duplicated_into):
                report.add("placement",
                           f"{ins!r} moved {home} -> {dest} with copies "
                           f"into {sorted(dup.duplicated_into)} but "
                           f"predecessors {sorted(needed)} all need one "
                           f"(Definition 6)", uid)
            continue
        if level is ScheduleLevel.NONE:
            report.add("placement",
                       f"{ins!r} moved {home} -> {dest} in a local-only "
                       f"pass", uid)
            continue
        if not ins.opcode.can_move_globally:
            report.add("placement",
                       f"{ins!r} may never cross block boundaries but "
                       f"moved {home} -> {dest}", uid)
            continue
        pdg = pdg_of(spec)
        key = (spec.header_node, dest)
        if key not in candidates_cache:
            candidates_cache[key] = candidate_blocks(
                pdg, dest, level, max_speculation=max_speculation)
        equiv, speculative = candidates_cache[key]
        if home in equiv:
            continue  # useful motion between equivalent blocks
        if home in speculative:
            if not ins.opcode.can_speculate:
                report.add("placement",
                           f"{ins!r} was executed speculatively "
                           f"({home} -> {dest}) but its opcode may not "
                           f"speculate", uid)
            elif not pdg.dom.strictly_dominates(dest, home):
                # candidate_blocks enforces this too; an independent check
                # here keeps the verifier honest if that filter regresses
                report.add("placement",
                           f"{ins!r} moved {home} -> {dest} but {dest} "
                           f"does not dominate {home} (Definition 6 "
                           f"requires duplication)", uid)
            continue
        if uid in dup_uids:
            continue
        report.add("placement",
                   f"{ins!r} moved {home} -> {dest}, which is neither an "
                   f"equivalent nor a legal {max_speculation}-branch "
                   f"speculative placement at level {level.value}", uid)


def _changed_labels(before: Function, after: Function) -> set[str]:
    """Labels of the blocks whose uid order the sweep changed (the two
    layouts are equal by the time this runs)."""
    return {b.label for b, a in zip(before.blocks, after.blocks)
            if [i.uid for i in b.instrs] != [i.uid for i in a.instrs]}


def _check_dependences(
    report: VerifyReport,
    regions: list[RegionSpec],
    changed: set[str],
    pdg_of,
    after_at: dict[int, _Placed],
) -> None:
    """Every pre-scheduling dependence of a region with a changed block
    still runs forward.  A collapsed inner loop stands at its pseudo-block
    and is matched by identity: its barrier's uid was drawn past
    ``before``'s last and may name a copy the sweep added."""
    for spec in regions:
        if changed.isdisjoint(spec.member_labels):
            continue  # nothing in it moved, so no edge of it can break
        report.checked_regions += 1
        pdg = pdg_of(spec)
        loops = {id(sub.barrier): _Placed(sub.barrier,
                                          sub.pseudo_block.label, 0)
                 for sub in pdg.subloops}
        for edge in pdg.ddg.edges():
            a = loops.get(id(edge.src)) or after_at.get(edge.src.uid)
            b = loops.get(id(edge.dst)) or after_at.get(edge.dst.uid)
            _judge(report, edge, a, b, pdg.reaches)


def _check_blocks(
    report: VerifyReport,
    blocks: list[BasicBlock],
    changed: set[str],
    machine: MachineModel,
    after_at: dict[int, _Placed],
) -> None:
    """Intra-block dependence check from each block's own DDG, for the
    blocks of ``blocks`` whose uid order changed: every block of a local
    sweep, and blocks outside every region (unreachable code still gets
    the post-pass block scheduler).  An unchanged block is skipped, since
    each of its edges still runs forward in the original order."""
    from ..pdg.data_deps import build_block_ddg

    for block in blocks:
        if block.label not in changed:
            continue
        for edge in build_block_ddg(block, machine, reduce=False).edges():
            _judge(report, edge, after_at.get(edge.src.uid),
                   after_at.get(edge.dst.uid), None)


def _judge(
    report: VerifyReport,
    edge: DepEdge,
    a: _Placed | None,
    b: _Placed | None,
    reaches,
) -> None:
    """Report ``edge`` unless the schedule still runs it forward: in one
    block in order, or across blocks that ``reaches`` (a region's
    :meth:`~repro.pdg.RegionPDG.reaches`; None: no two blocks are
    ordered) joins by a forward path."""
    report.checked_edges += 1
    if a is None or b is None:
        return  # conservation already reported it
    if _edge_dissolved(edge, a.ins, b.ins):
        return
    if a.label == b.label:
        if a.index >= b.index:
            report.add("dependence",
                       f"{edge!r} inverted inside {a.label}: "
                       f"I{edge.src.uid} at index {a.index} is not "
                       f"before I{edge.dst.uid} at {b.index}",
                       edge.dst.uid)
    elif reaches is None or not reaches(a.label, b.label):
        report.add("dependence",
                   f"{edge!r} broken across blocks: I{edge.src.uid} "
                   f"in {a.label} no longer executes before "
                   f"I{edge.dst.uid} in {b.label}", edge.dst.uid)


def _replay_motions(
    report: VerifyReport,
    before: Function,
    after_at: dict[int, _Placed],
    motions,
    region_of: dict[str, RegionSpec],
    pdg_of,
    live_at_exit: frozenset[Reg] | None,
) -> None:
    """Re-run the Section 5.3 discipline over the recorded motions.

    The tracker is seeded exactly like the scheduling driver's (one shared
    live-out store across regions, one tracker per region PDG) and
    updated after *every* motion, so the replay sees the same dynamic
    liveness the scheduler saw -- a scheduler that skipped the test is
    caught on the first clobbering motion.
    """
    if not motions:
        return
    if live_at_exit is None:
        live_at_exit = default_live_at_exit(before)
    liveness = compute_liveness(before, live_at_exit,
                                ControlFlowGraph(before))
    live_out = liveness.live_out_masks()
    trackers: dict[str, LiveOnExitTracker] = {}
    for motion in motions:
        report.checked_motions += 1
        spec = region_of.get(motion.dst)
        if spec is None:
            report.add("speculation",
                       f"{motion!r} targets a block outside every region",
                       motion.uid)
            continue
        if region_of.get(motion.src) is not spec:
            report.add("speculation",
                       f"{motion!r} comes from outside its target's region",
                       motion.uid)
            continue
        tracker = trackers.get(spec.header_node)
        if tracker is None:
            tracker = LiveOnExitTracker(live_out, liveness.table,
                                        pdg_of(spec))
            trackers[spec.header_node] = tracker
        placed = after_at.get(motion.uid)
        if placed is None:
            if not motion.duplicated:
                report.add("speculation",
                           f"{motion!r} refers to a missing instruction",
                           motion.uid)
            continue
        ins = placed.ins
        if motion.speculative:
            # The Section 5.3 predicate, restated here on purpose rather
            # than delegated to LiveOnExitTracker.blocks_motion: the
            # verifier must catch a scheduler whose own legality test was
            # broken, so it cannot share that test's implementation.
            live = tracker.live_out_of(motion.dst)
            clobbered = [r for r in ins.reg_defs() if r in live]
            if clobbered:
                report.add("speculation",
                           f"{motion!r} clobbers live-on-exit "
                           f"register(s) {clobbered} of {motion.dst} "
                           f"(Section 5.3)", motion.uid)
        tracker.record_motion(ins, motion.src, motion.dst)
