"""The Section 5.2 order checker: replay a global sweep's decisions.

The schedule verifier (:mod:`repro.verify.verifier`) judges *what* a sweep
did -- every motion legal, every dependence still forward -- and accepts
any legal schedule, including one that breaks the decision order of
Sections 5.1-5.2.  This module judges *how* the sweep chose.  It replays
the sweep's decision events (``block_begin``, ``issue``, ``spec_rejected``,
``spec_renamed``, ``block_end``) against the pre-sweep snapshot, region by
region in the order the sweep visited them, and holds every block pass to
the definition of a cycle-driven list scheduler:

* **ready** -- each issued instruction had every dependence predecessor
  issued, its earliest start reached and, when speculative, no definition
  live on exit from the target (Section 5.3, re-derived on a fresh
  :class:`~repro.sched.speculation.LiveOnExitTracker` fed the replayed
  motions, as the verifier's motion replay is);
* **ranked** -- it ranked ahead of every ready candidate that had a free
  unit, under the Section 5.2 key (useful before speculative, larger D,
  larger CP, source order) with D and CP recomputed here from their
  definitions, or under the sweep's own ``priority_fn``;
* **greedy** -- no cycle ended with an issue slot and a free unit while a
  ready candidate could have taken it.

A branch closes its block: it issues last and loses ties.  A speculative
candidate whose clashing definitions are block-local counts as ready,
because Section 4.2 renaming admits it.  A rename frees the instructions
that waited on the renamed definition only from the scan after it, so
those are not owed an issue slot until the next issue.  The checker reads
the snapshot, the events and the public analyses (regions, the region
PDG, candidate blocks, liveness), never the block pass's own state.  A
sweep that duplicates code (Definition 6) is judged up to its first
duplicated motion: the copies' dependences are not modelled here.
"""

from __future__ import annotations

from ..cfg.graph import ControlFlowGraph
from ..dataflow.liveness import compute_liveness
from ..ir.function import Function
from ..ir.opcodes import UnitType
from ..machine.model import MachineModel
from ..pdg.data_deps import DepKind
from ..sched.candidates import (
    ScheduleLevel,
    candidate_blocks,
    collect_candidates,
    collect_duplication_candidates,
)
from ..sched.driver import default_live_at_exit
from ..sched.regions import build_region_pdg, find_regions
from ..sched.speculation import LiveOnExitTracker, try_rename_for_motion
from .verifier import VerifyReport

#: the decision events the replay reads
_REPLAYED = frozenset({"region_enter", "block_begin", "issue",
                       "spec_rejected", "spec_renamed", "block_end"})


def d_and_cp(blocks, ddg, machine: MachineModel) -> dict[int, tuple]:
    """``id(ins) -> (D, CP)`` straight from the Section 5.2 definitions,
    over each block's own dependence edges: ``D(I) = max(D(J) + d(I,J))``
    and ``CP(I) = max(CP(J) + d(I,J)) + E(I)`` over I's successors J."""
    out: dict[int, tuple] = {}
    for block in blocks:
        inside = {id(ins) for ins in block.instrs}
        for ins in reversed(block.instrs):
            succs = [(out[id(e.dst)], e.delay) for e in ddg.succs(ins)
                     if id(e.dst) in inside]
            out[id(ins)] = (max((d + w for (d, _), w in succs), default=0),
                            max((cp + w for (_, cp), w in succs), default=0)
                            + machine.exec_time(ins))
    return out


def separation(edge, machine: MachineModel) -> int:
    """Cycles from the start of ``edge.src`` to the earliest start of
    ``edge.dst``: execution time plus delay on a flow edge, else 0."""
    if edge.kind is DepKind.FLOW:
        return machine.exec_time(edge.src) + edge.delay
    return 0


class BlockJudge:
    """One block pass judged issue by issue.

    ``rank`` maps ``id(ins)`` to a sort key (smaller issues first) for
    every candidate; ``ready(cand, cycle)`` is the caller's readiness
    predicate (dependences, earliest start, veto); ``owed(cand)`` says
    whether a ready candidate may claim a slot -- false for one a rename
    has just freed, and for a branch that may be held open.
    """

    def __init__(self, report: VerifyReport, label: str, machine, cands,
                 rank, ready, owed=lambda cand: True):
        self.report, self.label, self.cands = report, label, cands
        self.rank, self.ready, self.owed = rank, ready, owed
        self.units = {u: machine.unit_count(u) for u in UnitType}
        self.width = machine.total_issue_width
        self.issued: set[int] = set()
        self.cycle = 0
        self._open(0)

    def _open(self, cycle: int) -> None:
        self.cycle, self.free, self.slots = cycle, dict(self.units), self.width

    def _waiting(self):
        """Ready candidates that could take a free unit right now."""
        return [c for c in self.cands if id(c.ins) not in self.issued
                and self.free[c.ins.unit] > 0 and self.owed(c)
                and self.ready(c, self.cycle)]

    def _flag(self, ins, what: str) -> None:
        self.report.add("order", f"{ins!r} {what} at cycle {self.cycle} "
                        f"of {self.label}", ins.uid)

    def advance(self, cycle: int) -> None:
        """Close every cycle before ``cycle``: none may end greedy-idle."""
        while self.cycle < cycle:
            for c in self._waiting() if self.slots > 0 else ():
                self._flag(c.ins, "was left ready with a free unit")
            self._open(self.cycle + 1)

    def issue(self, cand, cycle: int) -> None:
        ins = cand.ins
        if cycle < self.cycle:
            self._flag(ins, f"issued back at cycle {cycle}")
        self.advance(cycle)
        if id(ins) in self.issued:
            self._flag(ins, "issued twice")
        elif not self.ready(cand, self.cycle):
            self._flag(ins, "issued before it was ready")
        if self.free[ins.unit] <= 0 or self.slots <= 0:
            self._flag(ins, f"issued with no free {ins.unit.value} slot")
        for other in self._waiting():
            if self.rank[id(other.ins)] < self.rank[id(ins)]:
                self._flag(other.ins, f"was ready and ranks ahead of {ins!r} "
                           f"issued")
        self.free[ins.unit] -= 1
        self.slots -= 1
        self.issued.add(id(ins))


def check_order(before: Function, after: Function, events,
                machine: MachineModel, *, level: ScheduleLevel,
                live_at_exit=None, max_speculation: int = 1,
                rename_on_demand: bool = True,
                allow_duplication: bool = False, priority_fn=None,
                raise_on_error: bool = True) -> VerifyReport:
    """Replay one global sweep's ``events`` on a copy of ``before`` (the
    snapshot taken just before the sweep) and judge its decisions; the
    replayed blocks must come out as ``after`` holds them.  Returns a
    report whose issues are all of kind ``"order"``; raises
    :class:`~repro.verify.verifier.ScheduleVerificationError` on any
    unless ``raise_on_error`` is false."""
    report = VerifyReport(function=after.name, level=level,
                          check="order check")
    work = before.clone()
    if live_at_exit is None:
        live_at_exit = default_live_at_exit(work)
    live_out = compute_liveness(work, live_at_exit,
                                ControlFlowGraph(work)).live_out_map()
    specs = {spec.header_node: spec for spec in find_regions(work)}
    rules = (level, max_speculation, rename_on_demand, allow_duplication,
             priority_fn, {ins.uid: ins for ins in after.instructions()})
    stream = iter([e for e in events if e.kind in _REPLAYED])
    whole = True
    for enter in stream:
        if enter.kind != "region_enter" or enter.header not in specs:
            report.add("order", f"unexpected {enter!r} between regions")
            whole = False
            break
        region = _Region(work, machine, specs[enter.header], live_out,
                         rules, report)
        report.checked_regions += 1
        if tuple(region.pdg.topo_labels) != tuple(enter.blocks):
            report.add("order", f"region {enter.header} visited "
                       f"{list(enter.blocks)}, its topological order is "
                       f"{region.pdg.topo_labels}")
        if not region.replay(stream):
            whole = False
            break
    if whole and report.ok:
        for mine, theirs in zip(work.blocks, after.blocks):
            if ([i.uid for i in mine.instrs]
                    != [i.uid for i in theirs.instrs]):
                report.add("order", f"the replayed {mine.label} differs "
                           f"from the scheduled one")
    return report.raise_if_failed() if raise_on_error else report


class _Region:
    """The replay state of one region: what issued when, in which pass."""

    def __init__(self, work, machine, spec, live_out, rules, report):
        self.pdg = build_region_pdg(work, machine, spec)
        self.machine, self.report = machine, report
        (self.level, self.max_speculation, self.rename_on_demand,
         self.allow_duplication, self.priority_fn, self.live) = rules
        self.tracker = LiveOnExitTracker(live_out, self.pdg.forward)
        self.dcp = d_and_cp([self.pdg.block(n) for n in self.pdg.topo_labels],
                              self.pdg.ddg, machine)
        #: id -> (pass number, cycle) of every instruction issued so far
        self.start: dict[int, tuple[int, int]] = {}
        #: ids whose dependences are met: issued, or a passed inner loop
        self.done: set[int] = set()
        self.cycles: dict[str, int] = {}
        self.passes = 0

    def replay(self, stream) -> bool:
        """Judge every block pass; False stops the sweep's replay."""
        previous = None
        for node in self.pdg.topo_labels:
            if self.pdg.is_abstract(node):
                self.done.update(id(b) for b in self.pdg.block(node).instrs)
                previous = None
                continue
            carry = None
            if previous in self.pdg.forward.preds(node):
                carry = self.cycles[previous] or None
            begin = next(stream, None)
            if begin is None or begin.kind != "block_begin" \
                    or begin.label != node:
                self.report.add("order", f"expected the pass of {node}, "
                                f"got {begin!r}")
                return False
            if begin.carry_cycles != carry:
                self.report.add("order", f"{node} carried "
                                f"{begin.carry_cycles} cycles, not {carry}")
            body = []
            for event in stream:
                if event.kind == "block_end":
                    break
                body.append(event)
            else:
                self.report.add("order", f"the pass of {node} never ended")
                return False
            if not self._pass(node, carry, body, event.cycles):
                return False
            previous = node
        return True

    # -- one block pass ----------------------------------------------------

    def _pass(self, label: str, carry, body, cycles: int) -> bool:
        pdg = self.pdg
        block = pdg.func.block(label)
        own = {id(ins) for ins in block.instrs}
        term = block.terminator
        equiv, spec = candidate_blocks(pdg, label, self.level,
                                       max_speculation=self.max_speculation)
        cands = collect_candidates(pdg, label, equiv, spec)
        if self.allow_duplication:
            seen = {id(c.ins) for c in cands}
            cands += [c for c in collect_duplication_candidates(pdg, label)
                      if id(c.ins) not in seen]
        holds = any(c.duplicate_into for c in cands)
        by_uid = {c.ins.uid: c for c in cands}
        rank = {id(c.ins): (self._key(c), c.ins is term, seq)
                for seq, c in enumerate(cands)}
        self.passes += 1
        freed: set[int] = set()

        def ready(c, cycle):
            ins = c.ins
            if ins is term:
                if own - judge.issued != {id(term)}:
                    return False
            elif ins.is_branch:
                return False
            return (self._deps_met(ins)
                    and self._earliest(ins, carry) <= cycle
                    and (c.useful or bool(c.duplicate_into)
                         or self._admissible(c, label)))

        def owed(c):
            # a duplication hold may keep the branch back a few cycles
            return id(c.ins) not in freed and not (holds and c.ins is term)

        judge = BlockJudge(self.report, label, self.machine, cands, rank,
                           ready, owed)
        order, closed = [], False
        for event in body:
            c = by_uid.get(event.uid)
            if c is None:
                self.report.add("order", f"I{event.uid} is no candidate of "
                                f"{label}", event.uid)
                return False
            if event.kind == "issue":
                if closed:
                    self.report.add("order", f"{c.ins!r} issued after "
                                    f"{label} closed", c.ins.uid)
                judge.issue(c, event.cycle)
                freed.clear()
                self._issued(c, label, event.cycle)
                order.append(c.ins)
                if c.duplicate_into:
                    return False
                # the branch closes a block; without one, its last own
                # instruction does (unless duplication may hold it open)
                closed = c.ins is term or not (term or holds
                                               or own - judge.issued)
            elif event.kind == "spec_rejected":
                if self._admissible(c, label) or c.useful:
                    self.report.add("order", f"{c.ins!r} was vetoed from "
                                    f"{label} but may move there",
                                    c.ins.uid)
            else:
                met = {id(x.ins) for x in cands if self._deps_met(x.ins)}
                if c.useful or not self._clashes(c, label) or \
                        not try_rename_for_motion(
                            c.ins, pdg.func.block(c.home), label,
                            self.tracker, pdg.ddg, pdg.func, self.machine):
                    self.report.add("order", f"{c.ins!r} was renamed into "
                                    f"{label} without a legal rename",
                                    c.ins.uid)
                freed |= {id(x.ins) for x in cands
                          if id(x.ins) not in met and self._deps_met(x.ins)}
        if own - judge.issued:
            self.report.add("order", f"{label} closed before all its own "
                            f"instructions issued")
        span = judge.cycle + 1 if own else 0
        if cycles != span and not (holds and term is None and cycles > span):
            self.report.add("order", f"{label} reports {cycles} cycles, "
                            f"its issues span {span}")
        block.instrs = order
        self.cycles[label] = cycles
        return True

    def _key(self, c) -> tuple:
        ins = c.ins
        d, cp = self.dcp.get(id(ins), (0, self.machine.exec_time(ins)))
        if self.priority_fn is None:
            key = (0 if c.useful else 1, -d, -cp, ins.uid)
        else:
            # custom orders may key on the scheduled instructions' identity
            live = self.live.get(ins.uid, ins)
            key = tuple(self.priority_fn(live, useful=c.useful,
                                         priorities={id(live): (d, cp)}))
        return (1 if c.duplicate_into else 0, *key)

    def _issued(self, c, label: str, cycle: int) -> None:
        self.start[id(c.ins)] = (self.passes, cycle)
        self.done.add(id(c.ins))
        if c.home != label:
            self.report.checked_motions += 1
            self.pdg.func.block(c.home).remove(c.ins)
            self.tracker.record_motion(c.ins, c.home, label)

    # -- readiness by definition -------------------------------------------

    def _deps_met(self, ins) -> bool:
        return all(id(e.src) in self.done for e in self.pdg.ddg.preds(ins))

    def _earliest(self, ins, carry) -> int:
        """Latest bound an issued predecessor sets in this pass's clock
        (the previous pass's issues count shifted by ``carry``)."""
        bound = 0
        for edge in self.pdg.ddg.preds(ins):
            when = self.start.get(id(edge.src))
            if when is None:
                continue
            pass_no, cycle = when
            if pass_no == self.passes - 1 and carry is not None:
                cycle -= carry
            elif pass_no != self.passes:
                continue
            bound = max(bound, cycle + separation(edge, self.machine))
        return bound

    def _clashes(self, c, label: str) -> list:
        live = self.tracker.live_out_of(label)
        return [reg for reg in c.ins.reg_defs() if reg in live]

    def _admissible(self, c, label: str) -> bool:
        """Section 5.3: no definition live on exit from ``label`` -- or,
        with renaming on, every clashing definition's web ends inside the
        home block (a later redefinition, or dead on exit from it)."""
        clash = self._clashes(c, label)
        if not clash:
            return True
        if not self.rename_on_demand:
            return False
        home = self.pdg.func.block(c.home)
        later = home.instrs[home.index_of(c.ins) + 1:]
        home_live = self.tracker.live_out_of(c.home)
        return all(reg not in home_live
                   or any(reg in x.reg_defs() for x in later)
                   for reg in clash)
