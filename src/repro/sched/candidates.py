"""Candidate blocks and candidate instructions (Section 5.1).

For the block ``A`` being scheduled:

* level **useful**:       ``C(A) = EQUIV(A)``;
* level **speculative**:  ``C(A)`` additionally contains the immediate
  CSPDG successors of ``A`` and of every block in ``EQUIV(A)`` (these are
  exactly the 1-branch speculative sources).

An instruction ``I`` from a block of ``C(A)`` is a *candidate* for ``A``
iff it may move beyond basic-block boundaries at all (calls may not), and
-- when its home block is not equivalent to ``A`` -- it may be executed
speculatively (stores may not).  Branches never move (their order is
preserved), and abstract inner-loop nodes contribute nothing.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ..ir.instruction import Instruction
from ..pdg.pdg import RegionPDG


class ScheduleLevel(Enum):
    """How aggressive global code motion is allowed to be."""

    #: no global motion at all (the BASE compiler: block-local only)
    NONE = "none"
    #: useful motion only: between equivalent blocks (Definition 4)
    USEFUL = "useful"
    #: useful + 1-branch speculative motion (Definition 7, n = 1)
    SPECULATIVE = "speculative"


class Candidate(NamedTuple):
    """One instruction considered for scheduling into block ``A``.

    A NamedTuple rather than a dataclass: collection builds one per
    candidate instruction per block pass, squarely on the scheduler's
    allocation path.
    """

    ins: Instruction
    home: str
    #: home is A itself or in EQUIV(A) -- the paper's ``B(I) in U(A)``
    useful: bool
    #: labels of the home block's *other* predecessors that must receive a
    #: copy if this candidate is scheduled (Definition 6: moving from B to
    #: A requires duplication when A does not dominate B); None for
    #: ordinary useful/speculative candidates
    duplicate_into: tuple[str, ...] | None = None


def candidate_blocks(
    pdg: RegionPDG, label: str, level: ScheduleLevel,
    *, max_speculation: int = 1,
    block_filter=None,
) -> tuple[list[str], list[str]]:
    """``(equivalent_blocks, speculative_blocks)`` for block ``label``.

    Only real (non-abstract) region member blocks are returned.
    ``max_speculation`` generalises the paper's 1-branch limit: blocks up
    to that CSPDG distance become speculative sources (the paper ships
    with 1; larger values are the extension explored in the ablations).

    ``block_filter(label) -> bool`` restricts the source blocks; the
    trace-scheduling comparison uses it to confine motion to a main trace
    (the paper's introduction: "trace scheduling assumes the existence of
    a main trace in the program ... global scheduling does not depend on
    such assumption").
    """
    if level is ScheduleLevel.NONE:
        return [], []

    members = pdg.member_labels
    if block_filter is not None:
        members = {b for b in members if block_filter(b)}
    equiv = [b for b in pdg.cspdg.equiv_dominated(label) if b in members]
    if level is ScheduleLevel.USEFUL:
        return equiv, []

    speculative: list[str] = []
    seen = {label, *equiv}

    def add_speculative(block: str) -> None:
        # Definition 6: moving an instruction from B to A without
        # duplication requires A to dominate B -- otherwise paths that
        # reach B around A would lose the computation (the classic case
        # is the join of an `a || b` condition, whose second test block
        # does not dominate it).  Speculation piles Definition 7's
        # live-on-exit rule *on top of* that dominance requirement.
        if (block not in seen and block in members
                and pdg.dom.strictly_dominates(label, block)):
            seen.add(block)
            speculative.append(block)

    frontier = [label, *equiv]
    for _hop in range(max_speculation):
        next_frontier: list[str] = []
        for src in frontier:
            for succ in pdg.cspdg.successors(src):
                add_speculative(succ)
                next_frontier.append(succ)
                # Blocks equivalent to (and dominated by) the successor
                # are the same number of branches away.
                for twin in pdg.cspdg.equiv_dominated(succ):
                    add_speculative(twin)
                    next_frontier.append(twin)
        frontier = next_frontier
    return equiv, speculative


def collect_candidates(
    pdg: RegionPDG,
    label: str,
    equiv: list[str],
    speculative: list[str],
) -> list[Candidate]:
    """All candidate instructions for block ``label``, own block included.

    Collection order is the order the block pass scans candidates in,
    and so its final tie-break: own block first (its terminator last),
    then equivalent homes, then speculative homes.  Foreign branches
    never appear -- ``can_move_globally`` is false for every branch
    opcode.
    """
    out: list[Candidate] = []
    append = out.append
    block = pdg.block
    for ins in block(label).instrs:
        append(Candidate(ins, label, useful=True))
    for home in equiv:
        for ins in block(home).instrs:
            if ins.opcode.can_move_globally:
                append(Candidate(ins, home, useful=True))
    for home in speculative:
        for ins in block(home).instrs:
            opcode = ins.opcode
            if opcode.can_move_globally and opcode.can_speculate:
                append(Candidate(ins, home, useful=False))
    return out


def duplication_source(pdg: RegionPDG, label: str) -> tuple[str, list[str]] | None:
    """The join block ``label`` may pull instructions from, if any.

    Definition 6's restricted-but-sound form: block ``A`` may take an
    instruction from its successor ``S`` (a join ``A`` does not dominate)
    provided copies go to every other predecessor of ``S``.  That is
    semantics-preserving with *no* extra liveness analysis when control
    can only flow from each predecessor into ``S``:

    * ``A``'s only successor is ``S`` (the moved copy runs iff ``S`` ran
      via ``A``),
    * every other predecessor of ``S`` likewise has ``S`` as its sole
      successor (each copy runs iff ``S`` ran via that predecessor),
    * all of them live in the current region and ``S`` is not the region
      header (instructions never cross region boundaries, and back edges
      would smuggle copies out of the iteration).

    Returns ``(S, other_predecessors)`` or None.
    """
    func = pdg.func
    members = pdg.member_labels
    if label not in members:
        return None
    block = func.block(label)
    succs = func.successors(block)
    if len(succs) != 1 or func.falls_off_end(block):
        return None
    join = succs[0]
    if join.label not in members or join.label == pdg.header:
        return None
    preds = func.predecessors_map()[join.label]
    if len(preds) < 2 or not any(p.label == label for p in preds):
        return None
    others: list[str] = []
    for pred in preds:
        if pred.label == label:
            continue
        if pred.label not in members:
            return None
        if len(func.successors(pred)) != 1 or func.falls_off_end(pred):
            return None
        others.append(pred.label)
    return join.label, others


def collect_duplication_candidates(
    pdg: RegionPDG, label: str
) -> list[Candidate]:
    """Candidates reachable only through duplication (Definition 6)."""
    source = duplication_source(pdg, label)
    if source is None:
        return []
    join, others = source
    dup = tuple(others)
    out: list[Candidate] = []
    for ins in pdg.block(join).body:
        if ins.opcode.can_move_globally:
            # stores are fine: each path still executes the (copied)
            # store exactly once, in the same position relative to its
            # path's other memory operations
            out.append(Candidate(ins, join, useful=False,
                                 duplicate_into=dup))
    return out
