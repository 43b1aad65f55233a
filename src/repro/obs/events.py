"""Typed trace events of the scheduler observability layer.

Every decision the compile->schedule->verify pipeline makes is describable
as one of the small, flat event records below.  Events are plain frozen
dataclasses: cheap to construct, trivially serialisable (``to_dict`` yields
JSON-ready dictionaries whose ``"ev"`` key is the event kind), and stable
enough to diff in golden tests.

The taxonomy follows the paper's own vocabulary:

* pipeline shape -- :class:`FunctionBegin`/:class:`FunctionEnd` and
  :class:`PhaseBegin`/:class:`PhaseEnd` for the Section 6 stages;
* region walk -- :class:`RegionEnter`/:class:`RegionExit`/
  :class:`RegionSkipped` (the Section 6 policy filters name their reason);
* per-block scheduling -- :class:`BlockBegin`/:class:`BlockEnd`,
  :class:`CandidateBlocksComputed` (``EQUIV(A)`` and the speculative part
  of ``C(A)``), :class:`CandidatesCollected`;
* the cycle-driven inner loop -- :class:`CycleAdvance` (ready-list
  pressure), :class:`Issue`, :class:`UnitOccupancy`,
  :class:`PriorityDecision` (which step of the Section 5.2 rule decided);
* legality -- :class:`SpeculationRejected` (the Section 5.3 live-on-exit
  veto, with the blocking registers), :class:`SpeculationRenamed`
  (Section 4.2 renaming admitted the motion);
* outcomes -- :class:`MotionRecorded`;
* resilience -- :class:`DegradationEvent` (the fail-soft pipeline skipped
  a pass or fell down a degradation-ladder rung);
* service -- :class:`SupervisorEvent` (the compile service's pool
  supervisor lost/replaced workers, rebuilt the pool, or tripped the
  circuit breaker) and :class:`AdmissionEvent` (load shedding started or
  stopped at the queue watermarks).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar


@dataclass(frozen=True)
class TraceEvent:
    """Base of all trace events; subclasses set :attr:`kind`."""

    kind: ClassVar[str] = "?"

    def to_dict(self) -> dict:
        """JSON-ready representation: ``{"ev": kind, **fields}``."""
        out: dict = {"ev": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out


# -- pipeline shape ----------------------------------------------------------

@dataclass(frozen=True)
class FunctionBegin(TraceEvent):
    kind: ClassVar[str] = "function_begin"
    function: str
    level: str


@dataclass(frozen=True)
class FunctionEnd(TraceEvent):
    kind: ClassVar[str] = "function_end"
    function: str
    elapsed_ms: float


@dataclass(frozen=True)
class PhaseBegin(TraceEvent):
    kind: ClassVar[str] = "phase_begin"
    function: str
    phase: str


@dataclass(frozen=True)
class PhaseEnd(TraceEvent):
    kind: ClassVar[str] = "phase_end"
    function: str
    phase: str
    elapsed_ms: float


# -- region walk -------------------------------------------------------------

@dataclass(frozen=True)
class RegionEnter(TraceEvent):
    kind: ClassVar[str] = "region_enter"
    header: str
    region_kind: str
    level: str
    blocks: tuple[str, ...]


@dataclass(frozen=True)
class RegionExit(TraceEvent):
    kind: ClassVar[str] = "region_exit"
    header: str
    motions: int
    speculative_motions: int


@dataclass(frozen=True)
class RegionSkipped(TraceEvent):
    kind: ClassVar[str] = "region_skipped"
    header: str
    #: "irreducible" | "too-large" | "too-deep" | "empty" | "filtered"
    reason: str


# -- per-block scheduling ----------------------------------------------------

@dataclass(frozen=True)
class BlockBegin(TraceEvent):
    kind: ClassVar[str] = "block_begin"
    label: str
    carry_cycles: int | None


@dataclass(frozen=True)
class BlockEnd(TraceEvent):
    kind: ClassVar[str] = "block_end"
    label: str
    cycles: int


@dataclass(frozen=True)
class CandidateBlocksComputed(TraceEvent):
    """``EQUIV(A)`` and the speculative members of ``C(A)`` for block A."""

    kind: ClassVar[str] = "candidate_blocks"
    label: str
    equiv: tuple[str, ...]
    speculative: tuple[str, ...]


@dataclass(frozen=True)
class CandidatesCollected(TraceEvent):
    kind: ClassVar[str] = "candidates"
    label: str
    own: int
    useful: int
    speculative: int
    duplication: int


# -- the cycle-driven inner loop ---------------------------------------------

@dataclass(frozen=True)
class CycleAdvance(TraceEvent):
    """One scheduling cycle opened with ``ready`` issuable candidates."""

    kind: ClassVar[str] = "cycle"
    label: str
    cycle: int
    ready: int


@dataclass(frozen=True)
class Issue(TraceEvent):
    kind: ClassVar[str] = "issue"
    label: str
    cycle: int
    uid: int
    opcode: str
    unit: str
    home: str
    #: "own" | "useful" | "speculative" | "duplicated"
    klass: str
    exec_cycles: int


@dataclass(frozen=True)
class UnitOccupancy(TraceEvent):
    """Functional-unit slots consumed during one cycle of one block pass."""

    kind: ClassVar[str] = "units"
    label: str
    cycle: int
    used: dict
    issued: int


@dataclass(frozen=True)
class PriorityDecision(TraceEvent):
    """Two ready candidates competed; ``step`` names the Section 5.2 rule
    component that separated the winner from the runner-up."""

    kind: ClassVar[str] = "priority"
    label: str
    cycle: int
    winner_uid: int
    runner_up_uid: int
    step: str


# -- legality ----------------------------------------------------------------

@dataclass(frozen=True)
class SpeculationRejected(TraceEvent):
    """The Section 5.3 live-on-exit rule vetoed a speculative motion."""

    kind: ClassVar[str] = "spec_rejected"
    label: str
    uid: int
    opcode: str
    home: str
    #: textual names of the registers live on exit that the motion clobbers
    regs: tuple[str, ...]


@dataclass(frozen=True)
class SpeculationRenamed(TraceEvent):
    """Section 4.2 on-demand renaming admitted a vetoed motion after all."""

    kind: ClassVar[str] = "spec_renamed"
    label: str
    uid: int
    opcode: str
    home: str
    regs: tuple[str, ...]


# -- outcomes ----------------------------------------------------------------

@dataclass(frozen=True)
class MotionRecorded(TraceEvent):
    kind: ClassVar[str] = "motion"
    uid: int
    opcode: str
    src: str
    dst: str
    speculative: bool
    duplicated_into: tuple[str, ...]


# -- resilience --------------------------------------------------------------

@dataclass(frozen=True)
class DegradationEvent(TraceEvent):
    """The fail-soft pipeline absorbed a fault: a pass was skipped in
    place or the whole function fell to a lower ladder rung (see
    :mod:`repro.resilience`)."""

    kind: ClassVar[str] = "degradation"
    function: str
    #: where the fault surfaced: ``"pass:<phase>"`` or ``"pipeline"``
    site: str
    #: "pass-skipped" | "rung-descent"
    action: str
    from_rung: str
    to_rung: str
    #: "exception" | "timeout" | "verify-failed" | "injected"
    reason: str
    #: one-line description of the underlying fault
    detail: str


# -- service ----------------------------------------------------------------

@dataclass(frozen=True)
class SupervisorEvent(TraceEvent):
    """The job pool's supervision acted on its workers (see
    :mod:`repro.service.jobs`)."""

    kind: ClassVar[str] = "supervisor"
    #: "worker-lost" | "worker-hung" | "pool-rebuilt" | "breaker-tripped"
    action: str
    #: pool rebuilds so far (including this one, for "pool-rebuilt")
    rebuilds: int
    #: jobs in flight when the supervisor acted
    inflight: int
    #: one-line description of what was observed
    detail: str


@dataclass(frozen=True)
class AdmissionEvent(TraceEvent):
    """The service crossed an admission-control watermark (see
    :mod:`repro.service.daemon`)."""

    kind: ClassVar[str] = "admission"
    #: "shed-start" | "shed-stop"
    action: str
    #: queued-request depth that triggered the transition
    depth: int
    high_water: int
    low_water: int


#: every concrete event type, keyed by its ``kind`` tag
EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        FunctionBegin, FunctionEnd, PhaseBegin, PhaseEnd,
        RegionEnter, RegionExit, RegionSkipped,
        BlockBegin, BlockEnd, CandidateBlocksComputed, CandidatesCollected,
        CycleAdvance, Issue, UnitOccupancy, PriorityDecision,
        SpeculationRejected, SpeculationRenamed, MotionRecorded,
        DegradationEvent, SupervisorEvent, AdmissionEvent,
    )
}


def event_from_dict(data: dict) -> TraceEvent:
    """Rebuild a typed event from its :meth:`TraceEvent.to_dict` form."""
    payload = dict(data)
    cls = EVENT_TYPES[payload.pop("ev")]
    for f in fields(cls):
        value = payload.get(f.name)
        if isinstance(value, list):
            payload[f.name] = tuple(value)
    return cls(**payload)
