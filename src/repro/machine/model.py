"""The parametric machine description (Section 2 of the paper).

A superscalar machine is "a collection of functional units of ``m`` types,
where the machine has ``n_1, n_2, ..., n_m`` units of each type".  Each
instruction executes on any unit of its type, takes an integral number of
cycles, and pipeline constraints are modelled as integer *delays* on data
dependence edges: if ``I1`` (execution time ``t``) starts at cycle ``k`` and
the edge ``(I1, I2)`` carries delay ``d``, then ``I2`` should start no
earlier than ``k + t + d``.  Starting earlier is *legal* (hardware
interlocks stall at run time) but wasteful -- which is exactly what the
scheduler minimises and what the cycle simulator charges for.

The delay structure is parametric (``DelayModel``); the RS/6K instance in
:mod:`repro.machine.rs6k` uses the paper's four delay classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode, UnitType
from ..ir.operand import Reg, RegClass

#: An extension hook: returns a delay in cycles, or None to defer to the
#: built-in rules.  Receives (producer, consumer, register).
DelayRule = Callable[[Instruction, Instruction, Reg], "int | None"]


class MachineValidationError(ValueError):
    """A malformed machine description, rejected at construction time.

    Before this existed, a zero unit count or a negative delay surfaced
    only much later as a deep scheduler or simulator error; now every
    config is checked the moment it is built.
    """


def _is_int(value, minimum: int) -> bool:
    """A genuine int (bools are not counts) no smaller than ``minimum``."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= minimum)


@dataclass(frozen=True)
class DelayModel:
    """Per-edge pipeline delays, in cycles (Section 2.1's four classes)."""

    #: delayed load: load -> use of the loaded register
    load_use: int = 1
    #: fixed point compare -> the branch testing its condition register
    fixed_compare_branch: int = 3
    #: floating point operation -> use of its result
    float_op_use: int = 1
    #: floating point compare -> the branch testing its condition register
    float_compare_branch: int = 5

    def __post_init__(self) -> None:
        for name in ("load_use", "fixed_compare_branch", "float_op_use",
                     "float_compare_branch"):
            value = getattr(self, name)
            if not _is_int(value, 0):
                raise MachineValidationError(
                    f"delay {name} must be a non-negative integer, "
                    f"got {value!r}")


@dataclass(frozen=True)
class Cluster:
    """One issue cluster of a clustered-FU machine.

    Clustered machines partition their functional units into clusters
    with a private issue port: in one cycle a cluster may start at most
    ``issue_width`` instructions, only on its own units.  The clusters of
    a :class:`MachineModel` must partition its ``units`` exactly, so the
    flat unit counts (what the scheduler's capacity heuristics see) stay
    truthful; the per-cluster caps are a *timing* refinement charged by
    the cycle simulator.
    """

    name: str
    #: units owned by this cluster (a slice of the machine's ``units``)
    units: tuple[tuple[UnitType, int], ...]
    #: instructions this cluster may start per cycle
    issue_width: int

    def unit_count(self, unit: UnitType) -> int:
        for u, n in self.units:
            if u is unit:
                return n
        return 0


def cluster(name: str, units: dict[UnitType, int],
            issue_width: int) -> Cluster:
    """Build a :class:`Cluster` from a plain units dict."""
    return Cluster(name=name, units=tuple(units.items()),
                   issue_width=issue_width)


@dataclass(frozen=True)
class BufferModel:
    """Exposed-datapath result buffers (after Dahlem et al.).

    On an exposed-datapath machine a result lives in its functional
    unit's output buffer until a consumer reads it (bypassing the
    register file) or the unit's background writeback port retires it.
    ``capacities`` bounds the produced-but-not-yet-consumed results per
    unit type.  A consuming read frees the producer's slot for free;
    so does evicting a *stale* result (older than ``free_after`` cycles
    -- the idle writeback port has long since retired it).  What costs is
    starting a producer when the buffer is full of still-hot results: the
    forced drain of a hot result models the explicit move the compiler
    would have had to schedule, charged as ``drain_penalty`` extra cycles
    on the new producer's issue.  Schedules that consume results promptly
    and spread unit pressure (exactly what good global scheduling
    produces) pay fewer drains.
    """

    #: max outstanding unconsumed results per unit type
    capacities: tuple[tuple[UnitType, int], ...]
    #: issue-delay cycles charged per forced drain of a still-hot result
    drain_penalty: int = 2
    #: results older than this many cycles have been retired by the
    #: background writeback port: evicting them is free
    free_after: int = 4

    def capacity(self, unit: UnitType) -> "int | None":
        for u, n in self.capacities:
            if u is unit:
                return n
        return None


def buffers(capacities: dict[UnitType, int], drain_penalty: int = 2,
            free_after: int = 4) -> BufferModel:
    """Build a :class:`BufferModel` from a plain capacities dict."""
    return BufferModel(capacities=tuple(capacities.items()),
                       drain_penalty=drain_penalty, free_after=free_after)


@dataclass
class MachineModel:
    """A concrete machine: unit counts, execution times, delays."""

    name: str
    #: number of units of each type (the paper's ``n_1 .. n_m``)
    units: dict[UnitType, int]
    delays: DelayModel = field(default_factory=DelayModel)
    #: per-opcode execution-time overrides (else ``Opcode.info.cycles``)
    exec_times: dict[Opcode, int] = field(default_factory=dict)
    #: extension rules consulted before the built-in delay classes
    extra_delay_rules: list[DelayRule] = field(default_factory=list)
    #: optional cap on total instructions issued per cycle regardless of
    #: unit availability (None = limited only by the unit counts); lets a
    #: single-issue pipelined RISC be expressed with the same unit mix
    issue_width: int | None = None
    #: optional clustered-FU structure: clusters partition ``units`` and
    #: each adds a per-cycle issue cap over its own units
    clusters: tuple[Cluster, ...] | None = None
    #: optional exposed-datapath result buffers (Dahlem et al.)
    buffers: BufferModel | None = None

    def __post_init__(self) -> None:
        self._validate()

    def _validate(self) -> None:
        fail = MachineValidationError
        if not self.units:
            raise fail(f"{self.name}: machine has no functional units")
        for unit, count in self.units.items():
            if not isinstance(unit, UnitType):
                raise fail(f"{self.name}: unit key {unit!r} is not a "
                           f"UnitType")
            if not _is_int(count, 1):
                raise fail(f"{self.name}: unit count for {unit.name} must "
                           f"be a positive integer, got {count!r}")
        # delay values validate themselves in DelayModel.__post_init__
        if not isinstance(self.delays, DelayModel):
            raise fail(f"{self.name}: delays must be a DelayModel, "
                       f"got {self.delays!r}")
        for opcode, cycles in self.exec_times.items():
            if not _is_int(cycles, 1):
                raise fail(f"{self.name}: execution time for "
                           f"{getattr(opcode, 'name', opcode)!r} must be a "
                           f"positive integer, got {cycles!r}")
        if self.issue_width is not None and not _is_int(self.issue_width, 1):
            raise fail(f"{self.name}: issue_width must be a positive "
                       f"integer or None, got {self.issue_width!r}")
        if self.clusters is not None:
            self._validate_clusters()
        if self.buffers is not None:
            self._validate_buffers()

    def _validate_clusters(self) -> None:
        fail = MachineValidationError
        if not self.clusters:
            raise fail(f"{self.name}: clusters must be a non-empty "
                       f"sequence or None")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise fail(f"{self.name}: duplicate cluster names {names}")
        summed: dict[UnitType, int] = {}
        for c in self.clusters:
            if not _is_int(c.issue_width, 1):
                raise fail(f"{self.name}: cluster {c.name!r} issue_width "
                           f"must be a positive integer, "
                           f"got {c.issue_width!r}")
            if not c.units:
                raise fail(f"{self.name}: cluster {c.name!r} owns no units")
            for unit, count in c.units:
                if not _is_int(count, 1):
                    raise fail(f"{self.name}: cluster {c.name!r} count for "
                               f"{unit.name} must be a positive integer, "
                               f"got {count!r}")
                summed[unit] = summed.get(unit, 0) + count
        if summed != dict(self.units):
            raise fail(f"{self.name}: clusters must partition the machine "
                       f"units exactly (clusters sum to "
                       f"{ {u.name: n for u, n in summed.items()} }, "
                       f"machine has "
                       f"{ {u.name: n for u, n in self.units.items()} })")

    def _validate_buffers(self) -> None:
        fail = MachineValidationError
        if not isinstance(self.buffers, BufferModel):
            raise fail(f"{self.name}: buffers must be a BufferModel, "
                       f"got {self.buffers!r}")
        for unit, capacity in self.buffers.capacities:
            if not _is_int(capacity, 1):
                raise fail(f"{self.name}: buffer capacity for {unit.name} "
                           f"must be a positive integer, got {capacity!r}")
            if self.units.get(unit, 0) < 1:
                raise fail(f"{self.name}: buffer capacity given for "
                           f"{unit.name}, but the machine has no such unit")
        if not _is_int(self.buffers.drain_penalty, 0):
            raise fail(f"{self.name}: drain_penalty must be a non-negative "
                       f"integer, got {self.buffers.drain_penalty!r}")
        if not _is_int(self.buffers.free_after, 0):
            raise fail(f"{self.name}: free_after must be a non-negative "
                       f"integer, got {self.buffers.free_after!r}")

    # -- unit structure ------------------------------------------------------

    @property
    def unit_types(self) -> list[UnitType]:
        return [u for u, n in self.units.items() if n > 0]

    def unit_count(self, unit: UnitType) -> int:
        return self.units.get(unit, 0)

    @property
    def total_issue_width(self) -> int:
        """Maximum instructions issued per cycle across all units."""
        width = sum(self.units.values())
        if self.issue_width is not None:
            width = min(width, self.issue_width)
        return width

    # -- timing ---------------------------------------------------------------

    def exec_time(self, ins: Instruction) -> int:
        """Execution time of ``ins`` in cycles (the paper's ``E(I)``)."""
        return self.exec_times.get(ins.opcode, ins.opcode.info.cycles)

    def flow_delay(self, producer: Instruction, consumer: Instruction,
                   reg: Reg) -> int:
        """Delay on the flow-dependence edge producer --reg--> consumer.

        Only definition-to-use edges carry potentially non-zero delays
        (Section 4.2); anti- and output-dependence edges always carry zero
        and never reach this function.
        """
        for rule in self.extra_delay_rules:
            result = rule(producer, consumer, reg)
            if result is not None:
                return result
        d = self.delays
        op = producer.opcode
        # Delayed load: only the *loaded* register is late; the updated
        # base register of LU/STU is computed early by the fixed point unit.
        if op.is_load and producer.defs and reg == producer.defs[0]:
            return d.load_use
        if op.is_compare and reg.rclass is RegClass.CR:
            if op.unit is UnitType.FPU:
                return d.float_compare_branch
            return d.fixed_compare_branch
        if op.unit is UnitType.FPU and not op.is_compare and not op.is_load:
            return d.float_op_use
        return 0

    def result_latency(self, ins: Instruction, reg: Reg) -> int:
        """Cycles from issue of ``ins`` until ``reg`` is consumable:
        execution time plus the producer-side flow delay.  Used by the
        cycle simulator, which models the hardware interlocks."""
        return self.exec_time(ins) + self.flow_delay(ins, ins, reg)

    def issue_facts(self, ins: Instruction
                    ) -> tuple[int, int, tuple[int, ...]]:
        """What timing an issue of ``ins`` needs to know of the machine:
        ``(unit.index, unit_count(unit), latencies)``, where
        ``latencies[k]`` is the :meth:`result_latency` of ``ins.defs[k]``.

        The cycle simulator and the BSP bound both decode each static
        instruction through this one helper, once per simulator or bound
        call, and then work on plain ints per dynamic instruction.
        """
        unit = ins.opcode.unit
        return (unit.index, self.units.get(unit, 0),
                tuple(self.result_latency(ins, reg) for reg in ins.defs))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}x{u.name}" for u, n in self.units.items() if n)
        return f"<MachineModel {self.name}: {parts}>"
