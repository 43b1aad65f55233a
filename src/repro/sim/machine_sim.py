"""A cycle-level timing simulator for the parametric machine (Section 2).

The model matches the one the paper reasons with when it estimates that
Figure 2 "executes in 20, 21 or 22 cycles" and that the scheduled versions
take 12-13 / 11-12:

* instructions issue strictly in program order along the executed trace
  (a stalled instruction blocks everything behind it);
* in one cycle, at most ``n_i`` instructions may issue on each unit type
  ``i`` (and at most ``issue_width`` overall, if the machine caps it) --
  on the RS/6K this yields the fixed point unit and branch unit "running
  in parallel";
* hardware interlocks enforce the per-edge delays: a consumer issues no
  earlier than ``issue(producer) + E(producer) + d``;
* control transfer itself is free (the branch unit resolves branches;
  taken and fall-through cost the same, per the paper's footnote 2), and
  unconditional branches are *folded* by the branch unit (they consume no
  issue slot) -- the RS/6000 branch processor really did this;
* units are fully pipelined (multi-cycle results, one issue per cycle).

Timing only: the simulator consumes a block trace recorded by the
functional executor (or built by hand), so values never need to be
recomputed here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode, UnitType
from ..ir.operand import Reg
from ..machine.model import MachineModel
from .executor import ExecutionResult, Executor


@dataclass
class ICacheConfig:
    """A direct-mapped instruction cache.

    The paper worries that scheduling with duplication "might increase the
    code size incurring additional costs in terms of instruction cache
    misses"; this optional model makes that cost measurable.  Instructions
    occupy 4 bytes at their static layout position; a fetch outside the
    currently-resident line of its set stalls the pipeline.
    """

    #: total size in bytes (RS/6000 model 530: 8 KB instruction cache)
    size: int = 8 * 1024
    line: int = 64
    miss_penalty: int = 8

    @property
    def lines(self) -> int:
        return max(1, self.size // self.line)


@dataclass
class SimConfig:
    """Simulator knobs (defaults reproduce the paper's counts)."""

    #: unconditional branches are folded by the branch unit (cost 0)
    branch_folding: bool = True
    #: optional instruction-cache model (None = perfect cache, the
    #: paper's implicit assumption for its cycle estimates)
    icache: ICacheConfig | None = None


def layout_addresses(func: Function) -> dict[int, int]:
    """Static byte address of every instruction (4 bytes each, layout
    order) -- the input the instruction-cache model needs."""
    addresses: dict[int, int] = {}
    offset = 0
    for block in func.blocks:
        for ins in block.instrs:
            addresses[id(ins)] = offset
            offset += 4
    return addresses


@dataclass
class SimulationResult:
    """Timing of one simulated trace."""

    cycles: int
    instructions: int
    #: issue cycle of every instruction of the trace, in order
    issue_cycles: list[int] = field(default_factory=list)
    #: issue cycle of the first instruction of each trace block
    block_starts: list[int] = field(default_factory=list)
    #: instruction-cache misses (0 with the default perfect cache)
    icache_misses: int = 0
    #: forced result-buffer drains (0 unless the machine is an
    #: exposed-datapath model with ``buffers``)
    buffer_drains: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        return self.instructions / self.cycles if self.cycles else 0.0


#: row layout of the issue counts of one cycle: ``row[u]`` counts the
#: issues on unit type ``u`` (by ``UnitType.index``); cluster ``c`` keeps
#: its own per-unit counts from ``row[(c + 1) * _UNITS]`` on
_UNITS = len(UnitType)


class _IssueRecord(NamedTuple):
    """What issuing one static instruction needs, decoded once."""

    #: register slots read
    uses: tuple[int, ...]
    #: (register slot, result latency) of each def
    defs: tuple[tuple[int, int], ...]
    #: ``UnitType.index`` of its unit, and the machine's count of them
    unit: int
    capacity: int
    #: an unconditional branch the branch unit folds (no issue slot)
    folded: bool
    #: (line, tag) in the instruction cache; None without one
    fetch: tuple[int, int] | None
    #: (row offset, issue width, unit count) of every cluster owning the
    #: unit, in cluster order; None on an unclustered machine
    lanes: tuple[tuple[int, int, int], ...] | None
    #: the first of those offsets (0 on an unclustered machine): where
    #: the instruction issues in a cycle nothing has issued in yet
    lane: int
    #: the unit's result-buffer capacity; None without one
    buffer: int | None


class TraceSimulator:
    """Streaming in-order multi-issue simulator.

    The simulator pays per static instruction, not per dynamic one.  The
    first issue of an instruction decodes it into a record: its registers
    become small ints (slots of a flat ready-cycle list), and its unit
    index, unit count and per-def result latencies (one
    :meth:`~repro.machine.MachineModel.issue_facts` call), branch
    folding, instruction-cache line and buffer capacity are read once.
    Every later issue touches only ints and lists.  Records are keyed by
    the instruction object (an identity hash) and live as long as the
    simulator; each entry point below builds a fresh simulator per run,
    so a function mutated between runs is decoded afresh.

    Issue is in order, so no instruction ever issues before the last
    issue cycle: only that cycle can hold issue counts, and one row of
    counters (``_row`` at ``_row_cycle``) replaces a table over cycles.
    """

    def __init__(self, machine: MachineModel, config: SimConfig | None = None,
                 *, addresses: dict[int, int] | None = None):
        self.machine = machine
        self.config = config or SimConfig()
        self._width = machine.total_issue_width
        #: instruction -> its decoded record
        self._records: dict[Instruction, _IssueRecord] = {}
        #: register -> slot in ``_ready``, the cycle it becomes consumable
        #: (a missing register is given the next slot number, all in C)
        self._slots: dict[Reg, int] = defaultdict(itertools.count().__next__)
        self._ready: list[int] = []
        self._last_issue = 0
        self._issue_cycles: list[int] = []
        #: issue counts of the last cycle anything issued in
        self._clusters = machine.clusters
        self._row_cycle = -1
        self._row = [0] * (_UNITS * (1 + len(self._clusters or ())))
        self._issued = 0
        #: id(instruction) -> static byte address, for the icache model
        self._addresses = addresses or {}
        self._icache_tags: dict[int, int] = {}
        self.icache_misses = 0
        #: exposed-datapath machines: the unit whose result buffer holds
        #: each register slot, and each unit's resident (slot, produced
        #: cycle) entries oldest-first
        self._buffers = machine.buffers
        self._buffered_reg: dict[int, int] = {}
        self._buffer_fifo: list[list[tuple[int, int]]] = [
            [] for _ in UnitType]
        self.buffer_drains = 0

    # -- decode ------------------------------------------------------------

    def _decode(self, ins: Instruction) -> _IssueRecord:
        """Build (and keep) the record of ``ins``."""
        unit, capacity, latencies = self.machine.issue_facts(ins)
        slot = self._slots.__getitem__
        uses = tuple(map(slot, ins.uses))
        defs = tuple(zip(map(slot, ins.defs), latencies))
        self._ready.extend([0] * (len(self._slots) - len(self._ready)))
        folded = self.config.branch_folding and ins.opcode is Opcode.B
        fetch = None
        cache = self.config.icache
        if cache is not None:
            addr = self._addresses.get(id(ins))
            if addr is not None:
                fetch = ((addr // cache.line) % cache.lines,
                         addr // (cache.line * cache.lines))
        lanes = None
        lane = 0
        if self._clusters is not None:
            lanes = tuple(
                ((index + 1) * _UNITS, c.issue_width, c.unit_count(ins.unit))
                for index, c in enumerate(self._clusters)
                if c.unit_count(ins.unit) > 0)
            if lanes:
                lane = lanes[0][0]
        buffer = None
        if self._buffers is not None:
            buffer = self._buffers.capacity(ins.unit)
        record = self._records[ins] = _IssueRecord(
            uses, defs, unit, capacity, folded, fetch, lanes, lane, buffer)
        return record

    # -- core ------------------------------------------------------------

    def issue(self, ins: Instruction) -> int:
        """Issue one instruction; returns its issue cycle."""
        self._issue_all((ins,))
        return self._issue_cycles[-1]

    def _issue_all(self, instrs) -> None:
        """Issue ``instrs`` in program order, appending each issue cycle
        to ``_issue_cycles`` -- the one issue engine behind
        :meth:`issue`, :meth:`run_blocks` and :func:`simulate_execution`."""
        records = self._records
        ready = self._ready
        width = self._width
        buffers = self._buffers
        row = self._row
        row_cycle = self._row_cycle
        issued = self._issued
        last = self._last_issue
        append = self._issue_cycles.append
        for ins in instrs:
            record = records.get(ins)
            if record is None:
                record = self._decode(ins)
            uses, defs, unit, capacity, folded, fetch, lanes, lane, _ = record
            earliest = last
            for slot in uses:
                if ready[slot] > earliest:
                    earliest = ready[slot]
            if fetch is not None:
                earliest += self._fetch_penalty(fetch)

            if folded:
                # Folded: occupies no slot, but later instructions still
                # may not issue before it (program order).
                last = earliest
                append(earliest)
                continue

            if buffers is not None:
                drains = self._buffer_overflow(record, earliest)
                if drains:
                    self.buffer_drains += drains
                    earliest += drains * buffers.drain_penalty

            if capacity <= 0:
                raise ValueError(
                    f"machine {self.machine.name!r} has no "
                    f"{ins.unit.name} unit for {ins!r}"
                )
            cycle = earliest
            if cycle == row_cycle:
                # something already issued this cycle: is there room left?
                if row[unit] >= capacity or issued >= width:
                    cycle += 1
                elif lanes is not None:
                    free = self._free_lane(lanes, unit, row)
                    if free is None:
                        cycle += 1
                    else:
                        lane = free
            if cycle != row_cycle:
                # a cycle nothing issued in yet: the first lane is free
                row = [0] * len(row)
                row_cycle = cycle
                issued = 0
            row[unit] += 1
            issued += 1
            if lane:
                row[lane + unit] += 1
            last = cycle
            append(cycle)
            if buffers is not None:
                self._buffer_update(record, cycle)
            for slot, latency in defs:
                ready[slot] = cycle + latency
        self._row = row
        self._row_cycle = row_cycle
        self._issued = issued
        self._last_issue = last

    @staticmethod
    def _free_lane(lanes: tuple, unit: int, row: list[int]) -> int | None:
        """Row offset of the lowest-index cluster with a free ``unit``
        slot in the cycle counted by ``row``, or None."""
        for lane, lane_width, lane_capacity in lanes:
            if (row[lane + unit] < lane_capacity
                    and sum(row[lane:lane + _UNITS]) < lane_width):
                return lane
        return None

    # -- exposed-datapath result buffers ----------------------------------

    def _buffer_overflow(self, record: _IssueRecord, now: int) -> int:
        """Forced drains of still-hot results issuing ``record`` at ``now``
        would cause (0 = the results fit, or every eviction is of a stale
        result the writeback port already retired for free)."""
        defs, cap = record.defs, record.buffer
        if not defs or cap is None:
            return 0
        freed = set(record.uses)
        freed.update(slot for slot, _latency in defs)
        resident = [produced
                    for slot, produced in self._buffer_fifo[record.unit]
                    if slot not in freed]
        overflow = len(resident) + len(defs) - cap
        if overflow <= 0:
            return 0
        # evictions happen oldest-first; only still-hot victims cost
        free_after = self._buffers.free_after
        return sum(1 for produced in resident[:overflow]
                   if now - produced < free_after)

    def _buffer_update(self, record: _IssueRecord, cycle: int) -> None:
        """Account buffer traffic of issuing ``record``: its reads free
        the producers' slots, its results claim slots (evicting
        oldest-first on overflow -- any hot-drain penalty was already
        charged)."""
        defs, unit, cap = record.defs, record.unit, record.buffer
        for slot in record.uses:
            self._release_buffer(slot)
        for slot, _latency in defs:
            # a redefinition invalidates any still-buffered old value,
            # whichever unit produced it
            self._release_buffer(slot)
        if not defs or cap is None:
            return
        fifo = self._buffer_fifo[unit]
        while len(fifo) + len(defs) > cap:
            del self._buffered_reg[fifo.pop(0)[0]]
        for slot, _latency in defs:
            fifo.append((slot, cycle))
            self._buffered_reg[slot] = unit

    def _release_buffer(self, slot: int) -> None:
        unit = self._buffered_reg.pop(slot, None)
        if unit is not None:
            fifo = self._buffer_fifo[unit]
            for i, (resident, _produced) in enumerate(fifo):
                if resident == slot:
                    del fifo[i]
                    break

    def run_blocks(self, blocks: list[BasicBlock]) -> SimulationResult:
        """Simulate the instruction stream of ``blocks`` in order."""
        block_starts: list[int] = []
        count = 0
        for block in blocks:
            block_starts.append(
                self._peek_next_cycle(block.instrs[0]) if block.instrs
                else self._last_issue
            )
            self._issue_all(block.instrs)
            count += len(block.instrs)
        last = max(self._issue_cycles, default=-1)
        return SimulationResult(
            cycles=last + 1,
            instructions=count,
            issue_cycles=list(self._issue_cycles),
            block_starts=block_starts,
            icache_misses=self.icache_misses,
            buffer_drains=self.buffer_drains,
        )

    def _fetch_penalty(self, fetch: tuple[int, int]) -> int:
        """Instruction-cache lookup of a decoded ``(line, tag)``: 0 on a
        hit."""
        line_index, tag = fetch
        if self._icache_tags.get(line_index) == tag:
            return 0
        self._icache_tags[line_index] = tag
        self.icache_misses += 1
        return self.config.icache.miss_penalty

    def _peek_next_cycle(self, ins: Instruction) -> int:
        """The cycle ``ins`` would issue at, without issuing it."""
        record = self._records.get(ins) or self._decode(ins)
        earliest = self._last_issue
        for slot in record.uses:
            earliest = max(earliest, self._ready[slot])
        if record.folded:
            return earliest
        if self._buffers is not None:
            drains = self._buffer_overflow(record, earliest)
            if drains:
                earliest += drains * self._buffers.drain_penalty
        if earliest == self._row_cycle:
            # the room test of _issue_all
            row, unit, lanes = self._row, record.unit, record.lanes
            if (row[unit] >= max(record.capacity, 1)
                    or self._issued >= self._width
                    or (lanes is not None
                        and self._free_lane(lanes, unit, row) is None)):
                return earliest + 1
        return earliest


def simulate_trace(
    blocks: list[BasicBlock],
    machine: MachineModel,
    config: SimConfig | None = None,
) -> SimulationResult:
    """Time the given block sequence from a cold pipeline."""
    return TraceSimulator(machine, config).run_blocks(blocks)


def simulate_path_iterations(
    func: Function,
    path_labels: list[str],
    machine: MachineModel,
    *,
    iterations: int = 4,
    config: SimConfig | None = None,
) -> int:
    """Steady-state cycles per iteration along one loop path.

    Simulates ``iterations`` repetitions of the path and returns the
    start-to-start distance of the last two -- this is how the paper's
    "cycles per iteration" figures for the minmax loop are measured.
    """
    if iterations < 2:
        raise ValueError("need at least 2 iterations for start-to-start")
    path = [func.block(label) for label in path_labels]
    sim = TraceSimulator(machine, config)
    starts: list[int] = []
    for _ in range(iterations):
        result_start = None
        for i, block in enumerate(path):
            for j, ins in enumerate(block.instrs):
                cycle = sim.issue(ins)
                if i == 0 and j == 0:
                    result_start = cycle
        starts.append(result_start if result_start is not None else 0)
    return starts[-1] - starts[-2]


def simulate_execution(
    func: Function,
    machine: MachineModel,
    *,
    regs: dict[Reg, int] | None = None,
    memory: dict[int, int] | None = None,
    call_handlers=None,
    max_steps: int = 1_000_000,
    config: SimConfig | None = None,
) -> tuple[ExecutionResult, SimulationResult]:
    """Run ``func`` functionally, then time the executed trace."""
    result = Executor(
        func, regs=regs, memory=memory, call_handlers=call_handlers,
        max_steps=max_steps,
    ).run()
    # only the instruction-cache model reads the layout
    addresses = (layout_addresses(func)
                 if config is not None and config.icache is not None
                 else None)
    sim = TraceSimulator(machine, config, addresses=addresses)
    sim._issue_all(result.instr_trace)
    issue_cycles = sim._issue_cycles
    timing = SimulationResult(
        cycles=max(issue_cycles, default=-1) + 1,
        instructions=len(issue_cycles),
        issue_cycles=issue_cycles,
        icache_misses=sim.icache_misses,
        buffer_drains=sim.buffer_drains,
    )
    return result, timing
