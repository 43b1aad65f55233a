"""A BSP-style DAG cost model: a simulator-independent cycle cross-check.

Papp et al.'s BSP scheduling model (PAPERS.md, "DAG Scheduling in the BSP
Model") prices a DAG schedule as a sum of supersteps, each charging the
maximum per-processor work plus communication and a synchronisation
latency.  This module restates an executed instruction trace in those
terms and derives two numbers from first principles -- *without* running
the cycle simulator:

* :attr:`BSPBound.lower_bound` -- a **certified lower bound** on the
  cycles any in-order issue of the trace can take on the given machine.
  It is the max of three classic DAG bounds, each provable against the
  simulator's issue rules (see :func:`bsp_bound`):

  - *work*: each unit type ``u`` starts at most ``n_u`` instructions per
    cycle, so ``cycles >= ceil(count_u / n_u)``;
  - *width*: at most ``total_issue_width`` instructions start per cycle,
    so ``cycles >= ceil(slots / width)`` (folded branches excluded: they
    consume no slot);
  - *depth*: along any register-dependence chain a consumer starts no
    earlier than ``issue(producer) + E(producer) + delay``, so
    ``cycles >= longest chain + 1``.

  Cluster caps, result-buffer drains and the instruction cache only ever
  *delay* issues, so the bound holds for every machine in the zoo.

* :attr:`BSPBound.estimate` -- the BSP superstep-sum **estimate**: each
  executed basic block is one superstep (the branch ending it is the
  barrier), priced ``max(local work, local depth) + L`` with the sync
  latency ``L`` defaulting to 0 (the paper's machine synchronises through
  the branch unit for free).  An estimate, not a bound: within a block it
  assumes perfect packing, across blocks it forbids overlap.

The differential oracle (:func:`check_bsp`) asserts the invariant pair
used by the fuzzer and the scorecard: **simulated cycles must never beat
the lower bound**, and must not drift above ``slack * lower_bound +
headroom``.  The documented tolerance (slack 24.0, headroom 32 cycles) is
deliberately loose: unscheduled code on a wide in-order machine stalls
the whole pipeline at every hazard, and the worst amplification measured
across the machine zoo x the fuzz corpus is ~15x the bound (ss8, level
``none``), so 24x leaves ~50% margin.  The check exists to catch
catastrophic cross-model drift (a broken simulator, a degenerate
schedule, an under-charging cost model), not to grade schedules.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field

from ..ir.instruction import Instruction
from ..ir.opcodes import Opcode, UnitType
from ..ir.operand import Reg
from ..machine.model import MachineModel

#: documented drift tolerance: sim may cost at most
#: ``DEFAULT_SLACK * lower_bound + DEFAULT_HEADROOM`` cycles
DEFAULT_SLACK = 24.0
#: additive headroom so tiny traces (a handful of instructions) are not
#: judged by a multiplicative tolerance alone
DEFAULT_HEADROOM = 32


@dataclass(frozen=True)
class BSPBound:
    """BSP-style cost decomposition of one executed trace."""

    #: issue slots consumed (folded branches excluded)
    slots: int
    #: per-unit-type work bounds: ceil(count_u / n_u)
    work: tuple[tuple[str, int], ...]
    #: ceil(slots / total_issue_width)
    width: int
    #: longest register-dependence chain (cycles), + 1 for the last issue
    depth: int
    #: number of supersteps (executed basic blocks) in the BSP reading
    supersteps: int
    #: BSP superstep-sum estimate of the cycle count (not a bound)
    estimate: int

    @property
    def lower_bound(self) -> int:
        """Certified minimum cycles for any in-order issue of the trace."""
        work_max = max((bound for _unit, bound in self.work), default=0)
        return max(work_max, self.width, self.depth)


@dataclass
class BSPCheck:
    """Verdict of one simulator-vs-BSP cross-check."""

    bound: BSPBound
    simulated_cycles: int
    slack: float = DEFAULT_SLACK
    headroom: int = DEFAULT_HEADROOM
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def limit(self) -> int:
        return int(self.slack * self.bound.lower_bound) + self.headroom

    def format(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = (f"bsp cross-check: {status} -- simulated "
                f"{self.simulated_cycles} cycles, lower bound "
                f"{self.bound.lower_bound}, drift limit {self.limit}")
        return "\n".join([head] + [f"  {v}" for v in self.violations])


#: unit types in name order, the order of :attr:`BSPBound.work`
_UNITS_BY_NAME = sorted(UnitType, key=lambda unit: unit.name)
_UNITS = len(UnitType)


def _superstep_cost(capacities: list[int], width: int, counts: list[int],
                    local_depth: int) -> int:
    """BSP price of one superstep: max resource pressure vs local depth
    (``counts`` per unit index; the extra bucket of folded branches is
    past the end of ``capacities`` and carries no work)."""
    cost = local_depth
    slots = 0
    for issued, capacity in zip(counts, capacities):
        if issued:
            slots += issued
            cost = max(cost, -(-issued // capacity))
    return max(cost, -(-slots // width))


def bsp_bound(trace: list[Instruction], machine: MachineModel, *,
              branch_folding: bool = True, sync_latency: int = 0) -> BSPBound:
    """Price an executed trace in the BSP model (see module docstring).

    ``branch_folding`` must match the simulator config the result is
    compared against (the default matches :class:`~repro.sim.SimConfig`):
    a folded unconditional branch consumes no issue slot, so it carries
    no work, but it still anchors superstep boundaries.

    Each static instruction is decoded once per call, from
    :meth:`~repro.machine.MachineModel.issue_facts` alone -- the machine
    facts the cycle simulator also reads, and nothing of the simulator
    itself -- into register slots, ``(slot, latency)`` per def and a unit
    index, so the walk over the trace touches only ints and lists.
    """
    width = machine.total_issue_width
    #: instruction -> (use slots, (def slot, latency) pairs, unit index,
    #: closes a superstep); a folded branch counts in the extra bucket
    #: ``counts[_UNITS]``, which holds no work
    decoded: dict[Instruction, tuple] = {}
    #: register -> slot in ``reg_ready`` (the next number when missing)
    slot_of: dict[Reg, int] = defaultdict(itertools.count().__next__)
    slot = slot_of.__getitem__
    #: cycle level at which each register slot becomes consumable
    reg_ready: list[int] = []
    capacities = [0] * _UNITS
    counts = [0] * (_UNITS + 1)  # issues per unit index
    depth = 0  # largest start level forced by register chains

    # per-superstep (executed basic block) accumulators for the estimate
    estimate = 0
    supersteps = 0
    step_counts = [0] * (_UNITS + 1)
    step_depth = 0
    step_base = 0  # chain level at superstep entry

    for ins in trace:
        record = decoded.get(ins)
        if record is None:
            unit, capacity, latencies = machine.issue_facts(ins)
            capacities[unit] = capacity
            uses = tuple(map(slot, ins.uses))
            defs = tuple(zip(map(slot, ins.defs), latencies))
            reg_ready.extend([0] * (len(slot_of) - len(reg_ready)))
            if branch_folding and ins.opcode is Opcode.B:
                unit = _UNITS
            record = decoded[ins] = (uses, defs, unit, ins.opcode.is_branch)
        uses, defs, unit, barrier = record

        start = 0
        for use in uses:
            level = reg_ready[use]
            if level > start:
                start = level
        if start > depth:
            depth = start
        counts[unit] += 1
        step_counts[unit] += 1
        local = start - step_base
        if local > step_depth:
            step_depth = local
        for defined, latency in defs:
            reg_ready[defined] = start + latency
        if barrier:
            # the branch is the superstep barrier: close this block
            supersteps += 1
            estimate += (_superstep_cost(capacities, width, step_counts,
                                         step_depth)
                         + sync_latency)
            step_counts = [0] * (_UNITS + 1)
            step_depth = 0
            step_base = depth
    if sum(step_counts[:_UNITS]) or step_depth:
        supersteps += 1
        estimate += _superstep_cost(capacities, width, step_counts,
                                    step_depth)

    slots = sum(counts[:_UNITS])
    work = tuple(
        (unit.name, -(-counts[unit.index] // capacities[unit.index]))
        for unit in _UNITS_BY_NAME if counts[unit.index]
    )
    return BSPBound(
        slots=slots,
        work=work,
        width=-(-slots // width),
        depth=depth + 1 if trace else 0,
        supersteps=supersteps,
        estimate=estimate,
    )


def check_bsp(trace: list[Instruction], machine: MachineModel,
              simulated_cycles: int, *, slack: float = DEFAULT_SLACK,
              headroom: int = DEFAULT_HEADROOM,
              branch_folding: bool = True) -> BSPCheck:
    """Cross-check a simulated cycle count against the BSP cost model."""
    bound = bsp_bound(trace, machine, branch_folding=branch_folding)
    check = BSPCheck(bound=bound, simulated_cycles=simulated_cycles,
                     slack=slack, headroom=headroom)
    if simulated_cycles < bound.lower_bound:
        check.violations.append(
            f"simulated {simulated_cycles} cycles beat the BSP lower bound "
            f"{bound.lower_bound} (work "
            f"{dict(bound.work)}, width {bound.width}, depth {bound.depth})"
            f" -- the simulator is under-charging")
    if simulated_cycles > check.limit:
        check.violations.append(
            f"simulated {simulated_cycles} cycles drift beyond the "
            f"documented tolerance {check.limit} "
            f"(= {slack} x lower bound {bound.lower_bound} + {headroom})")
    return check
