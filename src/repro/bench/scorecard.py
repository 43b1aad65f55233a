"""The cross-model scorecard: Figure 8 swept across the machine zoo.

The paper evaluates one machine (the RS/6000).  The scorecard regenerates
a Figure-8-style matrix over *every* machine in the zoo: for each
``program x machine x level`` cell it

* compiles once, traced and with the pipeline's self-checking mode on,
  so the static verifier has accepted every emitted schedule and the
  order checker (:mod:`repro.verify.order`) has replayed every global
  sweep's decisions against the Section 5.2 order;
* runs on fixed per-program inputs (same seed across all machines and
  levels) and checks the return value against the workload's Python
  oracle;
* cross-checks the simulated cycle count against the BSP DAG cost model
  (:mod:`repro.sim.bsp`): beating the lower bound or drifting beyond the
  documented tolerance fails the cell.

A cell that trips any of those checks carries its failure strings and the
whole scorecard reports ``ok = False`` (the CLI exits 1, CI goes red).

Everything recorded is deterministic -- instruction counts, simulated
cycles, BSP bounds -- never wall-clock time, so the JSON emitted by
:meth:`Scorecard.to_json` is byte-stable across runs and machines and can
be kept as a golden file (``tests/golden/scorecard.json``).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..compiler import compile_c
from ..machine.configs import CONFIGS, ZOO
from ..obs.tracer import CollectingTracer
from ..sched.candidates import ScheduleLevel
from ..sim.bsp import check_bsp
from ..verify.verifier import ScheduleVerificationError
from ..xform.pipeline import PipelineConfig
from .programs import MINMAX_WORKLOAD, WORKLOADS, Workload

_LEVELS = (ScheduleLevel.NONE, ScheduleLevel.USEFUL, ScheduleLevel.SPECULATIVE)

#: the bench programs swept by default: the four Figure 8 stand-ins plus
#: the paper's Figure 1 min/max kernel
SCORECARD_WORKLOADS: tuple[Workload, ...] = tuple(WORKLOADS) + (
    MINMAX_WORKLOAD,)


@dataclass
class ScorecardCell:
    """One ``program x machine x level`` measurement."""

    program: str
    machine: str
    level: str
    cycles: int = 0
    instructions: int = 0
    buffer_drains: int = 0
    bsp_lower_bound: int = 0
    bsp_estimate: int = 0
    #: static verifier accepted every emitted schedule
    verified: bool = False
    #: every global sweep kept the Section 5.2 decision order
    order_ok: bool = False
    #: return value matches the workload's Python oracle
    oracle_ok: bool = False
    #: cycles within [BSP lower bound, documented drift tolerance]
    bsp_ok: bool = False
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "machine": self.machine,
            "level": self.level,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "buffer_drains": self.buffer_drains,
            "bsp_lower_bound": self.bsp_lower_bound,
            "bsp_estimate": self.bsp_estimate,
            "verified": self.verified,
            "order_ok": self.order_ok,
            "oracle_ok": self.oracle_ok,
            "bsp_ok": self.bsp_ok,
            "failures": list(self.failures),
        }


@dataclass
class Scorecard:
    """The full matrix plus the run parameters that pin it down."""

    seed: int
    machines: tuple[str, ...]
    programs: tuple[str, ...]
    levels: tuple[str, ...]
    cells: list[ScorecardCell] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[str]:
        out = []
        for cell in self.cells:
            tag = f"{cell.program}/{cell.machine}/{cell.level}"
            out.extend(f"[{tag}] {f}" for f in cell.failures)
        return out

    def cell(self, program: str, machine: str, level: str) -> ScorecardCell:
        for c in self.cells:
            if (c.program == program and c.machine == machine
                    and c.level == level):
                return c
        raise KeyError((program, machine, level))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "machines": list(self.machines),
            "programs": list(self.programs),
            "levels": list(self.levels),
            "ok": self.ok,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        """Byte-stable JSON (sorted keys, fixed indent, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _measure_cell(workload: Workload, machine_name: str,
                  level: ScheduleLevel, args: tuple) -> ScorecardCell:
    cell = ScorecardCell(program=workload.name, machine=machine_name,
                         level=level.value)
    machine = CONFIGS[machine_name]()
    # traced as well as verified, so the order check runs on every sweep
    config = PipelineConfig(level=level, verify=True,
                            trace=CollectingTracer())
    try:
        unit = compile_c(workload.source, machine=machine, level=level,
                         config=config)
    except ScheduleVerificationError as exc:
        # the order check runs after the verifier accepted the sweep
        cell.verified = all(i.kind == "order" for i in exc.report.issues)
        judge = "order check" if cell.verified else "verifier"
        cell.failures.append(f"schedule rejected by {judge}: {exc}")
        return cell
    cell.verified = cell.order_ok = True

    call_args = tuple(list(a) if isinstance(a, list) else a for a in args)
    run = unit[workload.entry].run(*call_args,
                                   call_handlers=workload.call_handlers)
    cell.cycles = run.cycles
    cell.instructions = run.timing.instructions
    cell.buffer_drains = run.timing.buffer_drains

    ref_args = tuple(list(a) if isinstance(a, list) else a for a in args)
    expected = workload.reference(*ref_args)
    if run.return_value == expected:
        cell.oracle_ok = True
    else:
        cell.failures.append(
            f"returned {run.return_value}, oracle says {expected}")

    bsp = check_bsp(run.execution.instr_trace, machine, run.cycles)
    cell.bsp_lower_bound = bsp.bound.lower_bound
    cell.bsp_estimate = bsp.bound.estimate
    if bsp.ok:
        cell.bsp_ok = True
    else:
        cell.failures.extend(bsp.violations)
    return cell


def run_scorecard(machines: tuple[str, ...] = ZOO, *,
                  workloads: tuple[Workload, ...] = SCORECARD_WORKLOADS,
                  seed: int = 1991,
                  progress=None) -> Scorecard:
    """Regenerate the full matrix.

    Inputs are built once per program from ``seed`` and shared across all
    machines and levels, so cycle counts are comparable along both axes.
    ``progress`` (if given) is called with a one-line string per cell.
    """
    unknown = [m for m in machines if m not in CONFIGS]
    if unknown:
        raise KeyError(f"unknown machines {unknown}; "
                       f"available: {', '.join(sorted(CONFIGS))}")
    card = Scorecard(
        seed=seed,
        machines=tuple(machines),
        programs=tuple(w.name for w in workloads),
        levels=tuple(level.value for level in _LEVELS),
    )
    for workload in workloads:
        args = workload.make_args(random.Random(seed))
        for machine_name in machines:
            for level in _LEVELS:
                cell = _measure_cell(workload, machine_name, level, args)
                card.cells.append(cell)
                if progress is not None:
                    status = "ok" if cell.ok else "FAIL"
                    progress(f"  {cell.program}/{cell.machine}/"
                             f"{cell.level}: {cell.cycles} cycles [{status}]")
    return card


def format_scorecard(card: Scorecard) -> str:
    """Render the matrix as one Figure-8-style block per machine."""
    lines = [
        "Scorecard: simulated cycles per program x machine x level",
        f"(seed {card.seed}; RTI% = improvement over level none; "
        f"LB = BSP lower bound)",
    ]
    for machine_name in card.machines:
        checks = [c for c in card.cells if c.machine == machine_name]
        status = "ok" if all(c.ok for c in checks) else "FAIL"
        lines.append("")
        lines.append(f"machine {machine_name} [{status}]")
        labels = {"speculative": "SPEC"}
        heads = "".join(
            f" {labels.get(level, level.upper())[:8]:>8}"
            for level in card.levels)
        rtis = "".join(f" {'RTI-' + level.upper()[:1]:>7}"
                       for level in card.levels[1:])
        lines.append(f"  {'PROGRAM':<14}{heads}{rtis} {'LB':>7}")
        for program in card.programs:
            by_level = {c.level: c for c in checks if c.program == program}
            row = [by_level[level] for level in card.levels]
            base = row[0].cycles
            cols = "".join(f" {cell.cycles:>8}" for cell in row)
            cols += "".join(
                f" {100.0 * (base - cell.cycles) / base if base else 0.0:>6.1f}%"
                for cell in row[1:])
            lines.append(f"  {program:<14}{cols} "
                         f"{row[-1].bsp_lower_bound:>7}")
    if not card.ok:
        lines.append("")
        lines.append("failures:")
        lines.extend(f"  {f}" for f in card.failures)
    return "\n".join(lines)
