"""Differential execution of one program across levels and machines.

The oracle is the observation a real program makes: the entry function's
return value, the final contents of every array argument, and the sequence
of helper calls (callee + arguments; call order is fixed by the paper's
model -- calls never move -- so it must be identical everywhere).  Each
program is compiled at every :class:`ScheduleLevel` on every machine
variant with the pipeline's self-checking mode on, so a run also fails if
any emitted schedule is rejected by the static verifier.

The machine- and level-independent work runs once per program: the
source is parsed and lowered once, each lowered function is
strength-reduced once (with its IR check), and every combination
schedules its own uid-preserving :meth:`~repro.ir.Function.clone` of the
result with ``PipelineConfig.strength_reduce`` off.  A source the front
end rejects, or a function the reduction fails on, fails all
combinations with the same ``compilation crashed`` line.

Timing is *not* part of the oracle (different machines time differently by
design), but per-combination cycle counts are collected for the
monotonicity property tests -- and every cycle count is cross-checked
against the BSP DAG cost model (:mod:`repro.sim.bsp`): a simulated count
that beats the BSP lower bound, or drifts beyond its documented
tolerance, fails the combo just like a wrong answer would.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# the runner calls the two halves of ``compile_c``; the name itself stays
# importable from here, where perfbench's traced runs wrap whole compiles
from ..compiler import compile_c, lower_source, schedule_lowered  # noqa: F401
from ..machine.configs import CONFIGS
from ..sched.candidates import ScheduleLevel
from ..sim.bsp import check_bsp
from ..xform.pipeline import PipelineConfig, reduce_strength
from .generator import GenProgram
from .verifier import ScheduleVerificationError

#: default machine variants: the paper's RS/6000, a 1-wide in-order
#: pipeline, and a 2-way superscalar -- diverse enough to shake out
#: machine-dependent scheduling differences without tripling the runtime
DEFAULT_MACHINES = ("rs6k", "scalar", "ss2")

_LEVELS = (ScheduleLevel.NONE, ScheduleLevel.USEFUL,
           ScheduleLevel.SPECULATIVE)


@dataclass
class ComboResult:
    """Observable outcome of one (machine, level) compilation + run."""

    machine: str
    level: ScheduleLevel
    return_value: int | None = None
    arrays: list[list[int]] = field(default_factory=list)
    calls: list[tuple[str, tuple[int, ...]]] = field(default_factory=list)
    cycles: int = 0
    #: BSP DAG-model lower bound on the cycles of the executed trace
    bsp_lower_bound: int = 0
    error: str | None = None

    @property
    def observation(self):
        return (self.return_value, self.arrays, self.calls)


@dataclass
class DiffResult:
    """Outcome of running one program through the whole matrix."""

    program: GenProgram
    combos: list[ComboResult] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def cycles(self, machine: str, level: ScheduleLevel) -> int:
        for combo in self.combos:
            if combo.machine == machine and combo.level is level:
                return combo.cycles
        raise KeyError((machine, level))

    def format_failures(self) -> str:
        return "\n".join(self.failures)


def run_differential(
    program: GenProgram,
    *,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    verify: bool = True,
) -> DiffResult:
    """Compile + run ``program`` at every level on every machine and
    compare every observation against the (first machine, NONE) baseline.

    Each combination's compile equals ``compile_c`` at that machine and
    level with ``verify`` as given: the front end and strength reduction
    run once here, and the pipeline runs per combination on copies.
    """
    result = DiffResult(program=program)
    try:
        lowered, front_error = lower_source(program.source), None
        for compiled in lowered.values():
            reduce_strength(compiled.func, compiled.live_at_exit)
    except Exception as exc:
        lowered, front_error = {}, exc
    for machine_name in machines:
        machine_factory = CONFIGS[machine_name]
        for level in _LEVELS:
            combo = ComboResult(machine=machine_name, level=level)
            result.combos.append(combo)
            tag = f"{machine_name}/{level.value}"
            try:
                if front_error is not None:
                    raise front_error
                unit = schedule_lowered(
                    {name: replace(compiled, func=compiled.func.clone())
                     for name, compiled in lowered.items()},
                    machine_factory(),
                    PipelineConfig(level=level, strength_reduce=False,
                                   verify=verify),
                )
            except ScheduleVerificationError as exc:
                combo.error = f"verifier: {exc}"
                result.failures.append(f"[{tag}] schedule rejected by "
                                       f"verifier:\n{exc}")
                continue
            except Exception as exc:
                combo.error = f"compile: {exc!r}"
                result.failures.append(f"[{tag}] compilation crashed: "
                                       f"{exc!r}")
                continue
            try:
                run = unit.run(program.entry, *program.entry_args)
            except Exception as exc:
                combo.error = f"run: {exc!r}"
                result.failures.append(f"[{tag}] execution crashed: "
                                       f"{exc!r}")
                continue
            combo.return_value = run.return_value
            combo.arrays = run.arrays
            combo.calls = list(run.execution.calls)
            combo.cycles = run.cycles
            bsp = check_bsp(run.execution.instr_trace, unit.machine,
                            run.cycles)
            combo.bsp_lower_bound = bsp.bound.lower_bound
            if not bsp.ok:
                result.failures.append(f"[{tag}] {bsp.format()}")

    baseline = next((c for c in result.combos if c.error is None), None)
    if baseline is None:
        return result
    base_tag = f"{baseline.machine}/{baseline.level.value}"
    for combo in result.combos:
        if combo.error is not None or combo is baseline:
            continue
        if combo.return_value != baseline.return_value:
            result.failures.append(
                f"[{combo.machine}/{combo.level.value}] return value "
                f"{combo.return_value} != {baseline.return_value} "
                f"({base_tag})")
        if combo.arrays != baseline.arrays:
            result.failures.append(
                f"[{combo.machine}/{combo.level.value}] array contents "
                f"{combo.arrays} != {baseline.arrays} ({base_tag})")
        if combo.calls != baseline.calls:
            result.failures.append(
                f"[{combo.machine}/{combo.level.value}] call sequence "
                f"{combo.calls} != {baseline.calls} ({base_tag})")
    return result
