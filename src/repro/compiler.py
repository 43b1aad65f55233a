"""Top-level compiler API: mini-C source -> scheduled IR -> simulated runs.

This is the surface a downstream user touches first::

    from repro import compile_c, ScheduleLevel, rs6k

    unit = compile_c(MINMAX_SOURCE, level=ScheduleLevel.SPECULATIVE)
    minmax = unit["minmax"]
    print(minmax.assembly())                    # Figure 5/6-style listing
    run = minmax.run([3, 9, 1, 7], 4)           # execute + time on RS/6K
    print(run.return_value, run.cycles)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir.function import Function
from .ir.operand import Reg
from .ir.printer import format_function
from .lang.lower import CompiledFunction, lower_program
from .lang.parser import parse_c
from .machine.model import MachineModel
from .machine.rs6k import rs6k
from .sched.candidates import ScheduleLevel
from .sim.executor import CallHandler, ExecutionResult, Executor
from .sim.machine_sim import SimConfig, SimulationResult, simulate_execution
from .xform.pipeline import PipelineConfig, PipelineReport, optimize

#: where successive array arguments are placed in simulated memory
_ARRAY_BASE = 0x10000
_ARRAY_STRIDE = 0x10000


@dataclass
class RunResult:
    """One simulated execution of a compiled function."""

    execution: ExecutionResult
    timing: SimulationResult
    #: final contents of each array argument (same order as passed)
    arrays: list[list[int]] = field(default_factory=list)

    @property
    def return_value(self) -> int | None:
        return self.execution.return_value

    @property
    def cycles(self) -> int:
        return self.timing.cycles

    @property
    def instructions(self) -> int:
        return self.timing.instructions

    def timeline(self, machine: MachineModel, *, max_cycles: int = 120) -> str:
        """A per-cycle issue diagram of the executed trace (see
        :func:`repro.sim.format_timeline`)."""
        from .sim.timeline import format_timeline

        return format_timeline(self.execution.instr_trace, self.timing,
                               machine, max_cycles=max_cycles)


@dataclass
class CompiledUnit:
    """One function after the full pipeline, bound to its machine."""

    compiled: CompiledFunction
    machine: MachineModel
    report: PipelineReport

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def func(self) -> Function:
        return self.compiled.func

    def assembly(self) -> str:
        """The Figure-2-style listing of the (scheduled) function."""
        return format_function(self.func)

    def run(
        self,
        *args,
        call_handlers: dict[str, CallHandler] | None = None,
        max_steps: int = 1_000_000,
        sim_config: SimConfig | None = None,
    ) -> RunResult:
        """Execute with positional arguments and time the trace.

        Scalar parameters take ints; array parameters take lists of ints
        (placed in simulated memory; final contents are returned).
        """
        params = self.compiled.params
        if len(args) != len(params):
            raise TypeError(
                f"{self.name}() takes {len(params)} arguments, got {len(args)}"
            )
        regs: dict[Reg, int] = {}
        memory: dict[int, int] = {}
        array_bases: list[tuple[int, int]] = []  # (base, length)
        next_base = _ARRAY_BASE
        for param, value in zip(params, args):
            reg = self.compiled.param_regs[param.name]
            if param.is_array:
                if not isinstance(value, (list, tuple)):
                    raise TypeError(
                        f"argument for array parameter {param.name!r} must "
                        f"be a list, got {type(value).__name__}"
                    )
                base = next_base
                next_base += _ARRAY_STRIDE
                for i, word in enumerate(value):
                    memory[base + 4 * i] = word
                regs[reg] = base
                array_bases.append((base, len(value)))
            else:
                if not isinstance(value, int):
                    raise TypeError(
                        f"argument for scalar parameter {param.name!r} must "
                        f"be an int, got {type(value).__name__}"
                    )
                regs[reg] = value

        execution, timing = simulate_execution(
            self.func, self.machine, regs=regs, memory=memory,
            call_handlers=call_handlers, max_steps=max_steps,
            config=sim_config,
        )
        arrays = [
            [execution.memory.get(base + 4 * i, 0) for i in range(length)]
            for base, length in array_bases
        ]
        return RunResult(execution=execution, timing=timing, arrays=arrays)


@dataclass
class CompileResult:
    """All functions of one translation unit."""

    units: dict[str, CompiledUnit]
    level: ScheduleLevel
    machine: MachineModel
    #: memoised result of :meth:`linked_handlers` (the table is immutable
    #: once built -- recursion works because each handler closes over the
    #: shared dict, not over a copy)
    _handlers: dict[str, CallHandler] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __getitem__(self, name: str) -> CompiledUnit:
        try:
            return self.units[name]
        except KeyError:
            raise KeyError(
                f"no function {name!r}; unit defines: {sorted(self.units)}"
            ) from None

    def __iter__(self):
        return iter(self.units.values())

    @property
    def total_elapsed_seconds(self) -> float:
        return sum(u.report.elapsed_seconds for u in self.units.values())

    def linked_handlers(self) -> dict[str, CallHandler]:
        """Call handlers that bind calls to this unit's own functions.

        Each scalar-only function (no array parameters) becomes callable
        from any other function in the unit -- including recursively and
        mutually, because every callee is executed with this same handler
        table.  Callees run functionally in their own fresh memory; as in
        the paper's model, calls stay opaque to the *timing* simulation
        (they occupy one issue slot and act as scheduling barriers).

        The table is built once per unit and cached; :meth:`run` builds a
        fresh (uncached) table only when the caller supplies overrides,
        because those must stay visible to nested calls without leaking
        into the cache.
        """
        if self._handlers is None:
            self._handlers = self._build_handlers()
        return self._handlers

    def _build_handlers(self) -> dict[str, CallHandler]:
        handlers: dict[str, CallHandler] = {}

        def make(unit: CompiledUnit) -> CallHandler:
            compiled = unit.compiled

            def handler(args: list[int]) -> list[int]:
                if len(args) != len(compiled.params):
                    raise TypeError(
                        f"{compiled.name}() called with {len(args)} "
                        f"arguments, takes {len(compiled.params)}"
                    )
                regs = {
                    compiled.param_regs[p.name]: v
                    for p, v in zip(compiled.params, args)
                }
                result = Executor(unit.func, regs=regs,
                                  call_handlers=handlers).run()
                if result.return_value is None:
                    return []
                return [result.return_value]

            return handler

        for unit in self:
            if any(p.is_array for p in unit.compiled.params):
                continue  # arrays cannot cross our call boundary
            handlers[unit.name] = make(unit)
        return handlers

    def run(self, name: str, *args, call_handlers=None, **kwargs) -> RunResult:
        """Run ``name`` with calls to sibling functions resolved.

        Explicit ``call_handlers`` win over linked siblings -- for nested
        calls too, which is why overrides force a fresh handler table (the
        closures must capture the dict that contains them).
        """
        if call_handlers:
            handlers = self._build_handlers()
            handlers.update(call_handlers)
        else:
            handlers = self.linked_handlers()
        return self[name].run(*args, call_handlers=handlers, **kwargs)


def compile_c(
    source: str,
    *,
    machine: MachineModel | None = None,
    level: ScheduleLevel = ScheduleLevel.SPECULATIVE,
    config: PipelineConfig | None = None,
) -> CompileResult:
    """Compile mini-C source through the full Section 6 pipeline.

    ``level`` selects the paper's three compiler configurations: ``NONE``
    is the BASE compiler (basic-block scheduling only), ``USEFUL`` enables
    global motion between equivalent blocks, ``SPECULATIVE`` adds 1-branch
    speculation.
    """
    machine = machine or rs6k()
    if config is None:
        config = PipelineConfig(level=level)
    elif config.level is not level:
        raise ValueError("config.level disagrees with the level argument")
    return schedule_lowered(lower_source(source), machine, config)


def lower_source(source: str) -> dict[str, CompiledFunction]:
    """The front half of :func:`compile_c`: parse and lower every function
    of ``source``, in program order."""
    return lower_program(parse_c(source))


def schedule_lowered(lowered: dict[str, CompiledFunction],
                     machine: MachineModel,
                     config: PipelineConfig) -> CompileResult:
    """The back half of :func:`compile_c`: run the pipeline over every
    lowered function, rewriting each ``func`` in place.  A caller that
    schedules one lowering several times passes uid-preserving
    :meth:`Function.clone` copies."""
    units: dict[str, CompiledUnit] = {}
    for name, compiled in lowered.items():
        report = optimize(compiled.func, machine, config,
                          live_at_exit=compiled.live_at_exit)
        units[name] = CompiledUnit(compiled=compiled, machine=machine,
                                   report=report)
    return CompileResult(units=units, level=config.level, machine=machine)
