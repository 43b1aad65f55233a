"""docs/TUTORIAL.md must not rot: exercise each of its code paths."""

from repro import (
    DelayModel,
    MachineModel,
    PipelineConfig,
    ScheduleLevel,
    compile_c,
)
from repro.ir import RegClass, UnitType
from repro.machine import rs6k
from repro.regalloc import allocate_registers
from repro.sched import BranchProfile, build_region_pdg, find_regions
from repro.sim import SimulationResult, TraceSimulator, format_timeline

SOURCE = """
int minmax(int a[], int n, int out[]) {
    int min = a[0]; int max = min; int i = 1;
    while (i < n) {
        int u = a[i]; int v = a[i + 1];
        if (u > v) { if (u > max) max = u; if (v < min) min = v; }
        else       { if (v > max) max = v; if (u < min) min = u; }
        i = i + 2;
    }
    out[0] = min; out[1] = max; return 0;
}
"""


def test_section_2_base_compile():
    base = compile_c(SOURCE, level=ScheduleLevel.NONE)
    assert "function minmax" in base["minmax"].assembly()


def test_section_3_analyses():
    base = compile_c(SOURCE, level=ScheduleLevel.NONE)
    func = base["minmax"].func
    loop = next(r for r in find_regions(func) if r.kind == "loop")
    pdg = build_region_pdg(func, rs6k(), loop)
    assert "equiv" in pdg.cspdg.format()
    assert pdg.cspdg.equivalence_classes


def test_section_4_motions():
    spec = compile_c(SOURCE, level=ScheduleLevel.SPECULATIVE)
    assert spec["minmax"].report.motions


def test_section_5_run_and_timeline():
    spec = compile_c(SOURCE, level=ScheduleLevel.SPECULATIVE)
    run = spec["minmax"].run([5, -3, 8, 1, 9, 0], 5, [0, 0])
    assert run.arrays[1] == [-3, 9]

    instrs = run.execution.instr_trace[:24]
    sim = TraceSimulator(rs6k())
    cycles = [sim.issue(i) for i in instrs]
    result = SimulationResult(max(cycles) + 1, len(instrs), cycles)
    assert "X" in format_timeline(instrs, result, rs6k())


def test_section_6_custom_machine():
    my_machine = MachineModel(
        "mine",
        units={UnitType.FXU: 2, UnitType.FPU: 1, UnitType.BRU: 1},
        delays=DelayModel(load_use=2, fixed_compare_branch=4),
    )
    result = compile_c(SOURCE, machine=my_machine)
    run = result["minmax"].run([5, -3, 8, 1, 9, 0], 5, [0, 0])
    assert run.arrays[1] == [-3, 9]


def test_section_7_extension_knobs():
    base = compile_c(SOURCE, level=ScheduleLevel.NONE)
    profile = BranchProfile()
    profile.record(
        base["minmax"].run([5, -3, 8, 1, 9, 0], 5, [0, 0]).execution)
    config = PipelineConfig(
        level=ScheduleLevel.SPECULATIVE,
        max_speculation=2,
        allow_duplication=True,
        use_counter_register=True,
        profile=profile,
    )
    result = compile_c(SOURCE, level=ScheduleLevel.SPECULATIVE,
                       config=config)
    run = result["minmax"].run([5, -3, 8, 1, 9, 0], 5, [0, 0])
    assert run.arrays[1] == [-3, 9]


def test_section_8_register_allocation():
    base = compile_c(SOURCE, level=ScheduleLevel.SPECULATIVE)
    func = base["minmax"].func
    report = allocate_registers(func, live_at_exit=frozenset())
    assert report.machine_registers_used(RegClass.GPR) <= 32


def test_section_14_order_check():
    from repro.obs import CollectingTracer

    config = PipelineConfig(level=ScheduleLevel.SPECULATIVE, verify=True,
                            trace=CollectingTracer())
    checked = compile_c(SOURCE, config=config)
    heads = [report.format().splitlines()[0]
             for report in checked["minmax"].report.verify_reports]
    assert sum(h.startswith("order check of minmax") for h in heads) == 2
    assert all(": 0 issue(s)," in h for h in heads)
