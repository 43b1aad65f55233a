"""Figure 7: compile-time overhead of global scheduling.

Paper (on a 40ns RS/6K model 530, real SPEC sources):

    PROGRAM    BASE(s)  CTO
    LI             206  13%
    EQNTOTT         78  17%
    ESPRESSO       465  12%
    GCC           2457  13%

We measure the same quantity -- wall-clock compile time with the full
Section 6 pipeline vs the BASE compiler -- on the SPEC-like kernels.
Absolute seconds are incomparable (different decade, different sources);
the reproduction target is a consistent positive overhead.  EXPERIMENTS.md
splits it by layer with the repository benchmark's traced run.
"""

from repro import ScheduleLevel, compile_c
from repro.bench import WORKLOADS, figure7_table, format_figure7

PAPER_CTO = {"LI": 13, "EQNTOTT": 17, "ESPRESSO": 12, "GCC": 13}


def test_fig7_table(report):
    rows = figure7_table(repeats=5)
    lines = [f"{'PROGRAM':<10} {'paper CTO':>9}  {'measured CTO':>12}"]
    for row in rows:
        lines.append(f"{row.paper_name:<10} {PAPER_CTO[row.paper_name]:>8}%"
                     f"  {row.cto:>11.0f}%")
        assert row.cto > 0, "global scheduling must cost compile time"
    report("Figure 7: compile-time overhead (BASE -> +global scheduling)",
           "\n".join(lines))


def test_fig7_base_compile_speed(benchmark):
    workload = WORKLOADS[0]
    benchmark(compile_c, workload.source, level=ScheduleLevel.NONE)


def test_fig7_scheduled_compile_speed(benchmark):
    workload = WORKLOADS[0]
    benchmark(compile_c, workload.source, level=ScheduleLevel.SPECULATIVE)
