"""Property-based semantic preservation.

The strongest invariant of the whole system: for ANY program, the BASE,
USEFUL and SPECULATIVE pipelines (with unrolling, rotation, renaming and
both schedulers enabled) must compute exactly what the raw, unscheduled
lowering computes -- same return value, same final memory.

Random mini-C programs are generated with bounded loops (so execution
always terminates) and masked array indices (so accesses stay in range).
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ScheduleLevel, compile_c, PipelineConfig, rs6k
from repro.xform import PipelineConfig as PC

ARRAY_LEN = 16

_counter = itertools.count()


@st.composite
def expressions(draw, names: list[str], depth: int = 2) -> str:
    choices = ["num", "var"]
    if depth > 0:
        choices += ["binop", "array", "cmp", "unary"]
    kind = draw(st.sampled_from(choices))
    if kind == "num":
        return str(draw(st.integers(-9, 9)))
    if kind == "var":
        return draw(st.sampled_from(names))
    if kind == "array":
        idx = draw(expressions(names, depth - 1))
        return f"a[({idx}) & {ARRAY_LEN - 1}]"
    if kind == "unary":
        op = draw(st.sampled_from(["-", "~"]))
        return f"{op}({draw(expressions(names, depth - 1))})"
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        lhs = draw(expressions(names, depth - 1))
        rhs = draw(expressions(names, depth - 1))
        return f"(({lhs}) {op} ({rhs}))"
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    lhs = draw(expressions(names, depth - 1))
    rhs = draw(expressions(names, depth - 1))
    return f"(({lhs}) {op} ({rhs}))"


@st.composite
def statements(draw, names: list[str], targets: list[str],
               depth: int = 2) -> list[str]:
    """``names`` may be read; only ``targets`` may be assigned (loop
    variables are readable but never assignable, so every loop provably
    terminates)."""
    out: list[str] = []
    n = draw(st.integers(1, 4))
    for _ in range(n):
        kinds = ["assign", "astore"]
        if depth > 0:
            kinds += ["if", "loop"]
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            target = draw(st.sampled_from(targets))
            out.append(f"{target} = {draw(expressions(names))};")
        elif kind == "astore":
            idx = draw(expressions(names, 1))
            out.append(
                f"a[({idx}) & {ARRAY_LEN - 1}] = {draw(expressions(names))};")
        elif kind == "if":
            cond = draw(expressions(names))
            then = draw(statements(names, targets, depth - 1))
            has_else = draw(st.booleans())
            out.append(f"if ({cond}) {{ " + " ".join(then) + " }"
                       + (" else { "
                          + " ".join(draw(statements(names, targets,
                                                     depth - 1)))
                          + " }" if has_else else ""))
        else:
            trip = draw(st.integers(1, 4))
            loop_var = f"k{next(_counter)}"
            body = draw(statements(names + [loop_var], targets, depth - 1))
            out.append(
                f"for (int {loop_var} = 0; {loop_var} < {trip}; "
                f"{loop_var}++) {{ " + " ".join(body) + " }")
    return out


@st.composite
def programs(draw) -> str:
    names = ["x", "y", "v0", "v1", "v2"]
    decls = [f"int v{i} = {draw(st.integers(-9, 9))};" for i in range(3)]
    body = draw(statements(names, targets=list(names)))
    ret = draw(expressions(names))
    return (
        "int f(int a[], int x, int y) {\n"
        + "\n".join(decls) + "\n"
        + "\n".join(body) + "\n"
        + f"return {ret};\n}}\n"
    )


def run_all_levels(source: str, array: list[int], x: int, y: int):
    outcomes = []
    configs = [
        ("raw", PC(level=ScheduleLevel.NONE, post_bb_pass=False,
                   unroll_max_blocks=0, rotate_max_blocks=0,
                   strength_reduce=False)),
        ("base", PC(level=ScheduleLevel.NONE)),
        ("useful", PC(level=ScheduleLevel.USEFUL)),
        ("speculative", PC(level=ScheduleLevel.SPECULATIVE)),
        ("spec2", PC(level=ScheduleLevel.SPECULATIVE, max_speculation=2)),
        ("duplication", PC(level=ScheduleLevel.SPECULATIVE,
                           allow_duplication=True)),
        ("ctr-loops", PC(level=ScheduleLevel.SPECULATIVE,
                         use_counter_register=True)),
    ]
    for name, config in configs:
        result = compile_c(source, level=config.level, config=config)
        run = result["f"].run(list(array), x, y)
        outcomes.append((name, run.return_value, run.arrays[0]))
    return outcomes


@given(
    source=programs(),
    array=st.lists(st.integers(-99, 99), min_size=ARRAY_LEN,
                   max_size=ARRAY_LEN),
    x=st.integers(-99, 99),
    y=st.integers(-99, 99),
)
@settings(max_examples=40, deadline=None)
def test_all_pipelines_agree(source, array, x, y):
    outcomes = run_all_levels(source, array, x, y)
    reference = outcomes[0]
    for name, value, memory in outcomes[1:]:
        assert value == reference[1], (name, source)
        assert memory == reference[2], (name, source)


#: Hand-picked regression programs exercising tricky interactions.
TRICKY = [
    # loop-carried dependence through an array cell
    """
int f(int a[], int x, int y) {
    for (int i = 0; i < 8; i++) { a[i + 1] = a[i] + 1; }
    return a[8];
}
""",
    # speculative twin definitions on both arms (the Figure 6 pattern)
    """
int f(int a[], int x, int y) {
    int m = a[0];
    if (x > y) { if (x > m) m = x; } else { if (y > m) m = y; }
    return m;
}
""",
    # tight 2-block loop: exercises unroll + rotate + pipelining
    """
int f(int a[], int x, int y) {
    int s = 0;
    for (int i = 0; i < 15; i++) { s = s + a[i]; }
    return s;
}
""",
    # store/load disambiguation inside one block
    """
int f(int a[], int x, int y) {
    a[0] = x;
    a[1] = y;
    return a[0] - a[1];
}
""",
    # nested loops: outer region with an abstract inner node
    """
int f(int a[], int x, int y) {
    int s = 0;
    for (int i = 0; i < 4; i++) {
        int t = a[i];
        for (int j = 0; j < 3; j++) { s = s + t; }
        s = s ^ i;
    }
    return s;
}
""",
    # overflowing arithmetic must wrap identically everywhere
    """
int f(int a[], int x, int y) {
    int big = 2147483647;
    return big + x * y;
}
""",
]


def test_tricky_corpus():
    array = list(range(ARRAY_LEN))
    for source in TRICKY:
        outcomes = run_all_levels(source, array, 7, -3)
        reference = outcomes[0]
        for name, value, memory in outcomes[1:]:
            assert value == reference[1], (name, source)
            assert memory == reference[2], (name, source)
