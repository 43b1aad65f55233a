"""Strength-reduction tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir import Opcode, gpr, parse_function, verify_function
from repro.lang import compile_c_functions
from repro.sim import execute
from repro.xform import strength_reduce


def lower(src):
    (cf,) = compile_c_functions(src).values()
    return cf


def run(cf, *args, memory=None):
    regs = {}
    memory = dict(memory or {})
    base = 0x1000
    for param, value in zip(cf.params, args):
        reg = cf.param_regs[param.name]
        if param.is_array:
            for i, word in enumerate(value):
                memory[base + 4 * i] = word
            regs[reg] = base
            base += 0x1000
        else:
            regs[reg] = value
    return execute(cf.func, regs=regs, memory=memory)


SUM_SRC = """
int f(int a[], int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + a[i]; i = i + 1; }
    return s;
}
"""


class TestBasicReduction:
    def test_address_arithmetic_removed(self):
        cf = lower(SUM_SRC)
        ops_before = [i.opcode for i in cf.func.instructions()]
        report = strength_reduce(cf.func)
        verify_function(cf.func)
        assert report.rewritten_accesses == 1
        assert report.deleted_instructions == 2  # the SL and the A
        # no SL/A remains inside the loop body blocks
        loop_ops = [i.opcode for b in cf.func.blocks
                    if b.label.startswith("LH")
                    for i in b.instrs]
        assert Opcode.SL not in loop_ops

    def test_pointer_step_matches_element_size(self):
        cf = lower(SUM_SRC)
        report = strength_reduce(cf.func)
        (header, pointer, base, iv) = report.pointers[0]
        bumps = [i for i in cf.func.instructions()
                 if i.opcode is Opcode.AI and i.defs == (pointer,)
                 and "step" in i.comment]
        assert len(bumps) == 1 and bumps[0].imm == 4

    @pytest.mark.parametrize("n", [0, 1, 2, 7])
    def test_semantics(self, n):
        cf = lower(SUM_SRC)
        strength_reduce(cf.func)
        data = [(i + 1) * 3 for i in range(n)]
        assert run(cf, data, n).return_value == sum(data)


class TestDerivedOffsets:
    def test_minmax_pair_access(self):
        # a[i] and a[i+1] must share one pointer with displacements 0 and 4
        src = """
int f(int a[], int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + a[i] - a[i + 1]; i = i + 2; }
    return s;
}
"""
        cf = lower(src)
        report = strength_reduce(cf.func)
        verify_function(cf.func)
        assert len(report.pointers) == 1
        assert report.rewritten_accesses == 2
        loads = [i for i in cf.func.instructions() if i.opcode is Opcode.L]
        loop_loads = [l for l in loads if l.mem.symbol == "a"]
        assert sorted(l.mem.disp for l in loop_loads) == [0, 4]
        data = [9, 2, 7, 5, 1, 8]
        res = run(cf, data, 6)
        assert res.return_value == (9 - 2) + (7 - 5) + (1 - 8)

    def test_step_scales_with_stride(self):
        src = """
int f(int a[], int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + a[i]; i = i + 2; }
    return s;
}
"""
        cf = lower(src)
        report = strength_reduce(cf.func)
        (_h, pointer, _b, _iv) = report.pointers[0]
        bump = next(i for i in cf.func.instructions()
                    if i.opcode is Opcode.AI and i.defs == (pointer,)
                    and "step" in i.comment)
        assert bump.imm == 8  # stride 2 elements * 4 bytes


class TestTwoArrays:
    def test_separate_pointers(self):
        src = """
int f(int a[], int b[], int n) {
    int s = 0;
    int i = 0;
    while (i < n) { s = s + a[i] * b[i]; i = i + 1; }
    return s;
}
"""
        cf = lower(src)
        report = strength_reduce(cf.func)
        assert len(report.pointers) == 2
        a = [1, 2, 3]
        b = [4, 5, 6]
        assert run(cf, a, b, 3).return_value == 1 * 4 + 2 * 5 + 3 * 6

    def test_stores_rewritten_too(self):
        src = """
int f(int a[], int b[], int n) {
    int i = 0;
    while (i < n) { b[i] = a[i] + 1; i = i + 1; }
    return b[0];
}
"""
        cf = lower(src)
        report = strength_reduce(cf.func)
        assert report.rewritten_accesses == 2
        res = run(cf, [10, 20], [0, 0], 2)
        assert res.memory[0x2000] == 11 and res.memory[0x2004] == 21


class TestSafetyConditions:
    def test_address_escaping_loop_blocks_reduction(self):
        # addr used by a call: the chain must not be transformed
        func = parse_function("""
function esc
pre:
    LI r1=0
loop:
    SL r2=r1,2
    A  r3=r9,r2
    L  r4=x(r3,0)
    CALL use(r3)
    AI r1=r1,1
    C  cr0=r1,r8
    BT loop,cr0,0x1/lt
""")
        from repro.xform.strength import strength_reduce as sr
        report = sr(func)
        assert report.rewritten_accesses == 0

    def test_step_between_address_and_use_blocks_reduction(self):
        func = parse_function("""
function mid
pre:
    LI r1=0
loop:
    SL r2=r1,2
    A  r3=r9,r2
    AI r1=r1,1
    L  r4=x(r3,0)
    C  cr0=r1,r8
    BT loop,cr0,0x1/lt
""")
        report = strength_reduce(func)
        assert report.rewritten_accesses == 0

    def test_multi_def_iv_ignored(self):
        func = parse_function("""
function twodefs
pre:
    LI r1=0
loop:
    SL r2=r1,2
    A  r3=r9,r2
    L  r4=x(r3,0)
    AI r1=r1,1
    AI r1=r1,1
    C  cr0=r1,r8
    BT loop,cr0,0x1/lt
""")
        report = strength_reduce(func)
        assert report.rewritten_accesses == 0

    def test_variant_base_ignored(self):
        func = parse_function("""
function varbase
pre:
    LI r1=0
loop:
    AI r9=r9,4
    SL r2=r1,2
    A  r3=r9,r2
    L  r4=x(r3,0)
    AI r1=r1,1
    C  cr0=r1,r8
    BT loop,cr0,0x1/lt
""")
        report = strength_reduce(func)
        assert report.rewritten_accesses == 0

    def test_nested_loops_only_innermost(self):
        src = """
int f(int a[], int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) { s = s + a[j]; }
        s = s + a[i];
    }
    return s;
}
"""
        cf = lower(src)
        report = strength_reduce(cf.func)
        verify_function(cf.func)
        # the inner a[j] walk is reduced; the outer a[i] access is not
        # (outer loop is not innermost), and semantics hold regardless
        assert len(report.pointers) >= 1
        data = [2, 4, 6]
        expected = sum(sum(data) + data[i] for i in range(3))
        assert run(cf, data, 3).return_value == expected


#: compiles one bench kernel and prints its assembly (run in a fresh
#: interpreter so that the string hash seed can differ between runs)
_ASSEMBLY_SCRIPT = """
from repro.bench.programs import WORKLOADS
from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.sched.candidates import ScheduleLevel
(gcc,) = [w for w in WORKLOADS if w.name == "gcc_like"]
unit = compile_c(gcc.source, machine=CONFIGS["xdp"](),
                 level=ScheduleLevel.USEFUL)
print("".join(u.assembly() for u in unit))
"""


def test_assembly_does_not_depend_on_the_hash_seed():
    """Loop bodies are label sets; walking one in hash order once gave
    ``A r29=r1,r30`` under PYTHONHASHSEED=0 and ``A r29=r0,r30`` under 4
    (gcc_like on xdp at the useful level)."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = []
    for seed in ("0", "4"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _ASSEMBLY_SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0]
    assert outputs[0] == outputs[1]
