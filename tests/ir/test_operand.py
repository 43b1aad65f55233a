"""Tests for registers, condition bits, and memory references."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import (
    CR_EQ,
    CR_GT,
    CR_LT,
    CTR,
    MemRef,
    Reg,
    RegClass,
    cr,
    fpr,
    gpr,
    parse_reg,
)


class TestReg:
    def test_names(self):
        assert gpr(31).name == "r31"
        assert fpr(0).name == "f0"
        assert cr(7).name == "cr7"
        assert CTR.name == "ctr"

    def test_equality_and_hash(self):
        assert gpr(3) == gpr(3)
        assert gpr(3) != gpr(4)
        assert gpr(3) != fpr(3)
        assert len({gpr(3), gpr(3), fpr(3)}) == 2

    def test_hashes_and_compares_as_a_tuple_in_c(self):
        assert Reg.__hash__ is tuple.__hash__
        assert Reg.__eq__ is tuple.__eq__
        assert not hasattr(gpr(7), "_hash")
        assert not hasattr(gpr(7), "__dict__")
        assert gpr(7) == Reg(RegClass.GPR, 7)
        assert hash(gpr(7)) == hash(Reg(RegClass.GPR, 7))

    def test_fields_survive_construction(self):
        for rclass in RegClass:
            reg = Reg(rclass, 5)
            assert reg.rclass is rclass
            assert reg.index == 5
            assert isinstance(reg.index, int)
        assert str(cr(7)) == "cr7"
        assert repr(fpr(2)) == "Reg(f2)"
        assert repr(CTR) == "Reg(ctr)"

    def test_pickle_and_copy_round_trip(self):
        import copy
        import pickle

        regs = [gpr(0), gpr(31), fpr(3), cr(7), CTR, gpr(123456)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(regs, protocol))
            assert back == regs
            for old, new in zip(regs, back):
                assert type(new) is Reg
                assert new.rclass is old.rclass
                assert new.name == old.name
                assert hash(new) == hash(old)
        assert copy.deepcopy(regs) == regs
        assert copy.copy(cr(2)) == cr(2)

    def test_hash_does_not_depend_on_the_hash_seed(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        script = ("from repro.ir import Reg, RegClass, gpr; "
                  "print(hash(gpr(7)), hash(Reg(RegClass.CR, 2)))")
        outputs = []
        for seed in ("0", "4"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=60, check=True)
            outputs.append(proc.stdout)
        assert outputs[0].strip()
        assert outputs[0] == outputs[1]

    def test_usable_as_dict_key(self):
        d = {gpr(1): "a", cr(1): "b"}
        assert d[gpr(1)] == "a"
        assert d[cr(1)] == "b"

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            Reg(RegClass.GPR, -1)

    def test_unbounded_indices(self):
        # symbolic registers: any non-negative index is legal
        assert gpr(123456).name == "r123456"

    @given(st.integers(min_value=0, max_value=10_000))
    def test_parse_round_trip(self, index):
        for maker in (gpr, fpr, cr):
            reg = maker(index)
            assert parse_reg(reg.name) == reg

    def test_parse_ctr(self):
        assert parse_reg("ctr") == CTR

    def test_parse_rejects_garbage(self):
        for bad in ("x1", "r", "cr", "r1x", "", "R3", "f-1"):
            with pytest.raises(ValueError):
                parse_reg(bad)


class TestConditionBits:
    def test_paper_encoding(self):
        # the paper writes 0x1/lt and 0x2/gt in Figure 2
        assert CR_LT == 0x1
        assert CR_GT == 0x2
        assert CR_EQ == 0x4

    def test_bits_disjoint(self):
        assert CR_LT & CR_GT == 0
        assert CR_LT & CR_EQ == 0
        assert CR_GT & CR_EQ == 0


class TestMemRef:
    def test_render(self):
        mem = MemRef(gpr(31), 4, symbol="a")
        assert str(mem) == "a(r31,4)"
        assert str(MemRef(gpr(1), -8)) == "(r1,-8)"

    def test_byte_range(self):
        assert MemRef(gpr(1), 8).byte_range() == (8, 12)
        assert MemRef(gpr(1), 8, width=8).byte_range() == (8, 16)

    def test_base_must_be_gpr(self):
        with pytest.raises(ValueError):
            MemRef(cr(0), 0)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            MemRef(gpr(1), 0, width=0)
