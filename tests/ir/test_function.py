"""Tests for Function: layout, successors, registers, uids."""

import pytest

from repro.ir import (BasicBlock, Builder, CR_LT, Function, Opcode, RegClass,
                      cr, gpr)


def linear_function():
    f = Function("f")
    b = Builder(f)
    b.start_block("a")
    b.li(gpr(1), 1)
    b.start_block("b")
    b.li(gpr(2), 2)
    b.start_block("c")
    b.ret(gpr(2))
    return f


class TestLayoutAndEdges:
    def test_fallthrough_chain(self):
        f = linear_function()
        a, b, c = f.blocks
        assert f.successors(a) == [b]
        assert f.successors(b) == [c]
        assert f.successors(c) == []

    def test_conditional_successors_taken_first(self, figure2):
        bl1 = figure2.block("CL.0")
        succs = [s.label for s in figure2.successors(bl1)]
        assert succs == ["CL.4", "BL2"]

    def test_unconditional_branch(self, figure2):
        bl5 = figure2.block("BL5")
        assert [s.label for s in figure2.successors(bl5)] == ["CL.9"]

    def test_predecessors(self, figure2):
        preds = figure2.predecessors_map()
        assert sorted(b.label for b in preds["CL.9"]) == \
            ["BL5", "BL9", "CL.11", "CL.6"]
        assert [b.label for b in preds["CL.0"]] == ["CL.9"]

    def test_falls_off_end(self, figure2):
        assert figure2.falls_off_end(figure2.block("CL.9"))
        assert not figure2.falls_off_end(figure2.block("CL.0"))

    def test_exit_blocks(self, figure2):
        assert [b.label for b in figure2.exit_blocks()] == ["CL.9"]

    def test_ret_is_exit(self):
        f = linear_function()
        assert [b.label for b in f.exit_blocks()] == ["c"]

    def test_add_block_after(self):
        f = linear_function()
        mid = f.add_block("m", after=f.block("a"))
        assert [b.label for b in f.blocks] == ["a", "m", "b", "c"]
        assert f.fallthrough(f.block("a")) is mid

    def test_layout_index_is_by_identity(self):
        f = linear_function()
        assert [f.layout_index(b) for b in f.blocks] == [0, 1, 2]
        twin = BasicBlock("b", list(f.block("b").instrs))
        with pytest.raises(ValueError, match=r"^block b is not in f$"):
            f.layout_index(twin)

    def test_remove_block(self):
        f = linear_function()
        f.remove_block(f.block("b"))
        assert not f.has_block("b")
        assert [b.label for b in f.blocks] == ["a", "c"]

    def test_duplicate_label_rejected(self):
        f = linear_function()
        with pytest.raises(ValueError):
            f.add_block("a")

    def test_fresh_label_never_collides(self):
        f = linear_function()
        seen = {b.label for b in f.blocks}
        for _ in range(10):
            label = f.fresh_label()
            assert label not in seen
            f.add_block(label)
            seen.add(label)


class TestRegistersAndUids:
    def test_new_regs_avoid_parsed_ones(self, figure2):
        reg = figure2.new_gpr()
        assert reg.index > 31  # r31 appears in Figure 2
        crx = figure2.new_cr()
        assert crx.index > 7

    def test_new_regs_monotonic(self):
        f = Function("f")
        r1, r2 = f.new_gpr(), f.new_gpr()
        assert r2.index == r1.index + 1
        assert f.new_reg(RegClass.CR) != f.new_reg(RegClass.CR)

    def test_uids_monotonic(self):
        f = linear_function()
        uids = [ins.uid for ins in f.instructions()]
        assert uids == sorted(uids)
        assert len(set(uids)) == len(uids)

    def test_block_of_map(self, figure2):
        mapping = figure2.block_of_map()
        i18 = figure2.block("CL.9").instrs[0]
        assert mapping[id(i18)].label == "CL.9"
        assert len(mapping) == 20
