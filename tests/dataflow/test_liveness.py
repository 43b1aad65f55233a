"""Liveness (live-on-exit) tests, anchored to the paper's Section 5.3."""

from repro.cfg import ControlFlowGraph
from repro.dataflow import block_use_def, compute_liveness
from repro.ir import cr, gpr, parse_function


class TestFigure2Liveness:
    def test_max_live_out_of_bl1(self, figure2):
        # r30 (max) is live on exit of BL1: the path through BL2 may reach
        # I12's use... actually through CL.4's I12 use without a kill.
        live = compute_liveness(figure2, frozenset({gpr(28), gpr(30)}))
        assert gpr(30) in live.live_out("CL.0")
        assert gpr(28) in live.live_out("CL.0")

    def test_cr6_dead_on_exit_of_bl1(self, figure2):
        # both uses of cr6 (I6, I13) are preceded by defs in their own
        # blocks, so moving a cr6 definition into BL1 is legal -- exactly
        # why I5 may move speculatively in Figure 6
        live = compute_liveness(figure2)
        assert cr(6) not in live.live_out("CL.0")
        assert cr(7) not in live.live_out("CL.0")

    def test_r30_live_out_of_bl2(self, figure2):
        # moving I7 (max=u) into BL2 would clobber max on the path where
        # u <= max: r30 must be live on exit of BL2
        live = compute_liveness(figure2, frozenset({gpr(30)}))
        assert gpr(30) in live.live_out("BL2")

    def test_loaded_values_live_across_branches(self, figure2):
        live = compute_liveness(figure2)
        # u (r12) is used in BL2, CL.11, BL9
        assert gpr(12) in live.live_out("CL.0")
        assert gpr(12) in live.live_in("CL.11")

    def test_live_at_exit_propagates_to_loop(self, figure2):
        live_with = compute_liveness(figure2, frozenset({gpr(27)}))
        live_without = compute_liveness(figure2)
        assert gpr(27) in live_with.live_out("BL5")
        # r27 (n) is used by I19 so it is live anyway
        assert gpr(27) in live_without.live_out("BL5")

    def test_dead_register_nowhere_live(self, figure2):
        live = compute_liveness(figure2)
        assert all(gpr(99) not in live.live_out(b.label)
                   for b in figure2.blocks)


class TestSection53Example:
    """The x=5 / x=3 example of Section 5.3."""

    def make(self):
        # B1: test; B2: x=5; B3: x=3; B4: print(x)
        return parse_function("""
function xexample
B1:
    C cr0=r1,r2
    BF B3,cr0,0x1/lt
B2:
    LI r10=5
    B B4
B3:
    LI r10=3
B4:
    CALL print(r10)
    RET
""")

    def test_x_not_live_out_of_b1(self):
        # both paths define x before its use: each motion *individually*
        # looks legal, which is why dynamic updating is needed
        func = self.make()
        live = compute_liveness(func)
        assert gpr(10) not in live.live_out("B1")

    def test_x_live_out_of_arms(self):
        func = self.make()
        live = compute_liveness(func)
        assert gpr(10) in live.live_out("B2")
        assert gpr(10) in live.live_out("B3")


class TestBlockUseDef:
    def test_upward_exposed_uses_only(self, figure2):
        uses, defs = block_use_def(figure2.block("CL.9"))
        assert gpr(29) in uses       # AI reads r29 before defining it
        assert gpr(29) in defs
        assert cr(4) in defs
        assert cr(4) not in uses     # defined before the BT uses it

    def test_empty_block(self):
        from repro.ir import BasicBlock
        uses, defs = block_use_def(BasicBlock("x"))
        assert uses == set() and defs == set()


def test_live_out_masks_is_mutable_copy(figure2):
    live = compute_liveness(figure2)
    masks = live.live_out_masks()
    masks["CL.0"] |= live.table.mask_of([gpr(77)])
    assert gpr(77) not in live.live_out("CL.0")
    assert live.live_out_masks()["CL.0"] == live.table.mask_of(
        live.live_out("CL.0"))
