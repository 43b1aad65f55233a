"""RegionPDG structure tests: forward graph, reachability, barriers."""

import pytest

from repro.ir import parse_function
from repro.machine import rs6k
from repro.pdg import REGION_EXIT, RegionPDG, abstract_label, make_barrier


@pytest.fixture
def pdg(figure2):
    return RegionPDG(figure2, rs6k(), list(figure2.blocks), "CL.0")


class TestForwardGraph:
    def test_back_edge_removed(self, pdg):
        assert "CL.0" not in pdg.forward.succs("CL.9")
        assert REGION_EXIT in pdg.forward.succs("CL.9")

    def test_acyclic(self, pdg):
        pdg.forward.topological_order("CL.0")

    def test_topo_order_valid(self, pdg):
        pos = {label: i for i, label in enumerate(pdg.topo_labels)}
        assert pos["CL.0"] == 0
        assert pos["CL.9"] == len(pdg.topo_labels) - 1
        assert pos["BL2"] < pos["CL.6"]
        assert pos["CL.4"] < pos["CL.11"]

    def test_schedulable_labels_are_members(self, pdg):
        assert set(pdg.schedulable_labels()) == pdg.member_labels
        assert len(pdg.schedulable_labels()) == 10


class TestReachablePairs:
    def test_linear_chain_pairs(self, pdg):
        assert pdg.reaches("CL.0", "CL.9")
        assert pdg.reaches("BL2", "CL.6")
        assert pdg.reaches("BL2", "BL3")

    def test_parallel_blocks_not_paired(self, pdg):
        assert not pdg.reaches("BL2", "CL.4")
        assert not pdg.reaches("CL.4", "BL2")
        assert pdg.reaches("BL3", "BL5")  # BL3 falls into CL.6

    def test_no_self_pairs_or_backward(self, pdg):
        for a in pdg.topo_labels:
            assert not pdg.reaches(a, a)
            assert not pdg.reaches(a, REGION_EXIT)
        assert not pdg.reaches("CL.9", "CL.0")


class TestBarriers:
    def test_make_barrier_summarises(self, figure2):
        instrs = list(figure2.block("CL.9").instrs)
        barrier = make_barrier(figure2, "CL.9", instrs)
        from repro.ir import cr, gpr
        assert gpr(29) in barrier.reg_defs()
        assert gpr(27) in barrier.reg_uses()
        assert cr(4) in barrier.reg_defs()
        assert barrier.is_call and barrier.uid > 0

    def test_abstract_label_shape(self):
        label = abstract_label("CL.0")
        assert label == "<loop CL.0>"
        # can never collide with a parsed block label (spaces are illegal)
        assert " " in label


class TestHeaderVariants:
    def test_abstract_header_region(self):
        # a function whose entry block sits inside the (only) loop: the
        # body region's entry node is the loop's abstract label
        func = parse_function("""
function allloop
H:
    AI r1=r1,1
L:
    C cr0=r1,r9
    BT H,cr0,0x1/lt
""")
        from repro.sched import find_regions, build_region_pdg
        regions = find_regions(func)
        body = regions[-1]
        assert body.header_node == abstract_label("H")
        pdg = build_region_pdg(func, rs6k(), body)
        assert pdg.schedulable_labels() == []
        assert pdg.topo_labels == [abstract_label("H")]
