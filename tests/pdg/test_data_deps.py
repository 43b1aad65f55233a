"""Data-dependence tests against the paper's Section 4.2 walkthrough."""

import pytest

from repro.machine import rs6k
from repro.pdg import (
    DepKind,
    RegionPDG,
    build_block_ddg,
    build_region_ddg,
    topo_order,
    transitive_reduce,
)
from repro.ir import parse_function


@pytest.fixture
def pdg(figure2):
    return RegionPDG(figure2, rs6k(), list(figure2.blocks), "CL.0")


def by_uid(func):
    return {ins.uid: ins for ins in func.instructions()}


class TestSection42Walkthrough:
    """The paper computes BL1's dependences explicitly."""

    def test_anti_dependence_i1_i2(self, figure2, pdg):
        # "an anti-dependence from (I1) to (I2), since (I1) uses r31 and
        # (I2) defines a new value for r31"
        ins = by_uid(figure2)
        edge = pdg.ddg.edge(ins[1], ins[2])
        assert edge is not None and edge.kind is DepKind.ANTI

    def test_delayed_load_edge_i2_i3(self, figure2, pdg):
        # "the edge ((I2),(I3)) carries a one cycle delay"
        ins = by_uid(figure2)
        edge = pdg.ddg.edge(ins[2], ins[3])
        assert edge.kind is DepKind.FLOW and edge.delay == 1

    def test_compare_branch_edge_i3_i4(self, figure2, pdg):
        # "this edge has a three cycle delay"
        ins = by_uid(figure2)
        edge = pdg.ddg.edge(ins[3], ins[4])
        assert edge.kind is DepKind.FLOW and edge.delay == 3

    def test_transitive_edges_elided(self, figure2, pdg):
        # "((I1),(I3)) is not computed since it is transitive", likewise
        # ((I1),(I4)) and ((I2),(I4))
        ins = by_uid(figure2)
        assert pdg.ddg.edge(ins[1], ins[3]) is None
        assert pdg.ddg.edge(ins[1], ins[4]) is None
        assert pdg.ddg.edge(ins[2], ins[4]) is None

    def test_ddg_is_acyclic(self, pdg):
        # Section 4.2: "the resultant PDG is acyclic"
        topo_order(pdg.ddg)  # raises on a cycle


class TestInterblock:
    @pytest.fixture
    def full_pdg(self, figure2):
        """Unreduced dependence graph: every natural edge present."""
        return RegionPDG(figure2, rs6k(), list(figure2.blocks), "CL.0",
                         reduce_ddg=False)

    def test_flow_across_blocks(self, figure2, full_pdg):
        # I1 defines r12 used by I5 (BL2), I15 (BL8), I17 (BL9)
        ins = by_uid(figure2)
        for user in (5, 15, 17):
            edge = full_pdg.ddg.edge(ins[1], ins[user])
            assert edge is not None and edge.kind is DepKind.FLOW

    def test_anti_across_blocks(self, figure2, pdg):
        # I4 uses cr7; I8 (BL4) redefines it -> anti edge I4 -> I8.
        # This edge survives reduction: it is what stops I8 from moving
        # above BL1's terminator.
        ins = by_uid(figure2)
        edge = pdg.ddg.edge(ins[4], ins[8])
        assert edge is not None and edge.kind is DepKind.ANTI

    def test_output_across_blocks(self, figure2, full_pdg):
        # I3 and I8 both define cr7 on one path
        ins = by_uid(figure2)
        edge = full_pdg.ddg.edge(ins[3], ins[8])
        assert edge is not None  # anti or output, but it must exist

    def test_reduction_respects_constraint_reachability(self, figure2, pdg,
                                                        full_pdg):
        # whatever reduction removes must still be *implied*: every pair
        # connected in the full graph stays connected in the reduced one
        def reachable_pairs(ddg):
            pairs = set()
            for src in ddg.instructions:
                stack = [src]
                seen = set()
                while stack:
                    node = stack.pop()
                    for e in ddg.succs(node):
                        if id(e.dst) not in seen:
                            seen.add(id(e.dst))
                            pairs.add((src.uid, e.dst.uid))
                            stack.append(e.dst)
            return pairs

        assert reachable_pairs(full_pdg.ddg) == reachable_pairs(pdg.ddg)

    def test_no_edges_between_parallel_blocks(self, figure2, pdg):
        # BL2 (I5) and BL6 (I12) lie on exclusive paths: no dependence,
        # even though both define cr6
        ins = by_uid(figure2)
        assert pdg.ddg.edge(ins[5], ins[12]) is None
        assert pdg.ddg.edge(ins[12], ins[5]) is None


class TestMemoryEdges:
    def test_two_loads_commute(self):
        func = parse_function("""
function loads
a:
    L r1=x(r10,0)
    L r2=x(r10,4)
""")
        ddg = build_block_ddg(func.block("a"), rs6k())
        i1, i2 = func.block("a").instrs
        assert ddg.edge(i1, i2) is None

    def test_store_load_conflict(self):
        func = parse_function("""
function sl
a:
    ST r1=>x(r10,0)
    L  r2=y(r11,0)
""")
        ddg = build_block_ddg(func.block("a"), rs6k())
        st, ld = func.block("a").instrs
        edge = ddg.edge(st, ld)
        assert edge is not None and edge.kind is DepKind.MEM

    def test_disambiguated_store_load(self):
        # same base register, disjoint displacements: proven independent
        func = parse_function("""
function dis
a:
    ST r1=>x(r10,0)
    L  r2=x(r10,4)
""")
        ddg = build_block_ddg(func.block("a"), rs6k())
        st, ld = func.block("a").instrs
        assert ddg.edge(st, ld) is None

    def test_call_conflicts_with_everything(self):
        func = parse_function("""
function callmem
a:
    L r1=x(r10,0)
    CALL f(r1)
    ST r1=>x(r10,64)
""")
        ddg = build_block_ddg(func.block("a"), rs6k())
        ld, call, st = func.block("a").instrs
        assert ddg.edge(ld, call) is not None
        assert ddg.edge(call, st) is not None

    def test_interblock_memory_conservative(self):
        func = parse_function("""
function im
a:
    ST r1=>x(r10,0)
b:
    L r2=x(r10,4)
""")
        pairs = {("a", "b")}
        ddg = build_region_ddg(list(func.blocks), pairs, rs6k())
        st = func.block("a").instrs[0]
        ld = func.block("b").instrs[0]
        # across blocks the base value is path-dependent: keep the edge
        assert ddg.edge(st, ld) is not None


class TestTransitiveReduction:
    def test_build_path_never_sorts(self, figure2, monkeypatch):
        """The builders add instructions in topological block order, so
        the reduction takes that order instead of sorting the graph."""
        import repro.pdg.data_deps as data_deps
        from repro.bench.programs import MINMAX_C
        from repro.compiler import compile_c
        from repro.xform.pipeline import PipelineConfig

        def no_sort(ddg):
            raise AssertionError("the build path sorted a DDG")

        monkeypatch.setattr(data_deps, "topo_order", no_sort)
        pdg = RegionPDG(figure2, rs6k(), list(figure2.blocks), "CL.0")
        assert pdg.ddg.edge_count() > 0
        for block in figure2.blocks:
            build_block_ddg(block, rs6k())
        config = PipelineConfig(verify=True)
        unit = compile_c(MINMAX_C, config=config)["minmax"]
        assert unit.report.motions

    def test_every_topological_order_removes_the_same_edges(
            self, figure2, monkeypatch):
        import repro.pdg.data_deps as data_deps

        def remaining(ddg):
            return sorted((e.src.uid, e.dst.uid, e.kind.value, e.delay)
                          for e in ddg.iter_edges())

        machine = rs6k()
        built = [RegionPDG(figure2, machine, list(figure2.blocks), "CL.0",
                           reduce_ddg=False).ddg for _ in range(2)]
        construction, sorted_first = built
        assert topo_order(sorted_first) != sorted_first.instructions
        sorts = []

        def spy(ddg, _real=data_deps.topo_order):
            sorts.append(ddg)
            return _real(ddg)

        monkeypatch.setattr(data_deps, "topo_order", spy)
        sorted_first.forward_version = None  # as if mutated since
        removed = [transitive_reduce(ddg, machine) for ddg in built]
        assert sorts == [sorted_first]
        assert removed[0] == removed[1] > 0
        assert remaining(construction) == remaining(sorted_first)

    def test_mutated_graph_is_sorted_first(self, monkeypatch):
        import repro.pdg.data_deps as data_deps

        func = parse_function("""
function heavy
a:
    C  cr0=r1,r2
    LR r3=r1
    BT a,cr0,0x1/lt
""")
        ddg = build_block_ddg(func.block("a"), rs6k(), reduce=False)
        cmp_i, lr_i, _ = func.block("a").instrs
        ddg.add_edge(cmp_i, lr_i, DepKind.OUTPUT, 0)
        sorts = []

        def spy(graph, _real=data_deps.topo_order):
            sorts.append(graph)
            return _real(graph)

        monkeypatch.setattr(data_deps, "topo_order", spy)
        transitive_reduce(ddg, rs6k())
        assert sorts == [ddg]

    def test_keeps_heavier_direct_edge(self):
        # a: compare feeding both a use and (transitively) a branch --
        # the direct compare->branch edge carries delay 3 and must be kept
        # even though a zero-delay path exists
        func = parse_function("""
function heavy
a:
    C  cr0=r1,r2
    LR r3=r1
    BT a,cr0,0x1/lt
""")
        ddg = build_block_ddg(func.block("a"), rs6k(), reduce=False)
        cmp_i, lr_i, bt_i = func.block("a").instrs
        # fabricate the scenario: add zero-delay chain cmp -> lr -> bt
        ddg.add_edge(cmp_i, lr_i, DepKind.OUTPUT, 0)
        ddg.add_edge(lr_i, bt_i, DepKind.ANTI, 0)
        transitive_reduce(ddg, rs6k())
        direct = ddg.edge(cmp_i, bt_i)
        assert direct is not None and direct.delay == 3

    def test_removes_zero_delay_transitive(self, figure2, pdg):
        ins = by_uid(figure2)
        # I1 -> I5 (flow r12) survives, but I1 -> I3 (covered via I2) died
        assert pdg.ddg.edge(ins[1], ins[3]) is None
        assert pdg.ddg.edge(ins[1], ins[5]) is not None

    def test_reduction_preserves_longest_paths(self, figure2):
        machine = rs6k()
        full = RegionPDG(figure2, machine, list(figure2.blocks), "CL.0",
                         reduce_ddg=False).ddg
        reduced = RegionPDG(figure2, machine, list(figure2.blocks),
                            "CL.0").ddg

        def longest_paths(ddg):
            order = topo_order(ddg)
            dist = {}
            for src in order:
                d = {id(src): 0}
                for node in order:
                    if id(node) not in d:
                        continue
                    for e in ddg.succs(node):
                        w = (machine.exec_time(e.src) + e.delay
                             if e.kind is DepKind.FLOW else 0)
                        cand = d[id(node)] + w
                        if cand > d.get(id(e.dst), -1):
                            d[id(e.dst)] = cand
                for dst_key, value in d.items():
                    dist[(id(src), dst_key)] = value
            return dist

        assert longest_paths(full) == longest_paths(reduced)
