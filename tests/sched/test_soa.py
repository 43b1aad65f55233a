"""Property tests for the struct-of-arrays lowering (interner + snapshot).

The SoA scheduler core trusts two lowering steps completely: the dense
interning of instructions to array indices (``DenseDDG.index``) and the
CSR flattening of the dependence adjacency with precomputed edge weights.
These properties pin them against the object graph on randomized real
regions (the differential fuzzer's program generator, compiled to IR),
plus the cache-invalidation contract (``DDG.version`` bumps).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_c
from repro.machine.configs import CONFIGS
from repro.pdg.data_deps import DepKind, build_block_ddg
from repro.sched.candidates import ScheduleLevel
from repro.sched.regions import build_region_pdg, find_regions
from repro.verify.generator import generate_program


def region_ddgs(seed):
    """``(machine, ddg)`` for every region of a generated program."""
    machine = CONFIGS["rs6k"]()
    program = generate_program(seed)
    units = compile_c(program.source, machine=machine,
                      level=ScheduleLevel.NONE)
    out = []
    for unit in units.units.values():
        for spec in find_regions(unit.func):
            pdg = build_region_pdg(unit.func, machine, spec)
            out.append((machine, pdg.ddg))
    return out


def expected_weight(machine, edge):
    return (machine.exec_time(edge.src) + edge.delay
            if edge.kind is DepKind.FLOW else 0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_interning_round_trips_uid_and_index(seed):
    for machine, ddg in region_ddgs(seed):
        dense = ddg.to_dense(machine)
        assert dense.n == len(ddg.instructions) == len(dense.instrs)
        for i, ins in enumerate(dense.instrs):
            # id -> index -> instruction is the identity both ways
            assert dense.index[id(ins)] == i
            assert dense.instrs[dense.index[id(ins)]] is ins
        assert len(dense.index) == dense.n  # bijection: no id collisions
        # uids are unique region-wide, so uid round-trips through the
        # interning too (the priority rows' last field relies on this)
        uids = {ins.uid for ins in dense.instrs}
        assert len(uids) == dense.n


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_csr_adjacency_equals_object_graph(seed):
    for machine, ddg in region_ddgs(seed):
        dense = ddg.to_dense(machine)
        for i, ins in enumerate(dense.instrs):
            succs = sorted(
                (dense.succ_idx[k], dense.succ_w[k])
                for k in range(dense.succ_off[i], dense.succ_off[i + 1]))
            expect = sorted(
                (dense.index[id(e.dst)], expected_weight(machine, e))
                for e in ddg.succs(ins))
            assert succs == expect
            assert dense.indegree[i] == len(ddg.preds(ins))
        assert len(dense.succ_idx) == ddg.edge_count()


def test_version_bump_invalidates_snapshot_and_keeps_indices_stable():
    from repro.ir.parser import parse_function

    func = parse_function("""
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
""")
    machine = CONFIGS["rs6k"]()
    ddg = build_block_ddg(func.block("a"), machine)
    first = ddg.to_dense(machine)
    assert ddg.to_dense(machine) is first       # cached while version holds

    load, ai, cmp_i, bt = func.block("a").instrs
    ddg.add_edge(load, cmp_i, DepKind.ANTI, 0)  # bumps ddg.version
    second = ddg.to_dense(machine)
    assert second is not first
    assert second.version == ddg.version > first.version
    # the instruction list is append-only: indices survive the rebuild
    for ins in func.block("a").instrs:
        assert second.index[id(ins)] == first.index[id(ins)]
    # ... and the new edge is visible in the rebuilt CSR
    i, j = second.index[id(load)], second.index[id(cmp_i)]
    assert j in second.succ_idx[second.succ_off[i]:second.succ_off[i + 1]]

    other = CONFIGS["ss4"]()
    assert ddg.to_dense(other) is not second    # keyed on machine identity
