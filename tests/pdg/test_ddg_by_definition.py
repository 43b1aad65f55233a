"""The region DDG and its delay-aware reduction, held to their definition.

Section 4.2: an instruction ``b`` depends on an earlier ``a`` of a block
``B`` reachable from ``a``'s block when one defines a register the other
uses or defines, or both touch memory, one writes, and the references are
not proven independent.  A flow dependence must keep ``b`` at least
``E(a) + d(a, b)`` cycles behind ``a``; every other kind only orders the
pair.  Inside a block a definition reaches a use only if no definition
of the register lies between them.

One property checks the builder and the reduction together: every
conflicting pair, in region order, is joined by a path of the reduced
DDG whose weight covers the pair's required separation.  Brute force
over all pairs -- nothing of the builder's per-block summaries, the
region's reachability closure or the reduction's shared tables is
reused (which block reaches which is a path search on the forward
graph).

Two more pin the shape of a region DDG: the reduction runs inside each
block only.  Every conflicting pair of two different blocks has a
direct edge that covers its separation (the interblock edges are the
natural Section 4.2 set), and each block's own edges are exactly its
block DDG's, so D and CP -- computed "locally (within a basic block)",
Section 5.2 -- are the same over either graph.

The pipeline tests here hold the rest of the DDG's use: reduction never
changes a schedule on the corpus (though it may lower D, pinned on one
block), and recomputing every cached analysis at each use changes none.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_c
from repro.dataflow.cache import AnalysisCache
from repro.ir import parse_function
from repro.machine.configs import CONFIGS
from repro.pdg import data_deps
from repro.pdg import pdg as region_pdg_module
from repro.pdg.data_deps import DepKind, build_block_ddg
from repro.pdg.memory import AddressTracker, may_conflict
from repro.sched.candidates import ScheduleLevel
from repro.sched.heuristics import local_priorities
from repro.sched.regions import build_region_pdg, find_regions
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program
from repro.verify.order import d_and_cp, separation

CORPUS_SEED = 2026
CORPUS_SIZE = 8


@pytest.fixture(scope="module")
def corpus():
    return [generate_program(derive_seed(CORPUS_SEED, i))
            for i in range(CORPUS_SIZE)]


def conflicts(blocks, forward, machine):
    """Every dependent pair ``(a, b, required separation)`` in region
    order, straight from the definition; which block reaches which is a
    path search on the region's ``forward`` graph."""
    reached = {block.label: forward.reachable_from(block.label)
               for block in blocks}
    order, addr = [], {}
    for block in blocks:
        tracker = AddressTracker()
        for ins in block.instrs:
            if ins.touches_memory and ins.mem is not None:
                addr[id(ins)] = tracker.address_of(ins.mem)
            tracker.step(ins)
            order.append((block.label, ins))
    out = []
    for i, (label_a, a) in enumerate(order):
        for j in range(i + 1, len(order)):
            label_b, b = order[j]
            same = label_a == label_b
            if not same and label_b not in reached[label_a]:
                continue
            need = -1
            defs_a, uses_b = set(a.reg_defs()), set(b.reg_uses())
            for reg in defs_a & uses_b:
                killed = same and any(reg in order[k][1].reg_defs()
                                      for k in range(i + 1, j))
                if not killed:
                    need = max(need, machine.exec_time(a)
                               + machine.flow_delay(a, b, reg))
            if (set(a.reg_uses()) | defs_a) & set(b.reg_defs()) or (
                    may_conflict(a, addr.get(id(a)) if same else None,
                                 b, addr.get(id(b)) if same else None)):
                need = max(need, 0)
            if need >= 0:
                out.append((a, b, need))
    return out


def longest_paths(ddg, source, machine):
    """Longest path weight from ``source`` to every instruction it
    reaches (weights: the edges' start-to-start separations)."""
    best = {id(source): 0}
    for ins in data_deps.topo_order(ddg):
        here = best.get(id(ins))
        if here is None:
            continue
        for edge in ddg.succs(ins):
            weight = here + separation(edge, machine)
            if weight > best.get(id(edge.dst), -1):
                best[id(edge.dst)] = weight
    return best


def ddg_violations(func, machine):
    """Conflicting pairs no reduced-DDG path covers, over every region."""
    missing = []
    for spec in find_regions(func):
        pdg = build_region_pdg(func, machine, spec)
        paths = {}
        for a, b, need in conflicts(pdg._ddg_blocks(), pdg.forward,
                                    machine):
            if id(a) not in paths:
                paths[id(a)] = longest_paths(pdg.ddg, a, machine)
            if paths[id(a)].get(id(b), -1) < need:
                missing.append((a, b, need))
    return missing


def corpus_functions(corpus, machine):
    for program in corpus:
        result = compile_c(program.source, machine=machine,
                           level=ScheduleLevel.NONE)
        for unit in result:
            yield unit.func


@pytest.mark.parametrize("machine_name", ["rs6k", "vliw8"])
def test_region_ddg_meets_its_definition(corpus, machine_name):
    machine = CONFIGS[machine_name]()
    for func in corpus_functions(corpus, machine):
        assert ddg_violations(func, machine) == []


def interblock_gaps(func, machine):
    """Conflicting pairs of two different blocks that no direct edge
    covers, over every region."""
    missing = []
    for spec in find_regions(func):
        pdg = build_region_pdg(func, machine, spec)
        blocks = pdg._ddg_blocks()
        home = {id(ins): b.label for b in blocks for ins in b.instrs}
        for a, b, need in conflicts(blocks, pdg.forward, machine):
            if home[id(a)] == home[id(b)]:
                continue
            edge = pdg.ddg.edge(a, b)
            if edge is None or separation(edge, machine) < need:
                missing.append((a, b, need))
    return missing


def own_edges(ddg, block):
    """``block``'s intra-block edges as (src uid, dst uid, kind, delay)."""
    inside = {id(ins) for ins in block.instrs}
    return sorted((e.src.uid, e.dst.uid, e.kind.value, e.delay)
                  for e in ddg.iter_edges()
                  if id(e.src) in inside and id(e.dst) in inside)


@pytest.mark.parametrize("machine_name", ["rs6k", "vliw8"])
def test_interblock_pairs_have_a_covering_direct_edge(corpus,
                                                      machine_name):
    machine = CONFIGS[machine_name]()
    for func in corpus_functions(corpus, machine):
        assert interblock_gaps(func, machine) == []


@pytest.mark.parametrize("machine_name", ["rs6k", "vliw8"])
def test_each_block_keeps_its_own_block_ddg(corpus, machine_name):
    machine = CONFIGS[machine_name]()
    checked = 0
    for func in corpus_functions(corpus, machine):
        for spec in find_regions(func):
            pdg = build_region_pdg(func, machine, spec)
            for block in pdg._ddg_blocks():
                alone = build_block_ddg(block, machine)
                assert own_edges(pdg.ddg, block) == own_edges(alone, block)
                assert (d_and_cp([block], pdg.ddg, machine)
                        == d_and_cp([block], alone, machine))
                checked += len(block.instrs) > 1
    assert checked


def _one_region_function(corpus):
    """A corpus function with an interblock memory edge in its DDG."""
    machine = CONFIGS["rs6k"]()
    for func in corpus_functions(corpus, machine):
        for spec in find_regions(func):
            pdg = build_region_pdg(func, machine, spec)
            if any(_crosses(pdg, e) for e in pdg.ddg.iter_edges()
                   if e.kind is DepKind.MEM):
                return func
    raise AssertionError("corpus has no interblock memory edge")


def _crosses(pdg, edge):
    home = {id(ins): b.label for b in pdg._ddg_blocks() for ins in b.instrs}
    return home[id(edge.src)] != home[id(edge.dst)]


def test_rejects_a_needed_edge_removed_by_the_reduction(corpus,
                                                        monkeypatch):
    """After a correct reduction every remaining edge is needed: one more
    removal leaves its pair uncovered."""
    real = data_deps.transitive_reduce

    def one_too_many(ddg, machine):
        removed = real(ddg, machine)
        ddg.remove_edge(next(iter(ddg.iter_edges())))
        return removed + 1

    monkeypatch.setattr(data_deps, "transitive_reduce", one_too_many)
    machine = CONFIGS["rs6k"]()
    assert any(ddg_violations(func, machine)
               for func in corpus_functions(corpus[:3], machine))


def test_rejects_an_interblock_memory_edge_dropped(corpus, monkeypatch):
    func = _one_region_function(corpus)
    real = data_deps.build_region_ddg

    def dropping(blocks, up, machine, *, reduce=True):
        ddg = real(blocks, up, machine, reduce=reduce)
        home = {id(ins): b.label for b in blocks for ins in b.instrs}
        for edge in ddg.edges():
            if (edge.kind is DepKind.MEM
                    and home[id(edge.src)] != home[id(edge.dst)]):
                ddg.remove_edge(edge)
                break
        return ddg

    monkeypatch.setattr(region_pdg_module, "build_region_ddg", dropping)
    assert ddg_violations(func, CONFIGS["rs6k"]())
    assert interblock_gaps(func, CONFIGS["rs6k"]())


# -- the DDG in the pipeline ----------------------------------------------


def _compile_all(source, machine_name, level):
    result = compile_c(source, machine=CONFIGS[machine_name](),
                       level=level)
    return {unit.name: unit.assembly() for unit in result}


def test_reduction_does_not_change_schedules(corpus, monkeypatch):
    """Scheduling a reduced graph == scheduling the full graph on this
    corpus: every removed edge is implied by a path at least as long, so
    readiness and earliest start times are unaffected (D may move, see
    ``test_reduction_may_lower_d_and_nothing_else``)."""
    for program in corpus[:4]:
        reduced = _compile_all(program.source, "rs6k",
                               ScheduleLevel.SPECULATIVE)
        with monkeypatch.context() as m:
            m.setattr(data_deps, "transitive_reduce",
                      lambda ddg, machine: 0)
            unreduced = _compile_all(program.source, "rs6k",
                                     ScheduleLevel.SPECULATIVE)
        assert reduced == unreduced


#: The load-use edge LU -> A (delay 1, separation E(LU) + 1 = 2) is
#: implied by the path LU -> AI -> A (separation 1 + 1 = 2), so reduction
#: drops it; that path carries no delay, so the LU's D falls from 1 to 0.
REDUCTION_MOVES_D = """
function d
a:
    LU r1,r2=a(r2,4)
    AI r3=r2,4
    A  r4=r1,r3
    ST r4=>b(r9,0)
    RET
"""


def test_reduction_may_lower_d_and_nothing_else():
    machine = CONFIGS["rs6k"]()
    block = parse_function(REDUCTION_MOVES_D).blocks[0]
    reduced = local_priorities(block, build_block_ddg(block, machine),
                               machine)
    full = local_priorities(
        block, build_block_ddg(block, machine, reduce=False), machine)
    lu = block.instrs[0]
    assert full[id(lu)] == (1, 4)
    assert reduced[id(lu)] == (0, 4)
    assert {k: v for k, v in reduced.items() if k != id(lu)} == {
        k: v for k, v in full.items() if k != id(lu)}


#: every memoised accessor of AnalysisCache (``reg_table`` is no tier:
#: bit assignments never go stale)
_CACHED_ACCESSORS = ("cfg", "dominators", "loop_nest", "liveness",
                     "dense_cfg", "block_use_def_masks")


def test_pipeline_matches_with_analyses_recomputed_at_every_use(
        corpus, monkeypatch):
    """An ``AnalysisCache`` that drops its tiers before every accessor
    recomputes each analysis at each use; byte-identical assembly means
    the pipeline invalidates the cache wherever a stage mutates."""
    for program in corpus[:3]:
        for machine_name in ("rs6k", "scalar"):
            cached = _compile_all(program.source, machine_name,
                                  ScheduleLevel.SPECULATIVE)
            with monkeypatch.context() as m:
                for name in _CACHED_ACCESSORS:
                    def uncached(self, *args, _accessor=getattr(
                            AnalysisCache, name)):
                        self.invalidate()
                        return _accessor(self, *args)

                    m.setattr(AnalysisCache, name, uncached)
                recomputed = _compile_all(program.source, machine_name,
                                          ScheduleLevel.SPECULATIVE)
            assert cached == recomputed
