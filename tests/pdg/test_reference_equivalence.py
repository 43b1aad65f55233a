"""Property tests: the optimized DDG construction is observably identical
to the seed reference implementations kept in :mod:`repro.pdg.reference`.

Three properties over a fixed-seed generated corpus:

* the per-block-summary region builder produces exactly the seed's edge
  set (endpoints, kinds, delays, registers);
* the shared-table transitive reduction removes exactly the seed's edge
  set;
* reduction leaves readiness, earliest starts and the CP heuristic
  alone (a removed edge's separation is implied by a path), and the whole
  optimized pipeline emits byte-identical assembly to the reference
  pipeline at every level.  Reduction *can* lower the D heuristic, which
  sums edge delays only: a path may imply the separation through
  execution times while carrying less delay.  One block pins that below;
  on the corpus here the schedules come out the same.

It also holds the pipeline's analysis caching to the same standard:
recomputing every analysis at each use must not change a schedule.
"""

from __future__ import annotations

import pytest

from repro.compiler import compile_c
from repro.dataflow.cache import AnalysisCache
from repro.ir import parse_function
from repro.machine.configs import CONFIGS
from repro.pdg import data_deps
from repro.pdg import pdg as region_pdg_module
from repro.pdg.data_deps import (
    build_block_ddg,
    build_region_ddg,
    transitive_reduce,
)
from repro.pdg.reference import (
    build_region_ddg_reference,
    reference_pipeline,
    transitive_reduce_reference,
)
from repro.sched.candidates import ScheduleLevel
from repro.sched.heuristics import local_priorities
from repro.sched.regions import build_region_pdg, find_regions
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program

CORPUS_SEED = 2026
CORPUS_SIZE = 8


def _edge_key(edge):
    return (edge.src.uid, edge.dst.uid, edge.kind.name, edge.delay,
            None if edge.reg is None else repr(edge.reg))


def _edge_keys(ddg):
    return sorted(_edge_key(e) for e in ddg.iter_edges())


@pytest.fixture(scope="module")
def corpus():
    return [generate_program(derive_seed(CORPUS_SEED, i))
            for i in range(CORPUS_SIZE)]


@pytest.fixture(scope="module")
def region_inputs(corpus):
    """(blocks, reachable_pairs) of every region of every corpus program."""
    machine = CONFIGS["rs6k"]()
    inputs = []
    for program in corpus:
        result = compile_c(program.source, machine=machine,
                           level=ScheduleLevel.NONE)
        for unit in result:
            for spec in find_regions(unit.func):
                pdg = build_region_pdg(unit.func, machine, spec,
                                       reduce_ddg=False)
                inputs.append((pdg._ddg_blocks(), pdg.reachable_pairs))
    assert inputs, "corpus produced no regions"
    return inputs


def test_region_builder_matches_reference_edge_set(region_inputs):
    machine = CONFIGS["rs6k"]()
    for blocks, pairs in region_inputs:
        new = build_region_ddg(blocks, pairs, machine, reduce=False)
        ref = build_region_ddg_reference(blocks, pairs, machine,
                                         reduce=False)
        assert _edge_keys(new) == _edge_keys(ref)


def test_transitive_reduce_removes_same_edges(region_inputs):
    machine = CONFIGS["rs6k"]()
    total_removed = 0
    for blocks, pairs in region_inputs:
        new = build_region_ddg(blocks, pairs, machine, reduce=False)
        ref = build_region_ddg_reference(blocks, pairs, machine,
                                         reduce=False)
        before = _edge_keys(new)
        assert before == _edge_keys(ref)
        removed_new = transitive_reduce(new, machine)
        removed_ref = transitive_reduce_reference(ref, machine)
        assert removed_new == removed_ref
        assert _edge_keys(new) == _edge_keys(ref)
        assert len(_edge_keys(new)) == len(before) - removed_new
        total_removed += removed_new
    assert total_removed > 0, "corpus never exercised the reduction"


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


def test_optimized_pipeline_matches_reference_assembly(corpus):
    for program in corpus:
        for level in ScheduleLevel:
            new = _compile_all(program.source, "rs6k", level)
            with reference_pipeline():
                ref = _compile_all(program.source, "rs6k", level)
            assert new == ref, (
                f"seed {program.seed} diverged at level {level.value}")


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


def test_patching_restores_cleanly():
    saved = (data_deps.build_region_ddg, data_deps.transitive_reduce,
             region_pdg_module.build_region_ddg)
    with reference_pipeline():
        assert data_deps.build_region_ddg is build_region_ddg_reference
    assert (data_deps.build_region_ddg, data_deps.transitive_reduce,
            region_pdg_module.build_region_ddg) == saved
