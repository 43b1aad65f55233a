"""A region's control facts, held to their definitions and computed once.

A region PDG computes two facts about its forward graph that the rest of
the scheduler only reads:

* its reachability closure (:meth:`RegionPDG.reaches`, and the ``down`` /
  ``up`` masks behind it): ``b`` is reachable from ``a`` iff a path
  search from ``a`` finds ``b``, and ``a != b``;
* its forward control dependences (Section 4.1, after [FOW87]): ``B`` is
  control dependent on the edge ``A -> C`` iff ``B`` postdominates ``C``
  and does not postdominate ``A``, where postdominance is decided by
  vertex removal -- ``b`` postdominates ``a`` iff no path from ``a``
  reaches the exit once ``b`` is removed.

Both are checked on every region of generated programs and on random
loop-free regions.  The last test pins that each fact is computed once:
a region PDG builds one postdominator tree (the CSPDG's control
dependences read it too) and runs no graph search, the block passes run
none either, and a speculative compile keeps live-on-exit sets as masks.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.cfg.digraph import Digraph
from repro.cfg.dominators import DominatorTree
from repro.compiler import compile_c
from repro.dataflow.dense import RegTable
from repro.machine import rs6k
from repro.pdg import REGION_EXIT, ControlDep, RegionPDG, control_dependences
from repro.sched import driver
from repro.sched.candidates import ScheduleLevel
from repro.sched.regions import build_region_pdg, find_regions
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program

from ..conftest import dag_function
from ..dataflow.test_dense_equivalence import reachable_without


def generated_regions(count: int = 12):
    """The region PDGs of ``count`` generated programs, before scheduling."""
    machine = rs6k()
    for i in range(count):
        source = generate_program(derive_seed(4243, i)).source
        for unit in compile_c(source, machine=machine,
                              level=ScheduleLevel.NONE):
            for spec in find_regions(unit.func):
                yield build_region_pdg(unit.func, machine, spec)


def random_regions(count: int = 150):
    """Region PDGs of random loop-free functions of 1 to 14 blocks."""
    rng = random.Random(0x5EED)
    for _ in range(count):
        func = dag_function(rng, 1 + rng.randrange(14))
        yield RegionPDG(func, rs6k(), list(func.blocks), "B0")


def regions():
    yield from generated_regions()
    yield from random_regions()


# -- (a) reachability --------------------------------------------------------


def assert_reaches_by_definition(pdg: RegionPDG) -> None:
    nodes = pdg.topo_labels
    for a in nodes:
        reached = pdg.forward.reachable_from(a)
        for b in nodes:
            assert pdg.reaches(a, b) == (a != b and b in reached), (a, b)


def test_reaches_is_path_search_on_generated_regions():
    checked = 0
    for pdg in generated_regions():
        assert_reaches_by_definition(pdg)
        checked += len(pdg.topo_labels) > 2
    assert checked


def test_reaches_is_path_search_on_random_dags():
    unreached = 0
    for pdg in random_regions():
        assert_reaches_by_definition(pdg)
        unreached += sum(not pdg.reaches(a, b)
                         for a in pdg.topo_labels for b in pdg.topo_labels
                         if pdg.position[a] < pdg.position[b])
    assert unreached  # the DAGs are not all chains


# -- (b) control dependences ----------------------------------------------------


def postdominates(forward: Digraph, b, a) -> bool:
    """Every path from ``a`` to the region exit meets ``b``."""
    return a == b or REGION_EXIT not in reachable_without(forward, a, b)


def control_deps_by_definition(forward: Digraph) -> dict:
    return {
        node: frozenset(ControlDep(a, c) for a, c in forward.edges()
                        if postdominates(forward, node, c)
                        and not postdominates(forward, node, a))
        for node in forward.nodes
    }


def test_control_dependences_meet_fow87():
    dependent = 0
    for pdg in regions():
        computed = control_dependences(pdg.forward, pdg.pdom)
        assert computed == control_deps_by_definition(pdg.forward)
        dependent += sum(map(len, computed.values()))
    assert dependent


def test_fow87_rejects_the_dominator_tree_in_place_of_postdominators():
    assert any(control_dependences(pdg.forward, pdg.dom)
               != control_deps_by_definition(pdg.forward)
               for pdg in regions())


# -- (c) each fact once -----------------------------------------------------------

MINMAX_C = (Path(__file__).parents[2] / "examples" / "minmax.c").read_text()


def test_each_region_fact_is_computed_once(monkeypatch):
    inside: list[str] = []
    trees: list[list] = []  # per region PDG built, the roots of its trees

    def within(name):
        real = getattr(driver, name)

        def wrapped(*args, **kwargs):
            inside.append(name)
            if name == "build_region_pdg":
                trees.append([])
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(driver, name, wrapped)

    within("build_region_pdg")
    within("schedule_region")
    real_tree = DominatorTree.__init__

    def tree(self, graph, root):
        if inside == ["build_region_pdg"]:
            trees[-1].append(root)
        real_tree(self, graph, root)

    real_search = Digraph.reachable_from

    def search(self, root):
        assert not inside, f"Digraph.reachable_from inside {inside[-1]}"
        return real_search(self, root)

    def materialize(self, mask):
        raise AssertionError("a live-on-exit mask became a set")

    monkeypatch.setattr(DominatorTree, "__init__", tree)
    monkeypatch.setattr(Digraph, "reachable_from", search)
    monkeypatch.setattr(RegTable, "regs_of", materialize)
    sources = [MINMAX_C] + [generate_program(derive_seed(4243, i)).source
                            for i in range(6)]
    for source in sources:
        compile_c(source, machine=rs6k(), level=ScheduleLevel.SPECULATIVE)
    assert len(trees) > len(sources)
    for roots in trees:
        assert len(roots) == 2 and roots.count(REGION_EXIT) == 1, roots


def test_path_search_rejects_a_one_hop_closure(monkeypatch):
    """A closure that forgets the transitive part fails the definition."""
    real = RegionPDG._closure

    def one_hop(self):
        down, up = real(self)
        succs, _ = self.forward.adjacency()
        near = [0] * len(down)
        for i, label in enumerate(self.topo_labels):
            for succ in succs[label]:
                if succ in self.position:
                    near[i] |= 1 << self.position[succ]
        return near, up

    monkeypatch.setattr(RegionPDG, "_closure", one_hop)
    with pytest.raises(AssertionError):
        for pdg in regions():
            assert_reaches_by_definition(pdg)
