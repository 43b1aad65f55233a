"""Backward mask-solver tests (``in = gen | (out & ~kill)``)."""

from types import SimpleNamespace

from repro.cfg import Digraph
from repro.dataflow import solve_backward_masks


def solve(graph, nodes, gen, boundary=()):
    """Solve over ``graph`` with facts as sets: ``gen`` maps a node to the
    facts it generates (nothing is killed).  Returns node -> out set."""
    nodes = list(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    succ_off, succ_idx = [0], []
    for node in nodes:
        succ_idx.extend(index[s] for s in graph.succs(node))
        succ_off.append(len(succ_idx))
    facts = sorted({f for fs in gen.values() for f in fs} | set(boundary),
                   key=repr)
    bit = {fact: 1 << i for i, fact in enumerate(facts)}

    def mask(fs):
        return sum(bit[f] for f in fs)

    out = solve_backward_masks(
        SimpleNamespace(nodes=nodes, succ_off=succ_off, succ_idx=succ_idx),
        list(range(len(nodes))), [mask(gen.get(n, ())) for n in nodes],
        [0] * len(nodes), mask(boundary))
    return {n: frozenset(f for f in facts if out[index[n]] & bit[f])
            for n in nodes}


def chain(n):
    g = Digraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_backward_propagates_from_exits():
    result = solve(chain(4), range(4), {n: {n} for n in range(4)},
                   boundary={"exitval"})
    # out of the last node is the boundary; earlier nodes accumulate
    assert result[3] == frozenset({"exitval"})
    assert result[0] == frozenset({"exitval", 1, 2, 3})


def test_backward_meet_is_union():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    result = solve(g, ["a", "b", "c"], {n: {n} for n in "abc"})
    assert result["a"] == frozenset({"b", "c"})


def test_fixed_point_on_cycle():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "x")
    # gen "t" at x; kill nothing: t must flow around the cycle
    result = solve(g, ["a", "b", "x"], {"x": {"t"}})
    assert "t" in result["a"] and "t" in result["b"]


def test_unreachable_nodes_stay_empty():
    """Backward facts enter at the exits: a cycle from which no exit is
    reachable never sees the boundary."""
    g = chain(3)
    g.add_edge("x", "y")
    g.add_edge("y", "x")
    result = solve(g, [0, 1, 2, "x", "y"], {}, boundary={"s"})
    assert result[0] == frozenset({"s"})
    assert result["x"] == result["y"] == frozenset()
