"""Generic backward worklist-solver tests."""

from repro.cfg import Digraph
from repro.dataflow import solve_backward


def chain(n):
    g = Digraph()
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_backward_propagates_from_exits():
    g = chain(4)
    result = solve_backward(
        g, range(4),
        lambda node, out_set: out_set | {node},
        boundary=frozenset({"exitval"}),
    )
    # out of the last node is the boundary; earlier nodes accumulate
    assert result[3] == frozenset({"exitval"})
    assert result[0] == frozenset({"exitval", 1, 2, 3})


def test_backward_meet_is_union():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("a", "c")
    result = solve_backward(
        g, ["a", "b", "c"],
        lambda node, out_set: out_set | {node},
        boundary=frozenset(),
    )
    assert result["a"] == frozenset({"b", "c"})


def test_fixed_point_on_cycle():
    g = Digraph()
    g.add_edge("a", "b")
    g.add_edge("b", "a")
    g.add_edge("b", "x")
    # gen "t" at x; kill nothing: t must flow around the cycle
    def transfer(node, out_set):
        return out_set | ({"t"} if node == "x" else set())

    result = solve_backward(g, ["a", "b", "x"], transfer)
    assert "t" in result["a"] and "t" in result["b"]


def test_unreachable_nodes_stay_empty():
    """Backward facts enter at the exits: a cycle from which no exit is
    reachable never sees the boundary."""
    g = chain(3)
    g.add_edge("x", "y")
    g.add_edge("y", "x")
    result = solve_backward(
        g, [0, 1, 2, "x", "y"],
        lambda node, out_set: out_set,
        boundary=frozenset({"s"}),
    )
    assert result[0] == frozenset({"s"})
    assert result["x"] == result["y"] == frozenset()
