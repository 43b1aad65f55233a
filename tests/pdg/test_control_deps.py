"""Forward control dependence tests against the paper's Figure 4."""

from repro.cfg import (
    ENTRY,
    EXIT,
    ControlFlowGraph,
    Digraph,
    dominator_tree,
    postdominator_tree,
)
from repro.pdg import ControlDep, control_dependences, forward_graph


def cd_sets(forward, exit_node):
    return control_dependences(forward,
                               postdominator_tree(forward, exit_node))


def figure2_cd_sets(figure2):
    cfg = ControlFlowGraph(figure2)
    dom = dominator_tree(cfg.graph, ENTRY)
    return cd_sets(forward_graph(cfg.graph, dom), EXIT)


class TestFigure4:
    def test_bl1_and_bl10_depend_on_nothing(self, figure2):
        cd = figure2_cd_sets(figure2)
        assert cd["CL.0"] == frozenset()
        assert cd["CL.9"] == frozenset()

    def test_bl2_bl4_identically_dependent(self, figure2):
        # "BL2 and BL4 will be executed if the condition at the end of
        # BL1 will be evaluated to TRUE"
        cd = figure2_cd_sets(figure2)
        assert cd["BL2"] == cd["CL.6"]
        assert cd["BL2"] == frozenset({ControlDep("CL.0", "BL2")})

    def test_bl6_bl8_identically_dependent(self, figure2):
        cd = figure2_cd_sets(figure2)
        assert cd["CL.4"] == cd["CL.11"]
        assert cd["CL.4"] == frozenset({ControlDep("CL.0", "CL.4")})

    def test_arm_blocks_depend_on_their_tests(self, figure2):
        cd = figure2_cd_sets(figure2)
        assert cd["BL3"] == frozenset({ControlDep("BL2", "BL3")})
        assert cd["BL5"] == frozenset({ControlDep("CL.6", "BL5")})
        assert cd["BL7"] == frozenset({ControlDep("CL.4", "BL7")})
        assert cd["BL9"] == frozenset({ControlDep("CL.11", "BL9")})

    def test_all_sets_have_at_most_one_condition(self, figure2):
        # in this loop no block is controlled by two branches at once
        cd = figure2_cd_sets(figure2)
        for label in (b.label for b in figure2.blocks):
            assert len(cd[label]) <= 1


class TestForwardGraph:
    def test_back_edge_removed(self, figure2):
        cfg = ControlFlowGraph(figure2)
        dom = dominator_tree(cfg.graph, ENTRY)
        fwd = forward_graph(cfg.graph, dom)
        assert "CL.0" not in fwd.succs("CL.9")
        assert fwd.succs("CL.0") == cfg.graph.succs("CL.0")

    def test_forward_graph_is_acyclic(self, figure2):
        cfg = ControlFlowGraph(figure2)
        dom = dominator_tree(cfg.graph, ENTRY)
        fwd = forward_graph(cfg.graph, dom)
        fwd.topological_order(ENTRY)  # raises on a cycle


class TestDiamond:
    def test_plain_diamond(self):
        g = Digraph()
        for e in [("E", "a"), ("a", "b"), ("a", "c"), ("b", "d"),
                  ("c", "d"), ("d", "X")]:
            g.add_edge(*e)
        cd = cd_sets(g, "X")
        assert cd["b"] == frozenset({ControlDep("a", "b")})
        assert cd["c"] == frozenset({ControlDep("a", "c")})
        assert cd["d"] == frozenset()

    def test_nested_condition(self):
        # a -> (b -> (c|d) -> e | f) -> g
        g = Digraph()
        for e in [("E", "a"), ("a", "b"), ("a", "f"), ("b", "c"),
                  ("b", "d"), ("c", "e"), ("d", "e"), ("e", "g"),
                  ("f", "g"), ("g", "X")]:
            g.add_edge(*e)
        cd = cd_sets(g, "X")
        assert cd["c"] == frozenset({ControlDep("b", "c")})
        assert cd["e"] == cd["b"] == frozenset({ControlDep("a", "b")})
        assert cd["g"] == frozenset()
