"""The dense analysis core must be indistinguishable from the seed.

Contract for the bitset/CSR rewrite: dominators, reducibility, the loop
nest and liveness re-hosted on int indices and bitmasks
(:mod:`repro.cfg.dominators`, :mod:`repro.cfg.loops`,
:mod:`repro.dataflow`) agree *exactly* with the preserved seed
implementations (:mod:`repro.cfg.reference`,
:mod:`repro.dataflow.reference`) -- on random digraphs (irreducible
graphs and unreachable nodes included), on lowered mini-C functions, on
hand-written irreducible/unreachable IR, and byte-for-byte on emitted
assembly across machines x scheduling levels with the whole core
switched off via :func:`repro.dataflow.reference.reference_analyses`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.digraph import Digraph
from repro.cfg.dominators import dominator_tree
from repro.cfg.graph import ENTRY, ControlFlowGraph
from repro.cfg.loops import LoopNest, is_reducible
from repro.cfg.reference import (
    DominatorTreeReference,
    LoopNestReference,
    is_reducible_reference,
)
from repro.compiler import compile_c
from repro.dataflow.liveness import compute_liveness
from repro.dataflow.reference import (
    compute_liveness_reference,
    reference_analyses,
)
from repro.ir.parser import parse_function
from repro.lang.lower import compile_c_functions
from repro.machine.configs import CONFIGS
from repro.regalloc.interference import build_interference
from repro.sched.candidates import ScheduleLevel
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program

# -- random digraphs: dominators / reducibility / loop nest ----------------


@st.composite
def random_digraph(draw):
    """A rooted digraph: random edges over a small node set, so the
    strategy routinely produces irreducible loops, self loops and
    forward-unreachable nodes."""
    n = draw(st.integers(1, 10))
    graph = Digraph()
    for v in range(n):
        graph.add_node(v)
    pairs = [(u, v) for u in range(n) for v in range(n)]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=3 * n,
                              unique=True)):
        graph.add_edge(u, v)
    return graph


def _nest_signature(nest):
    sig = []
    for loop in nest.loops:
        sig.append((loop.header, frozenset(loop.body), tuple(loop.latches),
                    loop.parent.header if loop.parent is not None else None))
    return sig


def assert_cfg_analyses_agree(graph: Digraph, root) -> None:
    dense = dominator_tree(graph, root)
    ref = DominatorTreeReference(graph, root)
    assert dense.nodes == ref.nodes
    for v in dense.nodes:
        assert dense.idom(v) == ref.idom(v), v
        assert dense.depth(v) == ref.depth(v), v
        assert dense.children(v) == ref.children(v), v
        assert dense.dominators_of(v) == ref.dominators_of(v), v
    for a in graph.nodes:
        for b in graph.nodes:
            assert dense.dominates(a, b) == ref.dominates(a, b), (a, b)
            assert (dense.strictly_dominates(a, b)
                    == ref.strictly_dominates(a, b)), (a, b)
    assert (is_reducible(graph, dense)
            == is_reducible_reference(graph, ref))
    nest = LoopNest(graph, dense)
    nest_ref = LoopNestReference(graph, ref)
    assert _nest_signature(nest) == _nest_signature(nest_ref)
    for v in graph.nodes:
        mine = nest.innermost_containing(v)
        theirs = nest_ref.innermost_containing(v)
        assert (mine.header if mine else None) == \
            (theirs.header if theirs else None), v
    assert ([l.header for l in nest.loops_innermost_first()]
            == [l.header for l in nest_ref.loops_innermost_first()])


@given(random_digraph())
@settings(max_examples=200, deadline=None)
def test_random_digraphs_agree(graph):
    assert_cfg_analyses_agree(graph, 0)


def test_irreducible_triangle_agrees():
    graph = Digraph()
    for v in range(3):
        graph.add_node(v)
    for u, v in [(0, 1), (0, 2), (1, 2), (2, 1)]:
        graph.add_edge(u, v)
    dense = dominator_tree(graph, 0)
    assert not is_reducible(graph, dense)
    assert_cfg_analyses_agree(graph, 0)


def test_unreachable_pred_into_loop_agrees():
    """The seed's natural-loop walk traverses forward-unreachable
    predecessors and clamps afterwards; the dense walk must match."""
    graph = Digraph()
    for v in (0, 1, 2, 9, 10):
        graph.add_node(v)
    for u, v in [(0, 1), (1, 2), (2, 1), (9, 10), (10, 2), (10, 9)]:
        graph.add_edge(u, v)
    assert_cfg_analyses_agree(graph, 0)


def test_self_loop_agrees():
    graph = Digraph()
    for v in (0, 1, 2):
        graph.add_node(v)
    for u, v in [(0, 1), (1, 1), (1, 2)]:
        graph.add_edge(u, v)
    assert_cfg_analyses_agree(graph, 0)


# -- lowered functions: liveness / interference ----------------------------

MINMAX = (
    "int minmax(int a[], int n, int out[]) {\n"
    "    int min = a[0]; int max = min; int i = 1;\n"
    "    while (i < n) {\n"
    "        int u = a[i]; int v = a[i+1];\n"
    "        if (u > v) { if (u > max) max = u; if (v < min) min = v; }\n"
    "        else       { if (v > max) max = v; if (u < min) min = u; }\n"
    "        i = i + 2;\n"
    "    }\n"
    "    out[0] = min; out[1] = max; return 0;\n"
    "}\n"
)

NESTED = (
    "int f(int a[], int x, int y) {\n"
    "    int s = 0;\n"
    "    for (int i = 0; i < 4; i++) {\n"
    "        int t = a[i];\n"
    "        for (int j = 0; j < 3; j++) { s = s + t; }\n"
    "        s = s ^ i;\n"
    "    }\n"
    "    return s;\n"
    "}\n"
)

#: hand-written IR with an irreducible two-entry loop (CL.1 <-> CL.2,
#: entered at both headers) -- the front end cannot emit this shape
IRREDUCIBLE_IR = """
function irreducible
CL.0:
    (I1) C    cr0=r1,r2
    (I2) BT   CL.2,cr0,0x1/lt
CL.1:
    (I3) AI   r1=r1,1
    (I4) C    cr1=r1,r2
    (I5) BT   CL.2,cr1,0x1/lt
CL.2:
    (I6) AI   r1=r1,2
    (I7) C    cr2=r1,r2
    (I8) BT   CL.1,cr2,0x2/gt
"""

#: CL.9 is forward-unreachable but still has solved dataflow facts
UNREACHABLE_IR = """
function unreachable
CL.0:
    (I1) LI   r3=1
    (I2) B    CL.2
CL.9:
    (I3) AI   r3=r4,7
    (I4) B    CL.2
CL.2:
    (I5) AI   r3=r3,1
"""


def _analysis_functions():
    out = []
    for source in (MINMAX, NESTED):
        for cf in compile_c_functions(source).values():
            out.append((cf.func, cf.live_at_exit))
    for index in (0, 3, 7):
        program = generate_program(derive_seed(0xA5EED, index))
        for cf in compile_c_functions(program.source).values():
            out.append((cf.func, cf.live_at_exit))
    for text in (IRREDUCIBLE_IR, UNREACHABLE_IR):
        out.append((parse_function(text), frozenset()))
    return out


@pytest.mark.parametrize("func,live_at_exit", _analysis_functions(),
                         ids=lambda v: getattr(v, "name", None) or "exit")
def test_liveness_agrees(func, live_at_exit):
    cfg = ControlFlowGraph(func)
    dense = compute_liveness(func, live_at_exit, cfg)
    ref = compute_liveness_reference(func, live_at_exit, cfg)
    for block in func.blocks:
        assert dense.live_out(block) == ref.live_out(block), block.label
        assert dense.live_in(block) == ref.live_in(block), block.label
    assert dense.live_out_map() == ref.live_out_map()


@pytest.mark.parametrize("func,live_at_exit", _analysis_functions(),
                         ids=lambda v: getattr(v, "name", None) or "exit")
def test_interference_agrees(func, live_at_exit):
    """The allocator's builder gives one graph over either liveness solve
    (``reference_analyses()`` hands it the seed's)."""
    cfg = ControlFlowGraph(func)
    dense = build_interference(
        func, liveness=compute_liveness(func, live_at_exit, cfg))
    ref = build_interference(
        func, liveness=compute_liveness_reference(func, live_at_exit, cfg))
    assert dense.adjacency == ref.adjacency
    assert dense.moves == ref.moves


def test_dense_dominators_on_function_cfgs():
    for func, _ in _analysis_functions():
        cfg = ControlFlowGraph(func)
        assert_cfg_analyses_agree(cfg.graph, ENTRY)


# -- end to end: byte-identical assembly ----------------------------------


def _assembly(source, level, machine):
    result = compile_c(source, machine=CONFIGS[machine](), level=level)
    return "\n\n".join(unit.assembly() for unit in result)


def assert_assembly_identical(source, level, machine):
    dense_arm = _assembly(source, level, machine)
    with reference_analyses():
        reference_arm = _assembly(source, level, machine)
    assert dense_arm == reference_arm, (level, machine)


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_minmax_assembly_identical_everywhere(level, machine):
    assert_assembly_identical(MINMAX, level, machine)


@pytest.mark.parametrize("index", [0, 3, 7, 13])
def test_corpus_assembly_identical(index):
    program = generate_program(derive_seed(0xA5EED, index))
    assert_assembly_identical(program.source, ScheduleLevel.SPECULATIVE,
                              "rs6k")
