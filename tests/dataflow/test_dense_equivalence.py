"""The dense analysis core, held to the definitions it implements.

Dominators, reducibility, the loop nest and liveness run on int indices
and bitmasks (:mod:`repro.cfg.dominators`, :mod:`repro.cfg.loops`,
:mod:`repro.dataflow`).  Each is checked here against its definition,
computed the slow, obvious way -- on random digraphs (irreducible graphs
and unreachable nodes included), on lowered mini-C functions and on
hand-written irreducible/unreachable IR:

* ``d`` dominates ``n`` iff ``n`` is unreachable from the root once ``d``
  is removed (Definition 1);
* each loop is the natural loop of its back edges (edges whose target
  dominates their source), and the graph is reducible iff it is acyclic
  once those back edges are gone;
* a register is live out of a block iff a path from there reaches a use
  of it before any definition.

End to end, the compiler run on the definitions themselves -- dominator
trees built by vertex removal, liveness by path search -- emits
byte-identical assembly across machines x scheduling levels.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg import dominators
from repro.cfg.digraph import Digraph
from repro.cfg.dominators import DominatorTree, dominator_tree
from repro.cfg.graph import ENTRY, ControlFlowGraph
from repro.cfg.loops import LoopNest, is_reducible
from repro.compiler import compile_c
from repro.dataflow.liveness import LivenessInfo, compute_liveness
from repro.ir.parser import parse_function
from repro.lang.lower import compile_c_functions
from repro.machine.configs import CONFIGS
from repro.regalloc.interference import build_interference
from repro.sched.candidates import ScheduleLevel
from repro.verify.fuzz import derive_seed
from repro.verify.generator import generate_program

# -- the definitions --------------------------------------------------------


def reachable_without(graph: Digraph, root, removed) -> set:
    """Nodes reachable from ``root`` along paths avoiding ``removed``."""
    if root == removed:
        return set()
    seen, stack = {root}, [root]
    while stack:
        for succ in graph.succs(stack.pop()):
            if succ != removed and succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def dominators_by_definition(graph: Digraph, root) -> dict:
    """node -> set of its dominators, by vertex removal (Definition 1)."""
    reach = reachable_without(graph, root, object())
    doms = {n: {n} for n in reach}
    for d in reach:
        for n in reach - reachable_without(graph, root, d):
            doms[n].add(d)
    return doms


class DominatorsByDefinition(DominatorTree):
    """A :class:`DominatorTree` whose rows come from Definition 1: the
    immediate dominator is the strict dominator with the most dominators
    of its own (the closest one)."""

    def __init__(self, graph: Digraph, root):
        doms = dominators_by_definition(graph, root)
        self.root, self._rpo = root, graph.rpo(root)
        self._index = {n: i for i, n in enumerate(self._rpo)}
        self._idom_arr = [0] * len(self._rpo)
        self._depth_arr = [len(doms[n]) - 1 for n in self._rpo]
        for n in self._rpo[1:]:
            strict = doms[n] - {n}
            closest = max(strict, key=lambda d: len(doms[d]))
            self._idom_arr[self._index[n]] = self._index[closest]
        self._children_idx = None


def natural_loops_by_definition(graph: Digraph, doms: dict) -> dict:
    """header -> (body, latches): the natural loop of each back edge
    (target dominates source), loops sharing a header merged, over the
    reachable nodes (the keys of ``doms``)."""
    loops: dict = {}
    for src, dst in graph.edges():
        if src in doms and dst in doms[src]:
            # the header plus every node reaching the latch around it
            body = {dst} | {n for n in doms if n != dst
                            and src in reachable_without(graph, n, dst)}
            old_body, latches = loops.get(dst, (set(), []))
            loops[dst] = (old_body | body, latches + [src])
    return loops


def reducible_by_definition(graph: Digraph, root, doms: dict) -> bool:
    """Acyclic once every back edge is removed?"""
    forward = Digraph()
    for n in doms:
        forward.add_node(n)
    for src, dst in graph.edges():
        if src in doms and dst in doms and dst not in doms[src]:
            forward.add_edge(src, dst)
    try:
        forward.topological_order(root)
    except ValueError:
        return False
    return True


def live_out_by_definition(func, cfg, live_at_exit) -> dict:
    """label -> registers live on exit, by path search: from every use
    not preceded by a definition in its block (and from EXIT for the
    registers live at function exit), walk predecessors until a block
    that defines the register."""
    exposed, defines = {}, {}
    for block in func.blocks:
        seen, up = set(), set()
        for ins in block.instrs:
            up |= set(ins.reg_uses()) - seen
            seen |= set(ins.reg_defs())
        exposed[block.label], defines[block.label] = up, seen
    exposed[cfg.exit], defines[cfg.exit] = set(live_at_exit), set()
    live = {block.label: set() for block in func.blocks}
    regs = set().union(*exposed.values())
    for reg in regs:
        stack = [n for n, up in exposed.items() if reg in up]
        entered = set(stack)
        while stack:
            for pred in cfg.graph.preds(stack.pop()):
                if pred not in live:
                    continue  # ENTRY
                live[pred].add(reg)
                if reg not in defines[pred] and pred not in entered:
                    entered.add(pred)
                    stack.append(pred)
    return live


def _solve_by_definition(self) -> list[int]:
    """:meth:`LivenessInfo._solve` from the path-search definition."""
    out = [0] * len(self.dense.nodes)
    for label, regs in live_out_by_definition(
            self.func, self.cfg, self.live_at_exit).items():
        out[self.dense.index[label]] = self.table.mask_of(regs)
    out[self.dense.index[self.cfg.exit]] = self.table.mask_of(
        self.live_at_exit)
    return out


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


def assert_cfg_analyses_agree(graph: Digraph, root) -> None:
    """The dense dominator tree, reducibility and loop nest of ``graph``
    equal their definitions."""
    dense = dominator_tree(graph, root)
    doms = dominators_by_definition(graph, root)
    assert set(dense.nodes) == set(doms)
    for v in dense.nodes:
        strict = doms[v] - {v}
        assert dense.depth(v) == len(strict), v
        assert set(dense.dominators_of(v)) == doms[v], v
        idom = dense.idom(v)
        assert (idom is None) == (v == root), v
        if idom is not None:
            assert idom in strict and strict <= doms[idom], v
        assert set(dense.children(v)) == {
            c for c in doms
            if c != v and v in doms[c] and doms[c] - {c} <= doms[v]}, v
    for a in graph.nodes:
        for b in graph.nodes:
            expected = b in doms and a in doms[b]
            assert dense.dominates(a, b) == expected, (a, b)
            assert dense.strictly_dominates(a, b) == (expected and a != b)
    assert is_reducible(graph, dense) == reducible_by_definition(
        graph, root, doms)
    nest = LoopNest(graph, dense)
    loops = natural_loops_by_definition(graph, doms)
    assert {loop.header: (loop.body, set(loop.latches))
            for loop in nest.loops} == {
        h: (body, set(latches)) for h, (body, latches) in loops.items()}
    for loop in nest.loops:
        around = [m for m in nest.loops
                  if m is not loop and loop.header in m.body]
        parent = min(around, key=lambda m: len(m.body), default=None)
        assert loop.parent is parent, loop.header
    for v in graph.nodes:
        inside = [l for l in nest.loops if v in l.body]
        smallest = min(inside, key=lambda l: len(l.body), default=None)
        assert nest.innermost_containing(v) is smallest, v
    order = nest.loops_innermost_first()
    assert sorted(map(id, order)) == sorted(map(id, nest.loops))
    for loop in order:
        if loop.parent is not None:
            assert order.index(loop) < order.index(loop.parent)


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
    """The dense natural-loop walk traverses forward-unreachable
    predecessors and clamps afterwards; the loop must still be the
    definition's."""
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
    assert_liveness_agrees(func, live_at_exit)


def assert_liveness_agrees(func, live_at_exit):
    cfg = ControlFlowGraph(func)
    dense = compute_liveness(func, live_at_exit, cfg)
    live = live_out_by_definition(func, cfg, live_at_exit)
    for block in func.blocks:
        assert dense.live_out(block) == live[block.label], block.label
        live_in = set(live[block.label])
        for ins in reversed(block.instrs):
            live_in = (live_in - set(ins.reg_defs())) | set(ins.reg_uses())
        assert dense.live_in(block) == live_in, block.label
    assert dense.live_out_masks() == {
        label: dense.table.mask_of(regs) for label, regs in live.items()}


@pytest.mark.parametrize("func,live_at_exit", _analysis_functions(),
                         ids=lambda v: getattr(v, "name", None) or "exit")
def test_interference_agrees(func, live_at_exit):
    """The allocator's builder gives one graph over the dense solve and
    over liveness by definition."""
    cfg = ControlFlowGraph(func)
    dense = build_interference(
        func, liveness=compute_liveness(func, live_at_exit, cfg))
    by_definition = LivenessInfo(func, cfg, live_at_exit)
    by_definition._out_m = _solve_by_definition(by_definition)
    defined = build_interference(func, liveness=by_definition)
    assert dense.adjacency == defined.adjacency
    assert dense.moves == defined.moves


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
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dominators, "DominatorTree", DominatorsByDefinition)
        m.setattr(LivenessInfo, "_solve", _solve_by_definition)
        defined_arm = _assembly(source, level, machine)
    assert dense_arm == defined_arm, (level, machine)


def test_rejects_an_idom_replaced_by_the_root(monkeypatch):
    real = DominatorTree.__init__

    def shortcut(self, graph, root):
        real(self, graph, root)
        deep = [v for v, d in enumerate(self._depth_arr) if d > 1]
        if deep:
            self._idom_arr[deep[0]], self._depth_arr[deep[0]] = 0, 1

    monkeypatch.setattr(DominatorTree, "__init__", shortcut)
    with pytest.raises(AssertionError):
        for func, _ in _analysis_functions():
            assert_cfg_analyses_agree(ControlFlowGraph(func).graph, ENTRY)


def test_rejects_a_dropped_live_out_bit(monkeypatch):
    real = LivenessInfo._solve

    def dropping(self):
        out = real(self)
        first = next(i for i, mask in enumerate(out) if mask)
        out[first] &= out[first] - 1  # clear the lowest set bit
        return out

    monkeypatch.setattr(LivenessInfo, "_solve", dropping)
    func, live_at_exit = _analysis_functions()[0]
    with pytest.raises(AssertionError):
        assert_liveness_agrees(func, live_at_exit)


@pytest.mark.parametrize("machine", sorted(CONFIGS))
@pytest.mark.parametrize("level", list(ScheduleLevel))
def test_minmax_assembly_identical_everywhere(level, machine):
    assert_assembly_identical(MINMAX, level, machine)


@pytest.mark.parametrize("index", [0, 3, 7, 13])
def test_corpus_assembly_identical(index):
    program = generate_program(derive_seed(0xA5EED, index))
    assert_assembly_identical(program.source, ScheduleLevel.SPECULATIVE,
                              "rs6k")
