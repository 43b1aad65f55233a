"""Reference (pre-optimization) dependence-graph construction.

These are the original, straightforward implementations of the region DDG
builder and the delay-aware transitive reduction:

* :func:`build_region_ddg_reference` re-scans the earlier block of every
  reachable ``(A, B)`` pair to rebuild its def/use/memory summary -- an
  O(pairs x instructions) construction;
* :func:`transitive_reduce_reference` runs one heap-ordered longest-path
  sweep per multi-successor source.

The optimized versions in :mod:`repro.pdg.data_deps` must compute exactly
the same edge set (same endpoints, kinds and delays) and remove exactly the
same edges.  These copies exist so that equivalence stays *testable*
(``tests/pdg/test_reference_equivalence.py``); they are not used by the
compiler pipeline itself.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager

from ..ir.basic_block import BasicBlock
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from . import data_deps
from .data_deps import DataDependenceGraph, DepKind, _edge_weight
from .memory import AddressTracker, SymbolicAddress, may_conflict


class _BlockScanStateReference:
    """The seed running last-def / uses-since-def / memory scan state."""

    def __init__(self) -> None:
        self.last_def: dict[Reg, Instruction] = {}
        self.uses_since_def: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[tuple[Instruction, SymbolicAddress | None]] = []
        self.tracker = AddressTracker()


def _scan_block_reference(ddg: DataDependenceGraph, block: BasicBlock,
                          machine: MachineModel) -> None:
    """The seed intra-block scan: repeated ``reg_uses()``/``reg_defs()``
    calls and attribute lookups inside the loop."""
    state = _BlockScanStateReference()
    for ins in block.instrs:
        ddg.add_instruction(ins)
        for reg in ins.reg_uses():
            producer = state.last_def.get(reg)
            if producer is not None:
                delay = machine.flow_delay(producer, ins, reg)
                ddg.add_edge(producer, ins, DepKind.FLOW, delay, reg)
        if ins.touches_memory:
            addr = (state.tracker.address_of(ins.mem)
                    if ins.mem is not None else None)
            for prev, prev_addr in state.mem_ops:
                if may_conflict(prev, prev_addr, ins, addr):
                    ddg.add_edge(prev, ins, DepKind.MEM, 0)
            state.mem_ops.append((ins, addr))
        for reg in ins.reg_defs():
            for user in state.uses_since_def.get(reg, ()):
                ddg.add_edge(user, ins, DepKind.ANTI, 0, reg)
            previous = state.last_def.get(reg)
            if previous is not None:
                ddg.add_edge(previous, ins, DepKind.OUTPUT, 0, reg)
        for reg in ins.reg_uses():
            state.uses_since_def.setdefault(reg, []).append(ins)
        for reg in ins.reg_defs():
            state.last_def[reg] = ins
            state.uses_since_def[reg] = []
        state.tracker.step(ins)


def topo_order_reference(ddg: DataDependenceGraph) -> list[Instruction]:
    """The seed topological sort: indegrees from a full ``edges()`` copy,
    successor lists copied per pop."""
    indeg = {id(ins): 0 for ins in ddg.instructions}
    for edge in ddg.edges():
        indeg[id(edge.dst)] += 1
    ready = [ins for ins in ddg.instructions if indeg[id(ins)] == 0]
    order: list[Instruction] = []
    while ready:
        ins = ready.pop()
        order.append(ins)
        for edge in ddg.succs(ins):
            indeg[id(edge.dst)] -= 1
            if indeg[id(edge.dst)] == 0:
                ready.append(edge.dst)
    if len(order) != len(ddg.instructions):
        raise ValueError("data dependence graph has a cycle")
    return order


def _interblock_edges_reference(ddg: DataDependenceGraph, earlier: BasicBlock,
                                later: BasicBlock,
                                machine: MachineModel) -> None:
    """The seed per-pair construction: summarise ``earlier`` from scratch
    for every pair, then scan ``later`` against it."""
    defs_of: dict[Reg, list[Instruction]] = {}
    uses_of: dict[Reg, list[Instruction]] = {}
    mem_ops: list[Instruction] = []
    for a in earlier.instrs:
        for reg in a.reg_defs():
            defs_of.setdefault(reg, []).append(a)
        for reg in a.reg_uses():
            uses_of.setdefault(reg, []).append(a)
        if a.touches_memory:
            mem_ops.append(a)

    for b in later.instrs:
        ddg.add_instruction(b)
        for reg in b.reg_uses():
            for a in defs_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.FLOW,
                             machine.flow_delay(a, b, reg), reg)
        for reg in b.reg_defs():
            for a in uses_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.ANTI, 0, reg)
            for a in defs_of.get(reg, ()):
                ddg.add_edge(a, b, DepKind.OUTPUT, 0, reg)
        if b.touches_memory:
            for a in mem_ops:
                if may_conflict(a, None, b, None):
                    ddg.add_edge(a, b, DepKind.MEM, 0)


def build_region_ddg_reference(
    blocks: list[BasicBlock],
    reachable_pairs: set[tuple[str, str]],
    machine: MachineModel,
    *, reduce: bool = True,
) -> DataDependenceGraph:
    """The seed region-DDG builder: O(B^2) pairwise interblock scans."""
    ddg = DataDependenceGraph()
    for block in blocks:
        _scan_block_reference(ddg, block, machine)
    for i, earlier in enumerate(blocks):
        for later in blocks[i + 1:]:
            if (earlier.label, later.label) in reachable_pairs:
                _interblock_edges_reference(ddg, earlier, later, machine)
    if reduce:
        transitive_reduce_reference(ddg, machine)
    return ddg


def _longest_from_reference(ddg: DataDependenceGraph, src: Instruction,
                            machine: MachineModel,
                            position: dict[int, int]) -> dict[int, int]:
    """The seed longest-path sweep: a topo-position-keyed heap per source."""
    dist: dict[int, int] = {id(src): 0}
    heap = [(position[id(src)], id(src), src)]
    done: set[int] = set()
    while heap:
        _, _, ins = heapq.heappop(heap)
        if id(ins) in done:
            continue
        done.add(id(ins))
        for edge in ddg.succs(ins):
            cand = dist[id(ins)] + _edge_weight(machine, edge)
            if cand > dist.get(id(edge.dst), -1):
                dist[id(edge.dst)] = cand
            if id(edge.dst) not in done:
                heapq.heappush(
                    heap, (position[id(edge.dst)], id(edge.dst), edge.dst)
                )
    return dist


def transitive_reduce_reference(ddg: DataDependenceGraph,
                                machine: MachineModel) -> int:
    """The seed delay-aware reduction: one full heap sweep per source."""
    order = topo_order_reference(ddg)
    position = {id(ins): i for i, ins in enumerate(order)}
    removed = 0
    for a in order:
        out_edges = list(ddg.succs(a))
        if len(out_edges) < 2:
            continue
        dist = _longest_from_reference(ddg, a, machine, position)
        for edge in out_edges:
            w = _edge_weight(machine, edge)
            best_multi = max(
                (
                    dist[id(in_edge.src)] + _edge_weight(machine, in_edge)
                    for in_edge in list(ddg.preds(edge.dst))
                    if in_edge.src is not a and id(in_edge.src) in dist
                ),
                default=None,
            )
            if best_multi is not None and best_multi >= w:
                ddg.remove_edge(edge)
                removed += 1
    return removed


@contextmanager
def reference_pipeline():
    """Run the whole compiler with the reference DDG construction.

    Swaps :func:`repro.pdg.data_deps.build_region_ddg` and
    :func:`~repro.pdg.data_deps.transitive_reduce` for their reference
    twins for the duration of the ``with`` block, so a whole compile can
    be checked against the seed construction.
    """
    saved = (data_deps.build_region_ddg, data_deps.transitive_reduce)
    # pdg.pdg binds build_region_ddg at import time; patch it there too.
    from . import pdg as region_pdg_module

    saved_pdg = region_pdg_module.build_region_ddg
    data_deps.build_region_ddg = build_region_ddg_reference
    data_deps.transitive_reduce = transitive_reduce_reference
    region_pdg_module.build_region_ddg = build_region_ddg_reference
    try:
        yield
    finally:
        data_deps.build_region_ddg, data_deps.transitive_reduce = saved
        region_pdg_module.build_region_ddg = saved_pdg
