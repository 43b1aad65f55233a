"""The data-dependence subgraph of the PDG (Section 4.2).

Edges are inserted between instructions ``a`` (earlier) and ``b`` (later)
when:

* a register defined in ``a`` is used in ``b`` (*flow*),
* a register used in ``a`` is defined in ``b`` (*anti*),
* a register defined in ``a`` is defined in ``b`` (*output*),
* both touch memory and are not proven independent (*memory*), where
  load/load pairs never conflict and the base+offset analysis of
  :mod:`repro.pdg.memory` proves the rest.

Only flow edges carry (potentially non-zero) machine delays; all other
kinds carry zero (Section 4.2).  Dependences are computed both within
blocks and between every ordered pair of blocks ``(A, B)`` with ``B``
reachable from ``A`` in the forward control flow graph.  Which block
reaches which comes from the region's reachability closure
(:attr:`repro.pdg.RegionPDG.up`, one bitmask per block over the
topological positions of the blocks that reach it), computed once per
region.

The interblock pass summarises each block's defs/uses/memory traffic
*once* and merges the summaries of a block's forward-reachable
predecessors along the region's topological order, so each block's
instructions are scanned O(1) times instead of once per reachable pair
(the paper reports negligible compile-time cost for this phase).
``tests/pdg/test_ddg_by_definition.py`` checks the builder and the
reduction together against brute-force pairwise conflicts.

The paper does not compute transitive edges ("((I1),(I3)) is not computed
since it is transitive").  We build the natural edge set and remove, with
the delay-aware :func:`transitive_reduce`, each intra-block edge implied
by a longer-or-equal path: D and CP are computed within a block (Section
5.2), and an unreduced block can have a larger D.  Interblock edges stay
the natural set -- an implied one changes no schedule, and reducing them
cost more than any other step of a compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from ..ir.basic_block import BasicBlock
from ..ir.instruction import Instruction
from ..ir.operand import Reg
from ..machine.model import MachineModel
from .memory import AddressTracker, SymbolicAddress, may_conflict


class DepKind(Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    MEM = "mem"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DepKind.{self.name}"


@dataclass(eq=False, slots=True)
class DepEdge:
    """A dependence ``src -> dst``: dst must start >= start(src) + weight.

    Compares (and hashes) by identity: ``src``/``dst`` are
    identity-compared instructions and ``_by_pair`` keeps a single edge
    per pair, so value equality could only ever match the same object --
    while making every ``list.remove`` in the graph a field-by-field
    scan.  Not frozen, so construction assigns slots directly; no code
    mutates an edge.

    ``weight = exec_time(src) + delay`` for flow edges; for anti/output/
    memory edges the paper's delays are zero, but ``dst`` must still start
    no earlier than ``src`` -- we encode that as weight 0 with *issue order*
    preserved by the scheduler (an instruction is only ready once all its
    predecessors have been issued).
    """

    src: Instruction
    dst: Instruction
    kind: DepKind
    delay: int
    reg: Reg | None = None

    def __repr__(self) -> str:
        tag = f" {self.reg}" if self.reg is not None else ""
        return (f"<{self.kind.value}{tag} I{self.src.uid}->I{self.dst.uid}"
                f" d={self.delay}>")


class DataDependenceGraph:
    """Dependence edges over a set of instructions, keyed by identity.

    ``succs``/``preds`` return **read-only views** of the internal adjacency
    lists (the scheduler queries them on its inner loop, so per-call copies
    were measurable); a caller that mutates the graph while iterating must
    snapshot first (``list(ddg.succs(ins))``).  Every mutation bumps
    :attr:`version`, which incremental consumers (the scheduler's
    :class:`~repro.sched.soa.DenseDependenceState`) use to invalidate their
    derived state.
    """

    def __init__(self) -> None:
        self._succs: dict[int, list[DepEdge]] = {}
        self._preds: dict[int, list[DepEdge]] = {}
        self._by_pair: dict[tuple[int, int], DepEdge] = {}
        self.instructions: list[Instruction] = []
        self._known: set[int] = set()
        #: bumped on every edge insertion/removal (for cache invalidation)
        self.version = 0
        #: the :attr:`version` at which the builder left every edge running
        #: forward in :attr:`instructions` (None: not known to)
        self.forward_version: int | None = None
        #: (version, machine, DenseDDG) cache for :meth:`to_dense`
        self._dense: tuple | None = None

    # -- construction --------------------------------------------------------

    def add_instruction(self, ins: Instruction) -> None:
        if id(ins) not in self._known:
            self._known.add(id(ins))
            self.instructions.append(ins)
            self._succs[id(ins)] = []
            self._preds[id(ins)] = []

    def add_edge(self, src: Instruction, dst: Instruction, kind: DepKind,
                 delay: int, reg: Reg | None = None) -> None:
        """Insert an edge; parallel edges keep only the strongest delay."""
        if src is dst:
            return
        src_id = id(src)
        dst_id = id(dst)
        # inline the known-instruction checks: edge insertion is the
        # single hottest call of region-DDG construction and endpoints
        # are almost always registered already
        if src_id not in self._known:
            self.add_instruction(src)
        if dst_id not in self._known:
            self.add_instruction(dst)
        key = (src_id, dst_id)
        existing = self._by_pair.get(key)
        if existing is not None and existing.delay >= delay:
            return
        edge = DepEdge(src, dst, kind, delay, reg)
        if existing is not None:
            self._succs[src_id].remove(existing)
            self._preds[dst_id].remove(existing)
        self._by_pair[key] = edge
        self._succs[src_id].append(edge)
        self._preds[dst_id].append(edge)
        self.version += 1

    def remove_edge(self, edge: DepEdge) -> None:
        key = (id(edge.src), id(edge.dst))
        if self._by_pair.get(key) is edge:
            del self._by_pair[key]
            self._succs[id(edge.src)].remove(edge)
            self._preds[id(edge.dst)].remove(edge)
            self.version += 1

    # -- queries -----------------------------------------------------------------

    _NO_EDGES: Sequence[DepEdge] = ()

    def succs(self, ins: Instruction) -> Sequence[DepEdge]:
        """Outgoing edges of ``ins`` -- a read-only view, do not mutate."""
        return self._succs.get(id(ins), self._NO_EDGES)

    def preds(self, ins: Instruction) -> Sequence[DepEdge]:
        """Incoming edges of ``ins`` -- a read-only view, do not mutate."""
        return self._preds.get(id(ins), self._NO_EDGES)

    def edges(self) -> list[DepEdge]:
        return list(self._by_pair.values())

    def iter_edges(self):
        """All edges without the :meth:`edges` list copy (read-only; do not
        mutate the graph while iterating)."""
        return self._by_pair.values()

    def edge_count(self) -> int:
        return len(self._by_pair)

    def has_edge(self, src: Instruction, dst: Instruction) -> bool:
        return (id(src), id(dst)) in self._by_pair

    def edge(self, src: Instruction, dst: Instruction) -> DepEdge | None:
        return self._by_pair.get((id(src), id(dst)))

    def to_dense(self, machine: MachineModel) -> "DenseDDG":
        """A struct-of-arrays snapshot of this graph (see :class:`DenseDDG`).

        Cached per ``(version, machine)``: mutation bumps :attr:`version`
        and the next call rebuilds.  Because :attr:`instructions` is
        append-only, an instruction's dense index is stable across
        rebuilds -- consumers may keep per-index facts (fulfilment flags,
        issue cycles) alive over graph mutations and only extend them.
        """
        cached = self._dense
        if (cached is not None and cached[0] == self.version
                and cached[1] is machine):
            return cached[2]
        dense = DenseDDG(self, machine)
        self._dense = (self.version, machine, dense)
        return dense

    def __repr__(self) -> str:
        return (f"<DataDependenceGraph {len(self.instructions)} instrs, "
                f"{len(self._by_pair)} edges>")


class DenseDDG:
    """Read-only struct-of-arrays view of one :class:`DataDependenceGraph`.

    Instructions are interned to dense indices (``index``: ``id(ins) ->
    position in the append-only instruction list``) and the adjacency is
    flattened to CSR posting lists: the successors of instruction ``i``
    are ``succ_idx[succ_off[i]:succ_off[i+1]]`` with the minimum
    start-to-start separations in the parallel ``succ_w`` slice
    (``exec_time(src) + delay`` for flow edges, 0 otherwise -- the weights
    are machine-dependent, which is why the snapshot is taken against a
    machine model).  ``indegree[i]`` counts the predecessors of ``i``.
    The schedulers read dependences only from these int arrays: the
    basic-block pass directly, the global block pass through the counters
    of :class:`~repro.sched.soa.DenseDependenceState`.  Edge *kind*/*reg*
    metadata stays behind on the object graph, which remains the source
    of truth for mutation.
    """

    __slots__ = ("version", "n", "instrs", "index",
                 "succ_off", "succ_idx", "succ_w", "indegree")

    def __init__(self, ddg: DataDependenceGraph, machine: MachineModel):
        from array import array

        instrs = ddg.instructions
        n = len(instrs)
        index = {id(ins): i for i, ins in enumerate(instrs)}
        exec_time = machine.exec_time
        flow = DepKind.FLOW
        succ_off = [0] * (n + 1)
        si: list[int] = []
        sw: list[int] = []
        for i, ins in enumerate(instrs):
            exec_i = exec_time(ins)
            for edge in ddg._succs[id(ins)]:
                si.append(index[id(edge.dst)])
                sw.append(exec_i + edge.delay if edge.kind is flow else 0)
            succ_off[i + 1] = len(si)
        indegree = [0] * n
        for j in si:
            indegree[j] += 1
        self.version = ddg.version
        self.n = n
        self.instrs = list(instrs)
        self.index = index
        self.succ_off = array("i", succ_off)
        self.succ_idx = array("i", si)
        self.succ_w = array("i", sw)
        self.indegree = array("i", indegree)

    def nbytes(self) -> int:
        """Approximate footprint of the flat tables (observability)."""
        return sum(arr.itemsize * len(arr)
                   for arr in (self.succ_off, self.succ_idx, self.succ_w,
                               self.indegree))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DenseDDG {self.n} instrs, {len(self.succ_idx)} edges, "
                f"v{self.version}>")


def refresh_edge(ddg: DataDependenceGraph, src: Instruction,
                 dst: Instruction, machine: MachineModel) -> None:
    """Re-derive the dependence edge ``src -> dst`` from the two
    instructions' current operands: drop the old edge, then add the flow,
    anti, output and (conservatively) memory edges, of which the graph
    keeps the strongest.  Section 4.2 renaming calls it for the edges of
    a renamed instruction, Definition 6 duplication for each copy."""
    existing = ddg.edge(src, dst)
    if existing is not None:
        ddg.remove_edge(existing)
    src_defs = set(src.reg_defs())
    src_uses = set(src.reg_uses())
    for reg in dst.reg_uses():
        if reg in src_defs:
            ddg.add_edge(src, dst, DepKind.FLOW,
                         machine.flow_delay(src, dst, reg), reg)
    for reg in dst.reg_defs():
        if reg in src_uses:
            ddg.add_edge(src, dst, DepKind.ANTI, 0, reg)
        if reg in src_defs:
            ddg.add_edge(src, dst, DepKind.OUTPUT, 0, reg)
    if (src.touches_memory and dst.touches_memory
            and (src.writes_memory or dst.writes_memory)):
        ddg.add_edge(src, dst, DepKind.MEM, 0)


def _edge_weight(machine: MachineModel, edge: DepEdge) -> int:
    """Minimum start-to-start separation the edge imposes."""
    if edge.kind is DepKind.FLOW:
        return machine.exec_time(edge.src) + edge.delay
    return 0


class _BlockScanState:
    """Running last-def / uses-since-def / memory state for one block scan."""

    def __init__(self) -> None:
        self.last_def: dict[Reg, Instruction] = {}
        self.uses_since_def: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[tuple[Instruction, SymbolicAddress | None]] = []
        self.tracker = AddressTracker()


def _scan_block(ddg: DataDependenceGraph, block: BasicBlock,
                machine: MachineModel) -> None:
    """Intra-block dependences via a single forward scan.

    The scan inherently avoids most transitive edges: a flow edge is only
    drawn from the *last* definition, an output edge only from the previous
    definition, etc.
    """
    state = _BlockScanState()
    last_def = state.last_def
    uses_since_def = state.uses_since_def
    add_edge = ddg.add_edge
    flow_delay = machine.flow_delay
    for ins in block.instrs:
        ddg.add_instruction(ins)
        uses = ins.reg_uses()
        defs = ins.reg_defs()
        # flow: last def of each used register
        for reg in uses:
            producer = last_def.get(reg)
            if producer is not None:
                delay = flow_delay(producer, ins, reg)
                add_edge(producer, ins, DepKind.FLOW, delay, reg)
        # memory ordering
        if ins.opcode.touches_memory:
            addr = (state.tracker.address_of(ins.mem)
                    if ins.mem is not None else None)
            for prev, prev_addr in state.mem_ops:
                if may_conflict(prev, prev_addr, ins, addr):
                    add_edge(prev, ins, DepKind.MEM, 0)
            state.mem_ops.append((ins, addr))
        # anti and output
        for reg in defs:
            for user in uses_since_def.get(reg, ()):
                add_edge(user, ins, DepKind.ANTI, 0, reg)
            previous = last_def.get(reg)
            if previous is not None:
                add_edge(previous, ins, DepKind.OUTPUT, 0, reg)
        # update state
        for reg in uses:
            uses_since_def.setdefault(reg, []).append(ins)
        for reg in defs:
            last_def[reg] = ins
            uses_since_def[reg] = []
        state.tracker.step(ins)


class _BlockSummary:
    """One block's def/use/memory footprint, computed in a single scan."""

    __slots__ = ("defs_of", "uses_of", "mem_ops")

    def __init__(self, block: BasicBlock) -> None:
        self.defs_of: dict[Reg, list[Instruction]] = {}
        self.uses_of: dict[Reg, list[Instruction]] = {}
        self.mem_ops: list[Instruction] = []
        for a in block.instrs:
            for reg in a.reg_defs():
                self.defs_of.setdefault(reg, []).append(a)
            for reg in a.reg_uses():
                self.uses_of.setdefault(reg, []).append(a)
            if a.opcode.touches_memory:
                self.mem_ops.append(a)


def _interblock_edges(
    ddg: DataDependenceGraph,
    blocks: list[BasicBlock],
    up: list[int],
    machine: MachineModel,
) -> None:
    """Dependences into each block from every earlier block that reaches
    it (the bits of ``up``), matched through per-register posting lists.

    Each register maps to the (block index, instruction list) postings of
    the blocks that define or use it, so a later block only ever touches
    the registers its own instructions mention -- re-merging every source
    summary per later block visited every register of every earlier block
    instead.  Postings are in topological block order, which keeps the
    edge insertion sequence identical to a per-source merge.

    Conservative on memory: cross-block references are never disambiguated
    (the base registers' values at block entry depend on the path taken).
    """
    summaries = [_BlockSummary(block) for block in blocks]
    defs_at: dict[Reg, list[tuple[int, list[Instruction]]]] = {}
    uses_at: dict[Reg, list[tuple[int, list[Instruction]]]] = {}
    mem_at: list[tuple[int, list[Instruction]]] = []
    for i, summary in enumerate(summaries):
        for reg, instrs in summary.defs_of.items():
            defs_at.setdefault(reg, []).append((i, instrs))
        for reg, instrs in summary.uses_of.items():
            uses_at.setdefault(reg, []).append((i, instrs))
        if summary.mem_ops:
            mem_at.append((i, summary.mem_ops))

    flow_delay = machine.flow_delay
    add_edge = ddg.add_edge
    no_postings: list[tuple[int, list[Instruction]]] = []
    for j, later in enumerate(blocks):
        srcs = up[j]
        if not srcs:
            continue
        for b in later.instrs:
            for reg in b.reg_uses():
                for i, instrs in defs_at.get(reg, no_postings):
                    if srcs >> i & 1:
                        for a in instrs:
                            add_edge(a, b, DepKind.FLOW,
                                     flow_delay(a, b, reg), reg)
            for reg in b.reg_defs():
                for i, instrs in uses_at.get(reg, no_postings):
                    if srcs >> i & 1:
                        for a in instrs:
                            add_edge(a, b, DepKind.ANTI, 0, reg)
                for i, instrs in defs_at.get(reg, no_postings):
                    if srcs >> i & 1:
                        for a in instrs:
                            add_edge(a, b, DepKind.OUTPUT, 0, reg)
            if b.opcode.touches_memory:
                for i, instrs in mem_at:
                    if srcs >> i & 1:
                        for a in instrs:
                            if may_conflict(a, None, b, None):
                                add_edge(a, b, DepKind.MEM, 0)


def build_block_ddg(block: BasicBlock, machine: MachineModel,
                    *, reduce: bool = True) -> DataDependenceGraph:
    """Intra-block DDG (used by the basic-block scheduler)."""
    ddg = DataDependenceGraph()
    _scan_block(ddg, block, machine)
    ddg.forward_version = ddg.version
    if reduce:
        transitive_reduce(ddg, machine)
    return ddg


def build_region_ddg(
    blocks: list[BasicBlock],
    up: list[int],
    machine: MachineModel,
    *, reduce: bool = True,
) -> DataDependenceGraph:
    """DDG over a region.

    ``blocks`` must be in topological order of the region's forward CFG;
    bit ``i`` of ``up[j]`` is set when ``blocks[j]`` is reachable from
    ``blocks[i]`` along forward edges (Section 4.2: "for each pair A and
    B of basic blocks such that B is reachable from A ... the interblock
    data dependences are computed") -- :attr:`repro.pdg.RegionPDG.up`,
    whose positions are these indices.

    Each block is scanned exactly once (intra-block edges + its summary);
    cross-block dependences are then matched through per-register posting
    lists (:func:`_interblock_edges`), instead of re-scanning every
    ``(earlier, later)`` pair.  Instructions enter the graph block by
    block in that topological order, so every edge runs forward in
    ``ddg.instructions`` (:attr:`DataDependenceGraph.forward_version`).

    ``reduce`` runs :func:`transitive_reduce` on the intra-block edges
    alone, before any interblock edge exists; the interblock edges stay
    the natural Section 4.2 set.  Since every edge runs forward in block
    order, no path joins two instructions of one block through another
    block, so each block's edges -- the only ones D and CP read -- are
    exactly :func:`build_block_ddg`'s.  An interblock edge a whole-graph
    reduction would drop is implied by a path covering its separation,
    so keeping it changes neither readiness nor any earliest start.
    """
    ddg = DataDependenceGraph()
    for block in blocks:
        _scan_block(ddg, block, machine)
    ddg.forward_version = ddg.version
    if reduce:
        transitive_reduce(ddg, machine)
    if len(blocks) > 1:
        _interblock_edges(ddg, blocks, up, machine)
    ddg.forward_version = ddg.version
    return ddg


def transitive_reduce(ddg: DataDependenceGraph,
                      machine: MachineModel) -> int:
    """Remove edges implied by stronger-or-equal multi-edge paths.

    An edge ``(a, b)`` with separation ``w`` is redundant iff some path
    ``a -> ... -> b`` of at least two edges already forces a separation
    ``>= w``.  Returns the number of edges removed.  This mirrors the
    paper's "there is no need to compute the edge from a to c" observation,
    generalised to be delay-aware: a transitive edge must be *kept* when it
    carries a longer delay than the path through the middle instruction.

    Topological order, positions and per-edge weights are computed once
    and shared by every source; each source's longest-path sweep is a
    linear scan over the topological slice up to its furthest direct
    successor (no priority queue, no work past the last edge it can
    possibly remove).  The whole pass runs on a dense position-indexed
    snapshot of the adjacency taken before any removal: a removed edge is
    by construction dominated by its (remaining) implying path, so every
    longest-path value and every "best multi-hop path" maximum computed
    from the snapshot equals the one computed from the live graph, and
    the removal set is identical -- while the inner loops touch plain
    list-of-int-tuples instead of edge objects and id() dictionaries.
    Single-successor sources are skipped outright: a parallel multi-edge
    path would need a second out-edge to start from.

    The builders call it on intra-block edges only (a region graph gets
    its interblock edges afterwards, see :func:`build_region_ddg`), but
    it reduces any DAG.  A graph as its builder left it is reduced in
    construction order (every edge already runs forward in
    ``ddg.instructions``); a graph mutated since is sorted first
    (:func:`topo_order`).  The removal set is defined on the pre-removal
    snapshot, and every path between two instructions stays between
    their positions in any topological order, so every order removes the
    same edges.
    """
    order = (ddg.instructions if ddg.forward_version == ddg.version
             else topo_order(ddg))
    count = len(order)
    position = {id(ins): i for i, ins in enumerate(order)}
    exec_time = machine.exec_time
    flow = DepKind.FLOW
    #: per-position adjacency snapshots; weights inlined
    out_at: list[list] = [[] for _ in range(count)]   # (dst_pos, w, edge)
    in_at: list[list] = [[] for _ in range(count)]    # (src_pos, w)
    for edge in ddg.iter_edges():
        w = (exec_time(edge.src) + edge.delay
             if edge.kind is flow else 0)
        src_pos = position[id(edge.src)]
        dst_pos = position[id(edge.dst)]
        out_at[src_pos].append((dst_pos, w, edge))
        in_at[dst_pos].append((src_pos, w))
    removed = 0
    dist = [-1] * count  # reused per source; -1 = unreached
    for a_pos in range(count):
        outs = out_at[a_pos]
        if len(outs) < 2:
            continue
        # An edge (a, b) is only removable when some *other* edge enters
        # b: restrict the check set (and the DP horizon) to successors
        # with a second in-edge in the snapshot.  Sources whose
        # successors are all single-predecessor skip the DP outright.
        check = None
        limit = a_pos
        for item in outs:
            dst_pos = item[0]
            if len(in_at[dst_pos]) >= 2:
                if check is None:
                    check = [item]
                else:
                    check.append(item)
                if dst_pos > limit:
                    limit = dst_pos
        if check is None:
            continue
        outs = check
        # Longest-path DP from ``a`` over the topo slice that can matter:
        # every removable edge ends at a checked successor, and every
        # implying path stays strictly within the slice before it.
        dist[a_pos] = 0
        touched = [a_pos]
        for here in range(a_pos, limit):
            d = dist[here]
            if d < 0:
                continue
            for dst_pos, w, _ in out_at[here]:
                if dst_pos > limit:
                    continue
                cand = d + w
                if cand > dist[dst_pos]:
                    if dist[dst_pos] < 0:
                        touched.append(dst_pos)
                    dist[dst_pos] = cand
        for dst_pos, w, edge in outs:
            # Longest a->b path whose final hop is (m, b) with m != a;
            # -1 stands for "no such path" (all real weights are >= 0).
            best_multi = -1
            for src_pos, in_w in in_at[dst_pos]:
                if src_pos == a_pos:
                    continue
                d = dist[src_pos]
                if d >= 0:
                    cand = d + in_w
                    if cand > best_multi:
                        best_multi = cand
            if best_multi >= w:
                ddg.remove_edge(edge)
                removed += 1
        for here in touched:
            dist[here] = -1
    return removed


def topo_order(ddg: DataDependenceGraph) -> list[Instruction]:
    """A topological order of the dependence DAG (raises on cycles)."""
    indeg: dict[int, int] = {}
    ready: list[Instruction] = []
    for ins in ddg.instructions:
        n = len(ddg.preds(ins))
        indeg[id(ins)] = n
        if n == 0:
            ready.append(ins)
    order: list[Instruction] = []
    while ready:
        ins = ready.pop()
        order.append(ins)
        for edge in ddg.succs(ins):
            key = id(edge.dst)
            indeg[key] -= 1
            if indeg[key] == 0:
                ready.append(edge.dst)
    if len(order) != len(ddg.instructions):
        raise ValueError("data dependence graph has a cycle")
    return order
