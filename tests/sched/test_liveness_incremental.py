"""Property tests for the bitset live-on-exit tracker (Section 5.3).

The :class:`LiveOnExitTracker` answers "which blocks lie on a forward
path from the motion target to the motion source" from interned
per-region reachability bitsets.  On randomized DAG regions and
randomized motion sequences its live-on-exit sets must match a naive
from-scratch recomputation of the paper's rule.  A second property pins
the ready queue's targeted veto invalidation: after any motion, the set
of heap residents flagged for re-judgment is exactly the set whose
definitions joined a live-out set the candidate is judged against.
"""

import random

from repro.cfg import Digraph
from repro.ir import gpr
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.sched.speculation import LiveOnExitTracker


def random_dag(rng, n_blocks):
    """A rooted forward DAG over labels B0..Bn-1 (edges i -> j, i < j)."""
    graph = Digraph()
    labels = [f"B{i}" for i in range(n_blocks)]
    for label in labels:
        graph.add_node(label)
    for j in range(1, n_blocks):
        # at least one in-edge keeps every block reachable from B0
        preds = rng.sample(range(j), k=min(j, 1 + rng.randrange(2)))
        for i in preds:
            graph.add_edge(labels[i], labels[j])
    return graph, labels


def defining(regs):
    """A minimal real instruction defining ``regs`` (LI picked arbitrarily;
    record_motion only reads ``reg_defs``)."""
    return Instruction(Opcode.LI, defs=tuple(regs), imm=0)


def naive_between(graph, src, dst):
    """The paper's rule, recomputed from scratch: blocks on a forward
    path dst -> ... -> src, exclusive of src, inclusive of dst."""
    downstream = graph.reachable_from(dst)
    upstream = graph.reversed().reachable_from(src)
    between = (downstream & upstream) - {src}
    between.add(dst)
    return between


def test_trackers_agree_on_random_motion_sequences():
    rng = random.Random(0xC0FFEE)
    for trial in range(40):
        n = 2 + rng.randrange(10)
        graph, labels = random_dag(rng, n)
        base = {label: {gpr(rng.randrange(8))
                        for _ in range(rng.randrange(3))}
                for label in labels}
        fast = LiveOnExitTracker({k: set(v) for k, v in base.items()}, graph)
        shadow = {k: set(v) for k, v in base.items()}

        for _ in range(15):
            src, dst = rng.sample(labels, 2)
            # motions go upward: dst must reach src in the forward graph
            if src not in graph.reachable_from(dst):
                src, dst = dst, src
                if src not in graph.reachable_from(dst):
                    continue
            ins = defining([gpr(rng.randrange(8))
                            for _ in range(1 + rng.randrange(2))])
            fast.record_motion(ins, src, dst)
            for label in naive_between(graph, src, dst):
                shadow.setdefault(label, set()).update(ins.reg_defs())

            for label in labels:
                assert fast.live_out_of(label) == shadow.get(label, set()), (
                    f"trial {trial}: bitset tracker diverged from naive "
                    f"recomputation at {label}")


def test_unknown_labels_fall_back_to_traversal():
    """Labels outside the interned region graph (duplication copies land
    in blocks the forward graph never saw) take the traversal fallback
    and still follow the naive rule."""
    graph = Digraph()
    for label in ("B0", "B1"):
        graph.add_node(label)
    graph.add_edge("B0", "B1")
    fast = LiveOnExitTracker({}, graph)
    ins = defining([gpr(1)])
    fast.record_motion(ins, "B1", "B0")       # prime the bitsets
    outside = defining([gpr(2)])
    fast.record_motion(outside, "ELSEWHERE", "ELSEWHERE2")
    shadow = {label: set() for label in ("B0", "B1", "ELSEWHERE",
                                         "ELSEWHERE2")}
    for moved, src, dst in ((ins, "B1", "B0"),
                            (outside, "ELSEWHERE", "ELSEWHERE2")):
        for label in naive_between(graph, src, dst):
            shadow[label].update(moved.reg_defs())
    for label, expected in shadow.items():
        assert fast.live_out_of(label) == expected


def test_blocks_motion_follows_dynamic_updates():
    """Section 5.3's x=5/x=3 shape on the tracker directly: after one
    sibling definition moves up, the other is vetoed."""
    graph = Digraph()
    for label in ("A", "T", "E"):
        graph.add_node(label)
    graph.add_edge("A", "T")
    graph.add_edge("A", "E")
    tracker = LiveOnExitTracker({}, graph)
    x = gpr(5)
    first, second = defining([x]), defining([x])
    assert not tracker.blocks_motion(first, "A")
    tracker.record_motion(first, "T", "A")
    assert tracker.blocks_motion(second, "A")
    assert tracker.blocking_regs(second, "A") == (x,)


def test_targeted_invalidation_flags_exactly_the_affected_residents():
    """The ready queue's reg -> candidate index re-flags a speculative
    heap resident iff a motion made one of its definitions live; an
    unrelated motion must not disturb it."""
    from repro.machine.configs import CONFIGS
    from repro.pdg.data_deps import build_block_ddg
    from repro.ir.basic_block import BasicBlock
    from repro.obs.metrics import MetricsCollector
    from repro.sched.candidates import Candidate
    from repro.sched.soa import _READY, DenseDependenceState, DenseReadyQueue

    machine = CONFIGS["rs6k"]()
    home = BasicBlock("H", [defining([gpr(1)]), defining([gpr(2)])])
    spec_a, spec_b = home.instrs
    ddg = build_block_ddg(home, machine)
    state = DenseDependenceState(ddg, machine)
    state.begin_block()
    metrics = MetricsCollector()
    queue = DenseReadyQueue(
        state,
        [Candidate(spec_a, "H", useful=False),
         Candidate(spec_b, "H", useful=False)],
        [0, 1],
        None, metrics)
    seq_a, seq_b = 0, 1
    try:
        queue.begin_cycle(0)
        queue.scan_start()
        # both speculative candidates need judgment; promote both
        while (seq := queue.next_evaluation()) >= 0:
            queue.promote(seq)
        assert queue.ready_count == 2
        queue.note_liveness_grown([gpr(1)])    # only spec_a's def
        assert queue._flagged[seq_a] and not queue._flagged[seq_b]
        queue.scan_start()
        flagged = queue.next_evaluation()
        assert flagged == seq_a                # re-judged...
        queue.promote(flagged)
        assert queue.next_evaluation() < 0     # ...and nothing else
        assert queue.status[seq_b] == _READY
        assert metrics.counters["sched.queue.liveness_flags"] == 1
    finally:
        queue.detach()
