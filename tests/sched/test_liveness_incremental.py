"""Property tests for the bitset live-on-exit tracker (Section 5.3).

The :class:`LiveOnExitTracker` keeps live-on-exit sets as masks over a
:class:`RegTable` and answers "which blocks lie on a forward path from
the motion target to the motion source" from the region PDG's
reachability closure.  On random loop-free regions and random motion
sequences its live-on-exit sets must match a naive from-scratch
recomputation of the paper's rule.
"""

import random

from repro.dataflow.dense import RegTable
from repro.ir import gpr, parse_function
from repro.ir.instruction import Instruction
from repro.ir.opcodes import Opcode
from repro.machine import rs6k
from repro.pdg import RegionPDG
from repro.sched.speculation import LiveOnExitTracker

from ..conftest import dag_function


def region_pdg(func):
    """The PDG of a loop-free function's one region."""
    return RegionPDG(func, rs6k(), list(func.blocks), func.blocks[0].label)


def defining(regs):
    """A minimal real instruction defining ``regs`` (LI picked arbitrarily;
    record_motion only reads its definitions)."""
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
        pdg = region_pdg(dag_function(rng, 2 + rng.randrange(10)))
        graph, labels = pdg.forward, pdg.topo_labels
        base = {label: {gpr(rng.randrange(8))
                        for _ in range(rng.randrange(3))}
                for label in labels}
        table = RegTable()
        fast = LiveOnExitTracker(
            {k: table.mask_of(v) for k, v in base.items()}, table, pdg)
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
                shadow[label].update(ins.reg_defs())

            for label in labels:
                assert fast.live_out_of(label) == shadow[label], (
                    f"trial {trial}: bitset tracker diverged from naive "
                    f"recomputation at {label}")


def test_blocks_motion_follows_dynamic_updates():
    """Section 5.3's x=5/x=3 shape on the tracker directly: after one
    sibling definition moves up, the other is vetoed."""
    func = parse_function("""
function siblings
A:
    BF E,cr0,0x1/lt
T:
    LI r5=5
    RET
E:
    LI r5=3
    RET
""")
    tracker = LiveOnExitTracker({}, RegTable(), region_pdg(func))
    x = gpr(5)
    (first,), (second,) = (func.block(label).instrs[:1]
                           for label in ("T", "E"))
    assert not tracker.blocks_motion(first, "A")
    tracker.record_motion(first, "T", "A")
    assert tracker.blocks_motion(second, "A")
    assert tracker.blocking_regs(second, "A") == (x,)
    assert tracker.is_live(x, "A") and not tracker.is_live(x, "E")
