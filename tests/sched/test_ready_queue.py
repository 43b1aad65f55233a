"""Unit tests for the event-driven dense ready queue (the SoA core).

The order checker (``tests/verify/test_order.py``) holds whole sweeps
to the Section 5.2 order; these tests pin the *mechanisms* in isolation: each
candidate is pushed to its heap exactly once, the timing wheel holds
activations until their earliest-start cycle, the dependence-state
listener fires on the last predecessor only, graph mutations trigger
rebuilds, and selection honours unit capacity in key order.
"""

from repro.ir import parse_function
from repro.machine import rs6k
from repro.obs.metrics import MetricsCollector
from repro.pdg import build_block_ddg
from repro.sched.candidates import Candidate
from repro.sched.heuristics import compute_region_priorities, priority_key
from repro.sched.soa import (
    _PARKED,
    _READY,
    _WAITING,
    DenseDependenceState,
    DenseReadyQueue,
    pack_rows,
)


def make_queue(metrics=None):
    """Queue over the standard 4-instruction block, terminator excluded."""
    func = parse_function("""
function f
a:
    L  r1=x(r10,0)
    AI r2=r1,1
    C  cr0=r2,r3
    BT a,cr0,0x1/lt
""")
    block = func.block("a")
    machine = rs6k()
    ddg = build_block_ddg(block, machine)
    state = DenseDependenceState(ddg, machine)
    state.begin_block()
    priorities = compute_region_priorities([block], ddg, machine)
    cands = [Candidate(ins, "a", useful=True) for ins in block.instrs]
    pkeys = pack_rows([priority_key(c.ins, useful=True, priorities=priorities)
                       for c in cands])
    queue = DenseReadyQueue(
        state,
        cands,
        pkeys,
        block.terminator,
        metrics if metrics is not None else MetricsCollector(),
    )
    return block, state, queue


def seq_of(queue, ins):
    """The collection sequence number of ``ins`` in ``queue``."""
    return next(s for s, c in enumerate(queue.cands) if c.ins is ins)


def drain(queue):
    """Judge everything judgeable at the current scan point."""
    queue.scan_start()
    while (seq := queue.next_evaluation()) >= 0:
        queue.promote(seq)


def test_terminator_is_held_out_and_foreign_branches_dropped():
    block, state, queue = make_queue()
    term_seq = queue.term_seq
    assert term_seq >= 0 and queue.cands[term_seq].ins is block.terminator
    assert term_seq not in queue._active
    assert len(queue._active) == 3           # L, AI, C


def test_only_roots_become_ready_and_exactly_once():
    metrics = MetricsCollector()
    block, state, queue = make_queue(metrics)
    queue.begin_cycle(0)
    drain(queue)
    assert queue.ready_count == 1            # the load is the only root
    # further scan points push nothing new
    drain(queue)
    drain(queue)
    assert metrics.counters["sched.queue.ready_pushes"] == 1


def test_listener_fires_on_last_predecessor_and_wheel_delays_entry():
    metrics = MetricsCollector()
    block, state, queue = make_queue(metrics)
    load, ai, cmp_i, bt = block.instrs
    queue.begin_cycle(0)
    drain(queue)
    seq_ai = seq_of(queue, ai)
    assert queue.status[seq_ai] == _WAITING
    # issuing the load fulfils AI's last predecessor mid-cycle; its
    # earliest start (cycle 2: exec 1 + delay 1) lands it on the wheel
    state.mark_issued(load, 0)
    queue.pop_issue(seq_of(queue, load))
    assert queue.status[seq_ai] != _WAITING
    assert queue.status[seq_ai] != _READY
    assert metrics.counters["sched.queue.wheel_holds"] == 1
    queue.begin_cycle(1)
    drain(queue)
    assert queue.ready_count == 0            # still held
    queue.begin_cycle(2)
    drain(queue)
    assert queue.ready_count == 1            # matured exactly on time
    assert queue.status[seq_ai] == _READY


def test_select_respects_unit_capacity():
    from repro.ir.opcodes import UnitType

    block, state, queue = make_queue()
    load, ai, cmp_i, bt = block.instrs
    queue.begin_cycle(0)
    drain(queue)
    free = [1] * len(list(UnitType))
    chosen = queue.select(free)
    assert chosen >= 0 and queue.cands[chosen].ins is load
    free[queue.units[chosen]] = 0            # unit exhausted
    assert queue.select(free) < 0


def test_parked_entry_leaves_heap_until_reflagged():
    block, state, queue = make_queue()
    load, ai, cmp_i, bt = block.instrs
    queue.begin_cycle(0)
    drain(queue)
    seq = seq_of(queue, load)
    queue.park(seq)
    assert queue.ready_count == 0
    assert queue.status[seq] == _PARKED
    from repro.ir.opcodes import UnitType
    assert queue.select([1] * len(list(UnitType))) < 0


def test_version_bump_triggers_rebuild_at_scan_start():
    metrics = MetricsCollector()
    block, state, queue = make_queue(metrics)
    load, ai, cmp_i, bt = block.instrs
    queue.begin_cycle(0)
    drain(queue)
    before = metrics.counters.get("sched.queue.rebuilds", 0)
    # an honest mutation bumps the version; the next scan point rebuilds
    from repro.pdg.data_deps import DepKind
    state.ddg.add_edge(load, cmp_i, DepKind.ANTI, 0)
    drain(queue)
    assert metrics.counters["sched.queue.rebuilds"] == before + 1
    # the load is still the sole root and still (exactly once more) ready
    assert queue.ready_count == 1


def test_detach_unsubscribes_the_listener():
    block, state, queue = make_queue()
    load = block.instrs[0]
    queue.detach()
    assert state._listener is None
    state.mark_issued(load, 0)               # must not touch the queue
    assert queue.status[seq_of(queue, block.instrs[1])] == _WAITING