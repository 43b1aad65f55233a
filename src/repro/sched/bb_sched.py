"""The basic-block list scheduler (after Warren [W90]).

The paper uses it twice: it *is* the BASE compiler's scheduler, and it runs
as a post-pass over every block after global scheduling because "the global
decisions are not necessarily optimal in a local context" (Section 5.1).

It is a classic cycle-driven list scheduler over the intra-block DDG, using
the same D/CP heuristics as the global scheduler (without the useful/
speculative class, which is meaningless inside one block).  A trailing
branch stays the terminator.

The inner loop runs on the dense substrate: the block's
:class:`~repro.pdg.data_deps.DenseDDG` snapshot (dense index ==
block position), priority keys packed to single ints
(:func:`repro.sched.soa.pack_rows`), unfulfilled-predecessor counts and
earliest starts in flat lists, and readiness kept incrementally -- issuing
an instruction classifies each successor once instead of rescanning every
pending instruction per issue.  Selection is an argmin scan of the (small)
ready list; keys are unique (position is a field), so this equals a
stable sort of the ready list.  ``tests/verify/test_order.py`` holds each
emitted block to the order checker's properties, with its cycles rebuilt
from the emitted order.
"""

from __future__ import annotations

from ..ir.basic_block import BasicBlock
from ..ir.function import Function
from ..ir.opcodes import UnitType
from ..machine.model import MachineModel
from ..pdg.data_deps import build_block_ddg
from .heuristics import local_priorities
from .soa import pack_rows


def _initial_blocked(dense) -> list[int]:
    """Unfulfilled-predecessor count per dense index.

    The readiness authority of the block pass; a separate function so
    fault-injection tests can break it.
    """
    blocked = [0] * dense.n
    for j in dense.succ_idx:
        blocked[j] += 1
    return blocked


def schedule_block(block: BasicBlock, machine: MachineModel) -> int:
    """Reorder ``block`` in place; returns the local schedule length."""
    instrs = block.instrs
    if not instrs:
        return 0
    if len(instrs) == 1:
        return machine.exec_time(instrs[0])

    ddg = build_block_ddg(block, machine)
    dense = ddg.to_dense(machine)
    n = dense.n
    succ_off = dense.succ_off
    succ_idx = dense.succ_idx
    succ_w = dense.succ_w

    # Final tie-break: the *incoming* order.  When this runs as the
    # post-pass after global scheduling, the incoming order encodes the
    # global decisions (e.g. useful-before-speculative), which purely
    # local D/CP values cannot reconstruct; when it runs as the BASE
    # scheduler, the incoming order is original program order anyway.
    priorities = local_priorities(block, ddg, machine)
    rows = []
    for i, ins in enumerate(instrs):
        d, cp = priorities.get(id(ins), (0, 0))
        rows.append((-d, -cp, i))
    pkey = pack_rows(rows)
    unit_of = [ins.unit.index for ins in instrs]
    unit_counts = [machine.unit_count(unit) for unit in UnitType]

    term = block.terminator
    term_idx = dense.index[id(term)] if term is not None else -1

    blocked = _initial_blocked(dense)
    earliest = [0] * n
    ready = [i for i in range(n) if blocked[i] == 0 and i != term_idx]
    #: future cycle -> indices whose dependences are met but whose
    #: earliest start is that cycle (final once blocked hits zero: the
    #: DDG has one edge per pair, so the last decrement and the last
    #: earliest fold happen together)
    wheel: dict[int, list[int]] = {}
    term_waiting = blocked[term_idx] == 0 if term_idx >= 0 else False

    issued: list = []
    left = n
    cycle = 0
    while left:
        due = wheel.pop(cycle, None)
        if due is not None:
            ready.extend(due)
        free = list(unit_counts)
        budget = machine.total_issue_width
        issued_this_cycle = False
        while budget > 0 and ready:
            # argmin over the ready list, skipping full units -- keys are
            # unique, so this is the first of the sorted ready list with
            # a free unit.  The earliest-start gate re-checks timing at
            # each pick: admission (initial / wheel / same-cycle classify)
            # already guarantees it, but it keeps timing authoritative
            # if the readiness counters are broken (fault injection)
            best = -1
            best_key = 0
            for k, i in enumerate(ready):
                if free[unit_of[i]] <= 0 or earliest[i] > cycle:
                    continue
                key = pkey[i]
                if best < 0 or key < best_key:
                    best = k
                    best_key = key
            if best < 0:
                break
            i = ready[best]
            ready[best] = ready[-1]
            ready.pop()
            free[unit_of[i]] -= 1
            budget -= 1
            issued.append(instrs[i])
            left -= 1
            issued_this_cycle = True
            for e in range(succ_off[i], succ_off[i + 1]):
                j = succ_idx[e]
                bound = cycle + succ_w[e]
                if bound > earliest[j]:
                    earliest[j] = bound
                count = blocked[j] - 1
                blocked[j] = count
                if count == 0:
                    if j == term_idx:
                        term_waiting = True
                    elif earliest[j] <= cycle:
                        ready.append(j)
                    else:
                        wheel.setdefault(earliest[j], []).append(j)
            if left == 1 and term_waiting:
                # the terminator is last: admit it to the current or a
                # future cycle according to its earliest start
                if earliest[term_idx] <= cycle:
                    ready.append(term_idx)
                else:
                    wheel.setdefault(earliest[term_idx], []).append(term_idx)
        if not left:
            break
        if not issued_this_cycle and not wheel and all(
                earliest[i] <= cycle for i in ready):
            # nothing issued with every unit free, and no start lies
            # ahead: no later cycle can differ from this one
            raise RuntimeError(
                f"basic-block scheduler stalled in {block.label}")
        cycle += 1

    block.instrs = issued
    return cycle + 1


def schedule_function_blocks(func: Function,
                             machine: MachineModel) -> dict[str, int]:
    """Apply the basic-block scheduler to every block of ``func``.

    Returns the local schedule length per block label.
    """
    return {
        block.label: schedule_block(block, machine)
        for block in func.blocks
    }
