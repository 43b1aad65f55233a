"""The scheduling heuristics of Section 5.2.

Two integer functions are computed *locally* (within each basic block) for
every instruction, by visiting instructions after their data-dependence
successors:

* ``D(I)`` -- the *delay heuristic*: how many delay slots may occur on a
  path from ``I`` to the end of its block::

      D(I) = max(D(J_k) + d(I, J_k))        (0 if no successors)

* ``CP(I)`` -- the *critical path heuristic*: how long completing
  everything that depends on ``I`` (including ``I``) would take with
  unbounded units::

      CP(I) = max(CP(J_k) + d(I, J_k)) + E(I)     (E(I) if no successors)

The decision order between two ready instructions ``I`` and ``J`` competing
for the same unit type (Section 5.2):

1. useful before speculative (``B(I) in U(A)`` wins),
2. larger ``D``,
3. larger ``CP``,
4. original program order.

``priority_key`` encodes all four as a sortable tuple (smaller = better).
"""

from __future__ import annotations

from ..ir.basic_block import BasicBlock
from ..ir.instruction import Instruction
from ..machine.model import MachineModel
from ..pdg.data_deps import DataDependenceGraph


def local_priorities(
    block: BasicBlock,
    ddg: DataDependenceGraph,
    machine: MachineModel,
) -> dict[int, tuple[int, int]]:
    """``id(instruction) -> (D, CP)`` for one block.

    Only dependence edges *within* the block participate, per the paper
    ("computed locally (within a basic block) for every instruction").
    """
    member_ids = {id(ins) for ins in block.instrs}
    result: dict[int, tuple[int, int]] = {}
    succs = ddg.succs
    exec_time = machine.exec_time
    for ins in reversed(block.instrs):
        best_d = 0
        best_cp = 0
        for edge in succs(ins):
            key = id(edge.dst)
            if key not in member_ids:
                continue
            pair = result.get(key)
            if pair is None:
                succ_d = succ_cp = 0
            else:
                succ_d, succ_cp = pair
            delay = edge.delay
            if succ_d + delay > best_d:
                best_d = succ_d + delay
            if succ_cp + delay > best_cp:
                best_cp = succ_cp + delay
        result[id(ins)] = (best_d, best_cp + exec_time(ins))
    return result


def compute_region_priorities(
    blocks: list[BasicBlock],
    ddg: DataDependenceGraph,
    machine: MachineModel,
) -> dict[int, tuple[int, int]]:
    """Local (D, CP) for every instruction of every block of a region."""
    result: dict[int, tuple[int, int]] = {}
    for block in blocks:
        result.update(local_priorities(block, ddg, machine))
    return result


def priority_key(
    ins: Instruction,
    *,
    useful: bool,
    priorities: dict[int, tuple[int, int]],
) -> tuple[int, int, int, int]:
    """Sort key implementing the 7-step decision order (min = schedule
    first).  ``useful`` means the instruction's home block is in ``U(A)``
    (``A`` itself or a block equivalent to it)."""
    d, cp = priorities.get(id(ins), (0, machine_free_exec(ins)))
    return (0 if useful else 1, -d, -cp, ins.uid)


def full_priority_key(cand, priorities: dict[int, tuple[int, int]]):
    """The complete static decision tuple for one scheduling candidate:
    duplication class first (Definition 6 motion is the costliest, it
    ranks after useful and speculative candidates -- the paper's
    conservative order), then :func:`priority_key`.

    Every component is invariant for the duration of a block pass (a
    Section 4.2 rename keeps the uid and the precomputed D/CP), so the
    event-driven ready queue computes this exactly once per candidate at
    collection time instead of per readiness scan.
    """
    return (1 if cand.duplicate_into else 0,
            priority_key(cand.ins, useful=cand.useful,
                         priorities=priorities))


def machine_free_exec(ins: Instruction) -> int:
    """Fallback CP seed when an instruction has no recorded priorities
    (e.g. freshly created by a transformation after priority computation)."""
    return ins.opcode.info.cycles


#: names of :func:`priority_key`'s components, for decision tracing
PRIORITY_STEPS = (
    "useful-before-speculative",
    "delay-heuristic",
    "critical-path",
    "source-order",
)


def deciding_step(winner_key, runner_up_key,
                  steps: tuple[str, ...] = PRIORITY_STEPS) -> str:
    """Which component of the decision order separated two sort keys.

    Keys are the tuples :func:`priority_key` (or a caller-extended form)
    produced for two competing ready instructions; the first position
    where they differ names the step that decided.  Equal keys are a
    ``"tie"`` (the sort was stable, so source order of the ready list
    prevailed).
    """
    for name, a, b in zip(steps, winner_key, runner_up_key):
        if a != b:
            return name
    return "tie"
