"""Profile-guided speculation (Section 1's branch-probability hook).

"[G]lobal scheduling is capable of taking advantage of the branch
probabilities, whenever available (e.g. computed by profiling)."  The
paper does not use profiles in its prototype; this module supplies the
hook as an extension:

* :class:`BranchProfile` counts block executions over one or more
  functional-executor runs (the classic compile/run/recompile loop);
* :func:`make_profile_priority_fn` builds a Section 5.2-compatible
  priority function in which *speculative* candidates are additionally
  ranked by how often their home block actually executes -- a gamble on a
  90%-taken branch beats one on a 10%-taken branch with the same delay
  heuristic.

Useful candidates are unaffected (they execute unconditionally relative to
the target block, probability 1 by construction), so with a uniform
profile the ordering degenerates to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.function import Function
from ..sim.executor import ExecutionResult

#: number of probability buckets; coarse so D/CP still break near-ties
_BUCKETS = 8


@dataclass
class BranchProfile:
    """Execution counts per basic block, from profiling runs."""

    block_counts: dict[str, int] = field(default_factory=dict)
    runs: int = 0

    @classmethod
    def from_executions(cls, executions: list[ExecutionResult]
                        ) -> "BranchProfile":
        profile = cls()
        for execution in executions:
            profile.record(execution)
        return profile

    def record(self, execution: ExecutionResult) -> None:
        """Fold one run's block trace into the counts."""
        self.runs += 1
        for label in execution.block_trace:
            self.block_counts[label] = self.block_counts.get(label, 0) + 1

    def count(self, label: str) -> int:
        return self.block_counts.get(label, 0)

    def relative_frequency(self, label: str, reference: str) -> float:
        """``count(label) / count(reference)``, clamped to [0, 1]."""
        ref = self.count(reference)
        if ref <= 0:
            return 0.0
        return min(1.0, self.count(label) / ref)

    def hottest(self) -> str | None:
        if not self.block_counts:
            return None
        return max(self.block_counts, key=self.block_counts.get)

    def __bool__(self) -> bool:
        return bool(self.block_counts)


def select_main_trace(profile: BranchProfile, func: Function,
                      header: str, members: set[str]) -> list[str]:
    """The trace-scheduling view of a region: the single hottest path.

    Starting at the region header, repeatedly follow the most-executed
    successor inside the region until a block repeats or the region is
    left.  Used by the trace-scheduling comparison (the paper's
    introduction discusses [F81] as the main alternative: it "assumes the
    existence of a main trace in the program (which is likely in
    scientific computations, but may not be true in symbolic or Unix-type
    programs)").
    """
    trace: list[str] = []
    seen: set[str] = set()
    label = header
    while label in members and label not in seen:
        trace.append(label)
        seen.add(label)
        block = func.block(label)
        successors = [s.label for s in func.successors(block)
                      if s.label in members]
        if not successors:
            break
        label = max(successors, key=profile.count)
    return trace


def make_profile_priority_fn(profile: BranchProfile, func: Function):
    """A drop-in ``priority_fn`` for :func:`repro.sched.global_schedule`.

    Decision order: useful-before-speculative (unchanged), then -- for
    speculative candidates only -- the home block's execution frequency
    bucket, then the paper's D, CP, and original order.  Frequencies are
    normalised against the hottest block so loop nests keep sensible
    relative weights.

    Homes and counts are snapshotted here, so a candidate's key stays
    the same for as long as the profile does; the scheduler takes each
    key once per block pass.
    """
    home_of = {id(ins): block.label
               for block in func.blocks for ins in block.instrs}
    hottest = profile.hottest()
    peak = profile.count(hottest) if hottest is not None else 0

    def bucket_of(ins) -> int:
        if peak <= 0:
            return _BUCKETS
        label = home_of.get(id(ins))
        if label is None:
            return 0
        return round(_BUCKETS * profile.count(label) / peak)

    def priority_fn(ins, *, useful, priorities):
        d, cp = priorities.get(id(ins), (0, 1))
        bucket = _BUCKETS if useful else bucket_of(ins)
        return (0 if useful else 1, -bucket, -d, -cp, ins.uid)

    return priority_fn
