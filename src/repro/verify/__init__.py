"""Correctness tooling: static schedule verification + differential fuzzing.

Three cooperating layers (see ISSUE: Ito's CFG/PDG equivalence result makes
schedule legality *statically checkable*; the fuzzer then certifies the
whole pipeline *observationally* across every level and machine):

* :func:`verify_schedule` -- prove one scheduling sweep legal against the
  pre-scheduling PDG (dependences, candidate placement, Section 5.3
  live-on-exit speculation);
* :func:`generate_program` -- seeded, shrinkable mini-C test programs;
* :func:`run_differential` / :func:`fuzz` -- compile at NONE / USEFUL /
  SPECULATIVE on several machine models, compare observations, minimise
  failures.
"""

from .differential import (
    DEFAULT_MACHINES,
    ComboResult,
    DiffResult,
    run_differential,
)
from .fuzz import (
    FuzzFailure,
    FuzzReport,
    QuarantinedProgram,
    degradation_rung,
    derive_seed,
    fuzz,
    reproduce,
)
from .generator import GenProgram, generate_program
from .shrink import shrink_program
from .verifier import (
    ScheduleVerificationError,
    VerifyIssue,
    VerifyReport,
    verify_schedule,
)

__all__ = [
    "DEFAULT_MACHINES",
    "ComboResult",
    "DiffResult",
    "FuzzFailure",
    "FuzzReport",
    "GenProgram",
    "QuarantinedProgram",
    "ScheduleVerificationError",
    "VerifyIssue",
    "VerifyReport",
    "degradation_rung",
    "derive_seed",
    "fuzz",
    "generate_program",
    "reproduce",
    "run_differential",
    "shrink_program",
    "verify_schedule",
]
