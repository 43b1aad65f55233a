"""Compile-as-a-service: job layer, cache, daemon, and the healing shell.

The reusable pieces (see DESIGN.md sections 10 and 13):

* :mod:`repro.service.jobs` -- bounded-queue, sharded, quarantining
  :class:`JobPool`, the one batch path of fuzz and serve: it detects
  dead/hung workers, rebuilds them in place, and trips a circuit breaker
  into inline mode;
* :mod:`repro.service.wal` -- the one write-ahead-log format of fuzz
  checkpoints and the serve journal;
* :mod:`repro.service.cache` -- content-addressed :class:`ArtifactCache`
  (SHA-256 of source x machine x level x config);
* :mod:`repro.service.journal` -- the :class:`Journal`, two record kinds
  on that log, which makes ``kill -9`` recoverable (``--journal`` /
  ``--resume-journal``);
* :mod:`repro.service.daemon` -- the JSONL front door behind
  ``python -m repro serve``, with admission control and protocol
  hardening;
* :mod:`repro.service.scorecard` -- the live operator report.
"""

from .cache import Artifact, ArtifactCache, cache_key, config_fingerprint
from .daemon import AdmissionController, Daemon, ServeConfig
from .jobs import (
    CRASHED,
    ERROR,
    OK,
    QUARANTINED,
    JobPool,
    JobResult,
    JobSpec,
    SupervisorConfig,
)
from .journal import Journal, JournalError, JournalState, load_journal
from .scorecard import format_scorecard

__all__ = [
    "Artifact",
    "ArtifactCache",
    "cache_key",
    "config_fingerprint",
    "AdmissionController",
    "Daemon",
    "ServeConfig",
    "JobPool",
    "JobResult",
    "JobSpec",
    "Journal",
    "JournalError",
    "JournalState",
    "load_journal",
    "SupervisorConfig",
    "OK",
    "ERROR",
    "QUARANTINED",
    "CRASHED",
    "format_scorecard",
]
