"""Differential fuzzing loop: generate, run the matrix, shrink failures.

Program ``i`` of a campaign with master seed ``S`` is always generated
from the derived seed ``S * 1_000_003 + i``, so any failure is
reproducible from ``(S, i)`` alone::

    python -m repro fuzz --n 500 --seed 1991      # the campaign
    python -m repro fuzz --n 500 --seed 1991 --jobs 4   # same, 4 workers
    python -m repro fuzz --reproduce 1991:37      # re-run program 37

The failure report carries both the original and the shrunk source, plus
the entry arguments, so a failing case can be pasted straight into a
regression test.

Campaigns parallelise cleanly because each program is a pure function of
``(S, i)``: the indices become jobs on a
:class:`repro.service.jobs.JobPool` (the service job layer this module's
PR-2/PR-4 pool machinery was generalized into), results are collected as
they finish, and the final report is sorted by index -- a campaign's
failure list is identical for every job count (only ``on_progress``
interleaving differs).

Campaigns are *resilient*: each program runs under an optional
wall-clock ``timeout_s``, and a program that crashes or times out is
retried once (with a short exponential backoff) and then **quarantined**
-- recorded in ``report.quarantined`` while the campaign continues.  The
quarantine record carries the traceback; ``--reproduce SEED:INDEX``
re-runs the program outside the pool, where a crash propagates raw.
Long campaigns can keep a crash-tolerant checkpoint (``checkpoint_path``)
and later resume from it (``resume_path``); a resumed campaign's sorted
result lists are identical to an uninterrupted run's, for any job count.

The checkpoint is a write-ahead log (:mod:`repro.service.wal`, the
format the serve journal uses too): a header record pinning the
campaign parameters (format version 2), then one entry per finished
program, flushed as it completes.  A ``kill -9`` can therefore tear at
most the *final* entry -- the log's damage rule drops a torn tail and
that index simply re-runs -- while a damaged or mismatched header, or
damage anywhere before the tail, is rejected as a corrupt/alien
checkpoint (CLI exit 2).  This module adds only the header schema and
the fold of entries into a report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

from ..resilience.budget import watchdog
from ..resilience.errors import CheckpointError
from .differential import DEFAULT_MACHINES, DiffResult, run_differential
from .generator import GenProgram, generate_program
from .shrink import shrink_program

_SEED_STRIDE = 1_000_003
#: current checkpoint format: JSONL, header line + per-program entries
_CHECKPOINT_VERSION = 2


def derive_seed(master_seed: int, index: int) -> int:
    """The generator seed of program ``index`` in a campaign."""
    return master_seed * _SEED_STRIDE + index


@dataclass
class FuzzFailure:
    """One failing program, before and after minimisation."""

    index: int
    seed: int
    detail: str
    source: str
    args: list
    shrunk_source: str | None = None
    shrunk_args: list | None = None
    shrunk_detail: str | None = None

    def format(self) -> str:
        out = [f"--- failure #{self.index} (seed {self.seed}) ---",
               self.detail,
               f"args: {self.args!r}"]
        if self.shrunk_source is not None:
            out += ["minimised reproducer:", self.shrunk_source,
                    f"args: {self.shrunk_args!r}",
                    self.shrunk_detail or ""]
        else:
            out += ["source:", self.source]
        return "\n".join(out)


@dataclass
class QuarantinedProgram:
    """A program whose *harness* run kept failing (crash or timeout) --
    parked after :data:`repro.service.jobs.MAX_ATTEMPTS` attempts so the
    campaign can continue."""

    index: int
    seed: int
    attempts: int
    #: "crash" | "timeout"
    reason: str
    detail: str

    def format(self) -> str:
        return (f"--- quarantined #{self.index} (seed {self.seed}, "
                f"{self.reason} after {self.attempts} attempts) ---\n"
                f"{self.detail}")


@dataclass
class FuzzReport:
    """Outcome of one fuzzing campaign."""

    master_seed: int
    attempted: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    #: programs parked after repeated crashes/timeouts
    quarantined: list[QuarantinedProgram] = field(default_factory=list)
    #: per-program scheduling summaries (``collect_metrics=True`` only),
    #: sorted by index; see :func:`_program_metrics` for the keys
    metric_summaries: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        quarantine = (f", {len(self.quarantined)} quarantined"
                      if self.quarantined else "")
        return (f"fuzz: {self.attempted} programs, seed "
                f"{self.master_seed}: {status}{quarantine}")


def _program_metrics(index: int, program: GenProgram) -> dict:
    """Compile ``program`` once (rs6k, speculative) with metrics on and
    distill the campaign-level scheduling summary.  Deterministic in
    ``(seed, index)`` like everything else here."""
    from ..compiler import compile_c
    from ..machine.configs import CONFIGS
    from ..obs.metrics import MetricsCollector
    from ..sched.candidates import ScheduleLevel
    from ..xform.pipeline import PipelineConfig

    metrics = MetricsCollector()
    config = PipelineConfig(level=ScheduleLevel.SPECULATIVE, metrics=metrics)
    compile_c(program.source, machine=CONFIGS["rs6k"](),
              level=ScheduleLevel.SPECULATIVE, config=config)
    ready_count, ready_total, ready_max = metrics.series.get(
        "sched.ready", (0, 0, 0))
    return {
        "index": index,
        "seed": program.seed,
        "motions_useful": metrics.counters.get("sched.motions.useful", 0),
        "motions_speculative": metrics.counters.get(
            "sched.motions.speculative", 0),
        "motions_duplicated": metrics.counters.get(
            "sched.motions.duplicated", 0),
        "spec_rejected": metrics.counters.get(
            "sched.speculation.rejected_live", 0),
        "spec_renamed": metrics.counters.get("sched.speculation.renamed", 0),
        "ready_mean": round(ready_total / ready_count, 3) if ready_count
                      else 0.0,
        "ready_max": ready_max,
    }


# -- checkpointing ------------------------------------------------------------

#: campaign parameters the checkpoint header must pin, and the types it
#: must carry them with (``bool`` is checked before ``int`` -- JSON
#: ``true`` is not a valid program count)
_HEADER_SCHEMA: dict[str, type] = {
    "master_seed": int,
    "n": int,
    "machines": list,
    "shrink": bool,
    "collect_metrics": bool,
}


def _load_checkpoint(path: str, header: dict):
    """Read a checkpoint log and check it belongs to the campaign whose
    header is ``header``: the header's version and schema, the campaign
    parameters, and the shape of every entry."""
    from ..service.wal import WALError, read_wal

    try:
        log = read_wal(path, "checkpoint", header=True)
    except WALError as exc:
        raise CheckpointError(str(exc)) from exc
    version = log.header.get("version")
    if version != _CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported version {version!r}")
    for key, want in _HEADER_SCHEMA.items():
        if key not in log.header:
            raise CheckpointError(
                f"checkpoint {path} does not match the v{version} schema: "
                f"missing field {key!r}")
        value = log.header[key]
        if (want is int and isinstance(value, bool)) \
                or not isinstance(value, want):
            raise CheckpointError(
                f"checkpoint {path} does not match the v{version} schema: "
                f"field {key!r} should be {want.__name__}, "
                f"got {type(value).__name__}")
    for key in _HEADER_SCHEMA:
        if log.header[key] != header[key]:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different campaign: "
                f"{key}={log.header[key]!r}, this campaign has "
                f"{header[key]!r}")
    for lineno, entry in log.records:
        index = entry.get("done")
        if not isinstance(index, int) or isinstance(index, bool):
            raise CheckpointError(
                f"checkpoint {path} does not match the v{version} schema: "
                f"line {lineno} is not a program entry")
    return log


def _fold(report: FuzzReport, entry: dict) -> None:
    """Add one checkpoint entry -- a finished program -- to ``report``."""
    report.attempted += 1
    if entry.get("failure") is not None:
        report.failures.append(FuzzFailure(**entry["failure"]))
    if entry.get("quarantined") is not None:
        report.quarantined.append(QuarantinedProgram(**entry["quarantined"]))
    if entry.get("metrics") is not None:
        report.metric_summaries.append(entry["metrics"])


# -- per-program execution ----------------------------------------------------

def _harness(master_seed: int, index: int, machines: tuple[str, ...],
             shrink: bool, collect_metrics: bool,
             ) -> tuple[FuzzFailure | None, dict | None]:
    """The differential harness proper (deadline applied by the caller)."""
    program = generate_program(derive_seed(master_seed, index))
    outcome = run_differential(program, machines=machines)
    summary = (_program_metrics(index, program)
               if collect_metrics else None)
    if outcome.ok:
        return None, summary
    return (_build_failure(index, program, outcome, machines, shrink),
            summary)


def _fuzz_job(payload) -> tuple[FuzzFailure | None, dict | None]:
    """:class:`~repro.service.jobs.JobPool` handler: one campaign index.

    The job layer supplies the per-job deadline, the retry-with-backoff
    and the quarantine bookkeeping.
    """
    master_seed, index, machines, shrink, collect_metrics = payload
    return _harness(master_seed, index, machines, shrink, collect_metrics)


def fuzz(
    n: int,
    seed: int,
    *,
    machines: tuple[str, ...] = DEFAULT_MACHINES,
    shrink: bool = True,
    on_progress: Callable[[int, int], None] | None = None,
    jobs: int = 1,
    collect_metrics: bool = False,
    timeout_s: float | None = None,
    checkpoint_path: str | None = None,
    resume_path: str | None = None,
    interrupt_after: int | None = None,
) -> FuzzReport:
    """Run ``n`` generated programs through the differential matrix.

    ``on_progress(done, failures)`` is called after every program.  The
    programs run as jobs on a :class:`~repro.service.jobs.JobPool` --
    inline at ``jobs=1``, on ``jobs`` worker processes otherwise; because
    every program derives from ``(seed, index)`` alone, the sorted
    failure list is independent of the job count.  ``collect_metrics``
    additionally compiles each program with a metrics collector and
    records a per-program scheduling summary in
    ``report.metric_summaries``.

    ``timeout_s`` bounds each program's harness run; a program that
    crashes or times out on every attempt is parked in
    ``report.quarantined``.  ``checkpoint_path`` keeps an append-only
    JSONL WAL of finished programs (flushed per entry, so at most the
    final line can be torn by a crash); ``resume_path`` seeds the
    campaign from such a file -- torn tail tolerated, that index re-runs
    -- and only runs the remaining indices; the finished report is
    identical to an uninterrupted run's.  ``interrupt_after`` stops the
    campaign after that many programs *this run* (exercises the
    checkpoint/resume path).
    """
    from ..service.jobs import OK, JobPool, JobSpec

    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, got {jobs}")
    report = FuzzReport(master_seed=seed)
    header = {"version": _CHECKPOINT_VERSION, "master_seed": seed, "n": n,
              "machines": list(machines), "shrink": shrink,
              "collect_metrics": collect_metrics}
    done: set[int] = set()
    log = None
    if resume_path is not None:
        log = _load_checkpoint(resume_path, header)
        for _lineno, entry in log.records:
            if entry["done"] not in done:
                done.add(entry["done"])
                _fold(report, entry)
    writer = None
    if checkpoint_path is not None:
        from ..service.wal import WALWriter

        writer = WALWriter(checkpoint_path, header=header, resume=log)
    specs = [JobSpec(id=index,
                     payload=(seed, index, machines, shrink, collect_metrics))
             for index in range(n) if index not in done]
    try:
        with JobPool(_fuzz_job, jobs=jobs, queue_size=max(16, 4 * jobs),
                     timeout_s=timeout_s) as pool:
            for ran, result in enumerate(pool.run(specs), 1):
                index = result.id
                failure = parked = summary = None
                if result.status == OK:
                    failure, summary = result.value
                else:
                    # QUARANTINED, or CRASHED (reason "crash": the pool
                    # could not run the job at all) -- parked either way
                    parked = QuarantinedProgram(
                        index=index, seed=derive_seed(seed, index),
                        attempts=result.attempts, reason=result.reason,
                        detail=result.detail)
                entry = {"done": index,
                         "failure": (asdict(failure)
                                     if failure is not None else None),
                         "quarantined": (asdict(parked)
                                         if parked is not None else None),
                         "metrics": summary}
                _fold(report, entry)
                if writer is not None:
                    writer.append(entry)
                if on_progress is not None:
                    on_progress(report.attempted, len(report.failures))
                if interrupt_after is not None and ran >= interrupt_after:
                    break
            # leaving the with-block terminates still-running workers
    finally:
        if writer is not None:
            writer.close()
    report.failures.sort(key=lambda f: f.index)
    report.quarantined.sort(key=lambda q: q.index)
    report.metric_summaries.sort(key=lambda s: s["index"])
    return report


def _build_failure(
    index: int,
    program: GenProgram,
    outcome: DiffResult,
    machines: tuple[str, ...],
    shrink: bool,
) -> FuzzFailure:
    failure = FuzzFailure(
        index=index,
        seed=program.seed,
        detail=outcome.format_failures(),
        source=program.source,
        args=list(program.entry_args),
    )
    if shrink:
        def still_fails(candidate: GenProgram) -> bool:
            return not run_differential(candidate, machines=machines).ok

        small = shrink_program(program, still_fails)
        failure.shrunk_source = small.source
        failure.shrunk_args = list(small.entry_args)
        failure.shrunk_detail = run_differential(
            small, machines=machines).format_failures()
    return failure


def reproduce(master_seed: int, index: int,
              *, machines: tuple[str, ...] = DEFAULT_MACHINES,
              shrink: bool = True,
              timeout_s: float | None = None,
              ) -> FuzzFailure | GenProgram:
    """Re-run one campaign program, bounded by the same per-program
    ``timeout_s`` a campaign would apply.  Returns the
    :class:`FuzzFailure` (shrunk if requested) when it still fails, or
    the passing :class:`GenProgram` otherwise."""
    with watchdog(timeout_s, f"fuzz:program-{index}"):
        program = generate_program(derive_seed(master_seed, index))
        outcome = run_differential(program, machines=machines)
        if outcome.ok:
            return program
        return _build_failure(index, program, outcome, machines, shrink)


def degradation_rung(program: GenProgram, *, machine_name: str = "rs6k",
                     timeout_s: float | None = None) -> str:
    """Compile ``program`` once through the *resilient* pipeline and
    report the degradation-ladder rung it lands on (worst across the
    unit's functions) -- ``repro fuzz --reproduce`` prints this."""
    from ..compiler import compile_c
    from ..machine.configs import CONFIGS
    from ..resilience.ladder import ResilienceConfig, worst_rung
    from ..sched.candidates import ScheduleLevel
    from ..xform.pipeline import PipelineConfig

    config = PipelineConfig(
        verify=True,
        resilience=ResilienceConfig(program_budget_s=timeout_s))
    unit = compile_c(program.source, machine=CONFIGS[machine_name](),
                     level=ScheduleLevel.SPECULATIVE, config=config)
    return worst_rung(u.report.final_rung for u in unit)
