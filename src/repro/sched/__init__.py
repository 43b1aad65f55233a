"""The scheduling framework (Section 5): global + basic-block schedulers."""

from .bb_sched import schedule_block, schedule_function_blocks
from .candidates import Candidate, ScheduleLevel, candidate_blocks, collect_candidates
from .driver import GlobalScheduleReport, default_live_at_exit, global_schedule
from .global_sched import Motion, RegionScheduleReport, schedule_region
from .heuristics import local_priorities, priority_key
from .profiling import BranchProfile, make_profile_priority_fn, select_main_trace
from .soa import DenseDependenceState, DenseReadyQueue, pack_rows
from .regions import (
    MAX_REGION_BLOCKS,
    MAX_REGION_INSTRS,
    RegionSpec,
    build_region_pdg,
    find_regions,
)
from .speculation import LiveOnExitTracker, try_rename_for_motion

__all__ = [
    "BranchProfile",
    "Candidate",
    "make_profile_priority_fn",
    "DenseDependenceState",
    "DenseReadyQueue",
    "pack_rows",
    "GlobalScheduleReport",
    "LiveOnExitTracker",
    "MAX_REGION_BLOCKS",
    "MAX_REGION_INSTRS",
    "Motion",
    "RegionScheduleReport",
    "RegionSpec",
    "ScheduleLevel",
    "build_region_pdg",
    "candidate_blocks",
    "collect_candidates",
    "default_live_at_exit",
    "find_regions",
    "global_schedule",
    "local_priorities",
    "priority_key",
    "schedule_block",
    "schedule_function_blocks",
    "schedule_region",
    "select_main_trace",
    "try_rename_for_motion",
]
