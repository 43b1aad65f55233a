"""Dataflow analyses: liveness (live-on-exit)."""

from .cache import AnalysisCache
from .engine import solve_backward
from .liveness import LivenessInfo, block_use_def, compute_liveness

__all__ = [
    "AnalysisCache",
    "LivenessInfo",
    "block_use_def",
    "compute_liveness",
    "solve_backward",
]
