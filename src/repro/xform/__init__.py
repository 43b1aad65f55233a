"""Code transformations: unrolling, rotation, and the full flow."""

from .ctr import CtrReport, convert_counted_loops
from .pipeline import PipelineConfig, PipelineReport, optimize
from .rotate import RotateReport, rotatable, rotate_loop
from .simplify import SimplifyReport, simplify_cfg
from .strength import StrengthReductionReport, strength_reduce
from .unroll import (
    TransformError,
    UnrollReport,
    loop_blocks_in_layout,
    unroll_loop,
    unrollable_inner_loops,
)

__all__ = [
    "CtrReport",
    "PipelineConfig",
    "convert_counted_loops",
    "PipelineReport",
    "RotateReport",
    "SimplifyReport",
    "StrengthReductionReport",
    "TransformError",
    "simplify_cfg",
    "strength_reduce",
    "UnrollReport",
    "loop_blocks_in_layout",
    "optimize",
    "rotatable",
    "rotate_loop",
    "unroll_loop",
    "unrollable_inner_loops",
]
