"""Cycle-level simulation: lock-step executor and program runners."""

from .executor import LoopExecutor
from .runner import (
    INVALIDATE_OVERHEAD,
    SimOptions,
    make_memory,
    plan_program,
    run_loop,
    run_program,
)
from .stats import LoopResult, LoopRunResult, ProgramResult, merge_stats
from .trace import StaticTrace, TraceExecutor, static_trace

__all__ = [
    "INVALIDATE_OVERHEAD",
    "LoopExecutor",
    "LoopResult",
    "LoopRunResult",
    "ProgramResult",
    "SimOptions",
    "StaticTrace",
    "TraceExecutor",
    "make_memory",
    "merge_stats",
    "plan_program",
    "run_loop",
    "run_program",
    "static_trace",
]
