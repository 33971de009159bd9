"""Cycle-level simulation: lock-step executor and program runners."""

from .executor import LoopExecutor
from .interloop import (
    flush_needed,
    flush_needed_since,
    invocation_flush_needed,
    loops_may_conflict,
)
from .runner import (
    INVALIDATE_OVERHEAD,
    LoopPlan,
    SimOptions,
    SimulatedLoop,
    make_memory,
    plan_program,
    run_loop,
    run_program,
    simulate_plan,
)
from .stats import LoopResult, LoopRunResult, ProgramResult, merge_stats
from .trace import StaticTrace, TraceExecutor, static_trace

__all__ = [
    "INVALIDATE_OVERHEAD",
    "LoopExecutor",
    "LoopPlan",
    "LoopResult",
    "LoopRunResult",
    "ProgramResult",
    "SimOptions",
    "SimulatedLoop",
    "StaticTrace",
    "TraceExecutor",
    "flush_needed",
    "flush_needed_since",
    "invocation_flush_needed",
    "loops_may_conflict",
    "make_memory",
    "merge_stats",
    "plan_program",
    "run_loop",
    "run_program",
    "simulate_plan",
    "static_trace",
]
