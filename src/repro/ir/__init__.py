"""Loop-level IR: loops, builder DSL, dependence graphs, stride analysis."""

from .builder import LoopBuilder
from .ddg import DDG, DepKind, Edge, build_ddg
from .loop import Loop
from .memdep import MemDepInfo, OrderEdge, analyze, order_edges, patterns_may_alias
from .stride import (
    StrideClass,
    classify,
    dynamic_stride_stats,
    is_candidate,
    loop_candidates,
    total_memory_ops,
)
from .unroll import stride_group, unroll

__all__ = [
    "DDG",
    "DepKind",
    "Edge",
    "Loop",
    "LoopBuilder",
    "MemDepInfo",
    "OrderEdge",
    "StrideClass",
    "analyze",
    "build_ddg",
    "classify",
    "dynamic_stride_stats",
    "is_candidate",
    "loop_candidates",
    "order_edges",
    "patterns_may_alias",
    "stride_group",
    "total_memory_ops",
    "unroll",
]
