"""Cluster-aware modulo scheduling: BASE algorithm + L0-aware extension."""

from .coherence import CoherenceScheme, SetState
from .driver import (
    CompiledLoop,
    compile_loop,
    estimate_compute_time,
    unrolling_pays,
)
from .engine import ClusterScheduler
from .exact import ExactScheduler
from .l0policy import L0Policy
from .mii import compute_mii, rec_mii, res_mii
from .mrt import ModuloReservationTable
from .policies import FixedLatencyPolicy, MemoryPolicy
from .schedule import (
    ModuloSchedule,
    PlacedComm,
    PlacedOp,
    PlacedPrefetch,
    SchedulingError,
)
from .sms import Direction, sms_order

__all__ = [
    "ClusterScheduler",
    "CoherenceScheme",
    "CompiledLoop",
    "Direction",
    "ExactScheduler",
    "FixedLatencyPolicy",
    "L0Policy",
    "MemoryPolicy",
    "ModuloReservationTable",
    "ModuloSchedule",
    "PlacedComm",
    "PlacedOp",
    "PlacedPrefetch",
    "SchedulingError",
    "SetState",
    "compile_loop",
    "compute_mii",
    "estimate_compute_time",
    "rec_mii",
    "res_mii",
    "sms_order",
    "unrolling_pays",
]
