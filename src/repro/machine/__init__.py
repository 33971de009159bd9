"""Machine model: the Table-2 configurations of every evaluated architecture.

Issue-slot bookkeeping (per-cluster FU rows and the shared bus pool)
lives in the scheduler's :class:`~repro.scheduler.ModuloReservationTable`.
"""

from .config import (
    ArchKind,
    ConfigError,
    MachineConfig,
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)

__all__ = [
    "ArchKind",
    "ConfigError",
    "MachineConfig",
    "interleaved_config",
    "l0_config",
    "multivliw_config",
    "unified_config",
]
