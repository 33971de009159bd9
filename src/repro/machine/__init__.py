"""Machine model: Table-2 configurations and issue resources."""

from .config import (
    ArchKind,
    ConfigError,
    MachineConfig,
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from .resources import BUS, BusResource, ClusterResource, ResourceModel

__all__ = [
    "ArchKind",
    "BUS",
    "BusResource",
    "ClusterResource",
    "ConfigError",
    "MachineConfig",
    "ResourceModel",
    "interleaved_config",
    "l0_config",
    "multivliw_config",
    "unified_config",
]
