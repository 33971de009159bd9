"""Machine configurations (paper Table 2) for all evaluated architectures.

Four memory architectures share the same clustered VLIW core:

* ``UNIFIED``   — unified L1, no L0 buffers (the normalisation baseline);
* ``L0``        — unified L1 plus per-cluster flexible compiler-managed
  L0 buffers (the paper's proposal);
* ``MULTIVLIW`` — snoop-coherent distributed L1 (Sánchez & González,
  MICRO-33), the complex comparison point in Figure 7;
* ``INTERLEAVED`` — word-interleaved distributed L1 with attraction
  buffers (Gibert et al., MICRO-35), the simple comparison point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from ..isa.operations import Opcode


class ArchKind(enum.Enum):
    UNIFIED = "unified"
    L0 = "l0"
    MULTIVLIW = "multivliw"
    INTERLEAVED = "interleaved"


def _default_latencies() -> dict[Opcode, int]:
    return {op: op.default_latency for op in Opcode}


class ConfigError(ValueError):
    """A machine configuration no memory model or scheduler can honour."""


#: Cycle counts that must be non-negative: a negative one would let an
#: access complete before it was issued.
_DELAY_FIELDS = (
    "l0_latency",
    "l1_latency",
    "l2_latency",
    "bus_latency",
    "distributed_local_latency",
    "distributed_remote_latency",
    "attraction_latency",
    "interleave_penalty",
    "coherence_penalty",
)

#: Counts that must be at least one: no functional unit of a class
#: divides every ResMII bound by zero, and an empty attraction buffer
#: has nothing to evict into.
_POSITIVE_FIELDS = (
    "int_units_per_cluster",
    "mem_units_per_cluster",
    "fp_units_per_cluster",
    "attraction_entries",
)


@dataclass(frozen=True)
class MachineConfig:
    """All architectural parameters needed by the scheduler and simulator.

    Defaults reproduce the paper's Table 2.  ``l0_entries is None`` means
    an unbounded buffer (the rightmost bars of Figure 5).
    """

    arch: ArchKind = ArchKind.L0

    # Core
    n_clusters: int = 4
    int_units_per_cluster: int = 1
    mem_units_per_cluster: int = 1
    fp_units_per_cluster: int = 1
    max_live_per_cluster: int = 64  # register pressure cap per cluster

    # L0 buffers (only meaningful for ArchKind.L0)
    l0_entries: int | None = 8
    l0_latency: int = 1

    # Unified L1 (also the backing store of the distributed designs)
    l1_latency: int = 6  # 2 request + 2 access + 2 response
    l1_size: int = 8 * 1024
    l1_assoc: int = 2
    l1_block: int = 32
    interleave_penalty: int = 1  # extra cycle for shift/interleave logic

    # L2 — always hits
    l2_latency: int = 10

    # Inter-cluster register buses
    n_buses: int = 4
    bus_latency: int = 2

    # Distributed-L1 parameters (MULTIVLIW / INTERLEAVED).  Remote module
    # access is cheaper than a round trip to the far-away unified L1
    # (modules sit inside the cluster ring), which is what makes the
    # distributed designs competitive in Figure 7.
    distributed_local_latency: int = 2
    distributed_remote_latency: int = 4
    coherence_penalty: int = 1  # extra cycles for an MSI ownership change
    attraction_entries: int = 8
    attraction_latency: int = 1

    # Operation latencies (producer to consumer)
    op_latencies: dict[Opcode, int] = field(default_factory=_default_latencies)

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise ConfigError("need at least one cluster")
        block = self.l1_block
        if block < 1 or block & (block - 1):
            raise ConfigError(f"l1_block must be a positive power of two, got {block}")
        if block % self.n_clusters:
            raise ConfigError("L1 block size must divide evenly into subblocks")
        if self.l1_assoc < 1:
            raise ConfigError(f"l1_assoc must be at least 1, got {self.l1_assoc}")
        way_set = self.l1_assoc * block
        if self.l1_size < 1 or self.l1_size % way_set:
            raise ConfigError(
                f"l1_size must be a positive multiple of l1_assoc * l1_block "
                f"({way_set}), got {self.l1_size}"
            )
        if self.arch is ArchKind.INTERLEAVED and self.interleaved_module_size % way_set:
            raise ConfigError(
                f"the word-interleaved L1 module size "
                f"({self.interleaved_module_size} bytes per cluster) must be a "
                f"multiple of l1_assoc * l1_block ({way_set})"
            )
        if self.l0_entries is not None and self.l0_entries < 1:
            raise ConfigError("l0_entries must be positive or None (unbounded)")
        # Zero buses is a real machine (every value stays in its
        # producer's cluster); a negative count is not.
        if self.n_buses < 0:
            raise ConfigError(f"n_buses must be non-negative, got {self.n_buses}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be at least 1, got {value}")
        for name in _DELAY_FIELDS:
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")

    @property
    def interleaved_module_size(self) -> int:
        """Bytes of L1 in each cluster's module of the word-interleaved
        design: an even share, but never less than one set."""
        return max(self.l1_assoc * self.l1_block, self.l1_size // self.n_clusters)

    @property
    def subblock_bytes(self) -> int:
        """L0 line size: an L1 block split across the clusters (section 3)."""
        return self.l1_block // self.n_clusters

    def latency_of(self, opcode: Opcode) -> int:
        return self.op_latencies[opcode]

    def with_l0_entries(self, entries: int | None) -> "MachineConfig":
        return replace(self, l0_entries=entries)


def unified_config(**overrides: object) -> MachineConfig:
    """The baseline: unified L1, no L0 buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.UNIFIED, l0_entries=None, **overrides
    )


def l0_config(entries: int | None = 8, **overrides: object) -> MachineConfig:
    """The proposed architecture with ``entries``-entry L0 buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.L0, l0_entries=entries, **overrides
    )


def multivliw_config(**overrides: object) -> MachineConfig:
    """Distributed snoop-coherent L1 (MultiVLIW)."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.MULTIVLIW, l0_entries=None, **overrides
    )


def interleaved_config(**overrides: object) -> MachineConfig:
    """Word-interleaved distributed L1 with attraction buffers."""
    return MachineConfig(  # type: ignore[arg-type]
        arch=ArchKind.INTERLEAVED, l0_entries=None, **overrides
    )
