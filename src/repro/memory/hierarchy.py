"""The unified memory hierarchy: centralized L1 (+L2) with optional
per-cluster L0 buffers — the paper's baseline and proposed architectures.

All memory systems in this package expose the same interface the
simulator drives:

* ``load(cluster, addr, width, hints, cycle) -> ready_cycle``
* ``store(cluster, addr, width, hints, cycle, is_primary=True)``
* ``prefetch(cluster, addr, width, cycle)`` (explicit software prefetch)
* ``invalidate_l0(cycle)`` (inter-loop flush)

Both executors make one of these calls per memory event.  Each model
also binds :func:`load_run` and :func:`store_run`, defined once here and
called by nothing in the program: the traced benchmark
(``perfbench/layers.py``) wraps them by name.

Each simulated loop gets a fresh instance from ``sim.runner.make_memory``.

Coherence auditing: a load served from an L0 entry older than the
newest store to the bytes it reads increments ``coherence_violations``.
Store stamps live in one row per L1 block — the newest stamp of each
byte, then the newest stamp in the whole block — so an L0 hit reads one
row and scans its bytes only when the block holds a store newer than
the entry (see the architecture doc's "Coherence oracle").  The
compiler's coherence schemes (NL0/1C/PSR + inter-loop invalidation)
must keep the count at zero — tests assert exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.hints import AccessHint, HintBundle, MapHint, PrefetchHint
from ..machine.config import ArchKind, MachineConfig
from .bus import BusStats, ClusterBus
from .l0buffer import L0Buffer, L0Entry, L0Stats, MapKind
from .l1cache import CacheStats, SetAssocCache

# Hint values tested on every access, bound once at module level.
_NO_ACCESS = AccessHint.NO_ACCESS
_SEQ_ACCESS = AccessHint.SEQ_ACCESS
_PAR_ACCESS = AccessHint.PAR_ACCESS
_INTERLEAVED = MapHint.INTERLEAVED
_NO_PREFETCH = PrefetchHint.NONE

#: Stamp-row value of a byte no store has written: older than any
#: cycle, since the simulation clock starts at zero.
_UNSTORED = -1


def load_run(self, clusters, addrs, widths, hints_list, cycles) -> list[int]:
    """``self.load`` element-wise, in order; returns the ready cycles.

    Kept for the traced benchmark only: ``perfbench/layers.py`` wraps
    every memory model's ``load_run``/``store_run`` by name, and no
    program code calls either.
    """
    return [
        self.load(clusters[k], addrs[k], widths[k], hints_list[k], cycles[k])
        for k in range(len(addrs))
    ]


def store_run(self, clusters, addrs, widths, hints_list, cycles, primaries) -> None:
    """``self.store`` element-wise, in order (see :func:`load_run`)."""
    for k in range(len(addrs)):
        self.store(
            clusters[k],
            addrs[k],
            widths[k],
            hints_list[k],
            cycles[k],
            is_primary=primaries[k],
        )


@dataclass
class MemoryStats:
    """Aggregated statistics across one simulation."""

    l0: L0Stats = field(default_factory=L0Stats)
    l1: CacheStats = field(default_factory=CacheStats)
    bus: BusStats = field(default_factory=BusStats)
    coherence_violations: int = 0
    seq_bus_conflicts: int = 0
    prefetch_requests: int = 0
    explicit_prefetches: int = 0
    dropped_prefetches: int = 0


class UnifiedMemory:
    """Unified L1 data cache with optional flexible L0 buffers."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.stats = MemoryStats()
        self.l1 = SetAssocCache(
            size=config.l1_size,
            assoc=config.l1_assoc,
            block=config.l1_block,
            stats=self.stats.l1,
        )
        self.l0: list[L0Buffer] | None = None
        if config.arch is ArchKind.L0:
            self.l0 = [
                L0Buffer(
                    entries=config.l0_entries,
                    block_bytes=config.l1_block,
                    n_clusters=config.n_clusters,
                    stats=self.stats.l0,
                )
                for _ in range(config.n_clusters)
            ]
        self.buses = [
            ClusterBus(stats=self.stats.bus) for _ in range(config.n_clusters)
        ]
        #: Coherence oracle: L1 block address -> stamp row, the newest
        #: store cycle of each byte of the block (``_UNSTORED`` if none)
        #: followed by the newest stamp written anywhere in the block.
        self._stamps: dict[int, list[int]] = {}
        self._block_bytes = config.l1_block
        # Bound copies of the hot-path latencies (config attribute reads
        # add up over hundreds of thousands of accesses).
        self._l0_latency = config.l0_latency
        self._l1_latency = config.l1_latency
        self._l2_latency = config.l2_latency
        self._interleave_penalty = config.interleave_penalty

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _l1_load_latency(self, addr: int) -> int:
        if self.l1.load(addr):
            return self._l1_latency
        return self._l1_latency + self._l2_latency

    def _record_store(self, addr: int, width: int, cycle: int) -> None:
        """Stamp ``[addr, addr + width)`` block by block.

        The general path, for the rare store that crosses an L1 block
        boundary; ``store`` stamps the single-block case inline.
        """
        block_bytes = self._block_bytes
        end = addr + width
        while addr < end:
            offset = addr % block_bytes
            block = addr - offset
            stop = min(end, block + block_bytes)
            row = self._stamps.get(block)
            if row is None:
                row = self._stamps[block] = [_UNSTORED] * (block_bytes + 1)
            row[offset : stop - block] = [cycle] * (stop - addr)
            if cycle > row[-1]:
                row[-1] = cycle
            addr = stop

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def load(
        self, cluster: int, addr: int, width: int, hints: HintBundle, cycle: int
    ) -> int:
        access = hints.access
        if access is _NO_ACCESS or self.l0 is None:
            grant = self.buses[cluster].grant(cycle)
            if self.l1.load(addr):
                return grant + self._l1_latency
            return grant + self._l1_latency + self._l2_latency

        buffer = self.l0[cluster]
        entry = buffer.access(addr, width, cycle)
        if entry is not None:
            # Coherence audit.  A hit never crosses its entry's block, and
            # the row's last slot bounds every byte stamp in it, so the
            # byte scan runs only when some store in the block is newer.
            block = entry.block_addr
            row = self._stamps.get(block)
            if row is not None and row[-1] > entry.update_time:
                offset = addr - block
                if max(row[offset : offset + width]) > entry.update_time:
                    self.stats.coherence_violations += 1
            ready = entry.ready
            issue = cycle + self._l0_latency
            if issue > ready:
                ready = issue
            if access is _PAR_ACCESS:
                # Parallel L1 probe: real traffic, reply discarded.
                self.buses[cluster].grant(cycle)
                self.l1.touch(addr)
            if hints.prefetch is not _NO_PREFETCH:
                self._hint_prefetch(cluster, entry, addr, width, hints, cycle)
            return ready

        # L0 miss: forward to L1 — next cycle for SEQ (the compiler
        # guaranteed that slot free), same cycle for PAR.
        bus = self.buses[cluster]
        if access is _SEQ_ACCESS:
            request = cycle + 1
            if not bus.is_free(request):
                self.stats.seq_bus_conflicts += 1
        else:
            request = cycle
        grant = bus.grant(request)
        latency = self._l1_latency
        if not self.l1.load(addr):
            latency += self._l2_latency
        if hints.mapping is _INTERLEAVED:
            arrival = grant + latency + self._interleave_penalty
            filled = self._distribute_block(cluster, addr, width, arrival, False)
        else:
            arrival = grant + latency
            filled = buffer.fill_linear(addr, arrival)
            filled.touched = True
        if hints.prefetch is not _NO_PREFETCH:
            self._hint_prefetch(cluster, filled, addr, width, hints, cycle)
        return arrival

    def _distribute_block(
        self, cluster: int, addr: int, width: int, arrival: int, from_prefetch: bool
    ) -> L0Entry:
        """Interleaved fill: split the whole L1 block across all clusters.

        The subblock holding the accessed element lands in the accessing
        cluster; consecutive residues go to consecutive clusters.
        Returns the local entry.
        """
        assert self.l0 is not None
        n = self.config.n_clusters
        block = addr - (addr % self.config.l1_block)
        element = (addr - block) // width
        local_residue = element % n
        local_entry: L0Entry | None = None
        for target in range(n):
            residue = (local_residue + (target - cluster)) % n
            entry = self.l0[target].fill_interleaved(
                block, residue, width, arrival, from_prefetch=from_prefetch
            )
            if target == cluster:
                local_entry = entry
                if not from_prefetch:
                    entry.touched = True
        assert local_entry is not None
        return local_entry

    # ------------------------------------------------------------------
    # Prefetch (hint-triggered and explicit)
    # ------------------------------------------------------------------

    def _hint_prefetch(
        self,
        cluster: int,
        entry: L0Entry,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
    ) -> None:
        """The automatic prefetch of a load whose prefetch hint is set."""
        assert self.l0 is not None
        buffer = self.l0[cluster]
        forward = hints.prefetch is PrefetchHint.POSITIVE
        if not buffer.is_edge_element(entry, addr, width, last=forward):
            return
        distance = hints.prefetch_distance
        step = distance if forward else -distance
        if entry.kind is MapKind.LINEAR:
            sub = buffer.subblock_bytes
            target = entry.block_addr + entry.position * sub + step * sub
            if target < 0 or buffer.find(target, 1) is not None:
                return
            # Prefetches are opportunistic: if the bus slot after the
            # access is taken by demand traffic, the prefetch is dropped
            # (no queueing hardware between the L0 and the bus).
            if not self.buses[cluster].is_free(cycle + 1):
                self.stats.dropped_prefetches += 1
                return
            self.stats.prefetch_requests += 1
            grant = self.buses[cluster].grant(cycle + 1)
            arrival = grant + self._l1_load_latency(target)
            buffer.fill_linear(target, arrival, from_prefetch=True)
            return
        target_block = entry.block_addr + step * self.config.l1_block
        if target_block < 0:
            return
        if (
            buffer.find_exact(
                MapKind.INTERLEAVED, target_block, entry.position, entry.granularity
            )
            is not None
        ):
            return
        if not self.buses[cluster].is_free(cycle + 1):
            self.stats.dropped_prefetches += 1
            return
        self.stats.prefetch_requests += 1
        grant = self.buses[cluster].grant(cycle + 1)
        arrival = grant + self._l1_load_latency(target_block) + self._interleave_penalty
        n = self.config.n_clusters
        for target in range(n):
            residue = (entry.position + (target - cluster)) % n
            self.l0[target].fill_interleaved(
                target_block,
                residue,
                entry.granularity,
                arrival,
                from_prefetch=True,
            )

    def prefetch(self, cluster: int, addr: int, width: int, cycle: int) -> None:
        """Explicit software prefetch: linear mapping into the local L0."""
        if self.l0 is None:
            return
        buffer = self.l0[cluster]
        if buffer.find(addr, width) is not None:
            return
        if not self.buses[cluster].is_free(cycle):
            self.stats.dropped_prefetches += 1
            return
        self.stats.explicit_prefetches += 1
        grant = self.buses[cluster].grant(cycle)
        arrival = grant + self._l1_load_latency(addr)
        buffer.fill_linear(addr, arrival, from_prefetch=True)

    # ------------------------------------------------------------------
    # Stores & invalidation
    # ------------------------------------------------------------------

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
        is_primary: bool = True,
    ) -> None:
        l0 = self.l0
        if l0 is not None and not is_primary:
            # PSR replica: invalidate local copies only; no L1 traffic.
            l0[cluster].invalidate_matching(addr, width)
            return
        block_bytes = self._block_bytes
        offset = addr % block_bytes
        if offset + width <= block_bytes:
            # Inside one block (every aligned store): one row slice.
            block = addr - offset
            row = self._stamps.get(block)
            if row is None:
                row = self._stamps[block] = [_UNSTORED] * (block_bytes + 1)
            row[offset : offset + width] = [cycle] * width
            if cycle > row[-1]:
                row[-1] = cycle
        else:
            self._record_store(addr, width, cycle)
        if l0 is not None and hints.access is _PAR_ACCESS:
            l0[cluster].store_update(addr, width, cycle)
        self.buses[cluster].grant(cycle)
        self.l1.store(addr)

    def invalidate_l0(self, cycle: int) -> None:
        if self.l0 is None:
            return
        for buffer in self.l0:
            buffer.invalidate_all()

    # perfbench-only entry points (see load_run above).
    load_run = load_run
    store_run = store_run
