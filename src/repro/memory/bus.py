"""Per-cluster buses between the clusters and the centralized L1.

Each cluster owns one request path to L1 that accepts one transaction
per cycle (demand loads, stores, L0 miss requests, prefetches).  The
paper's SEQ_ACCESS rule exists precisely so an L0 miss can use the
cycle-after slot without arbitration hardware; the simulator keeps a
real occupancy set so any over-subscription (e.g. the jpegdec loop where
every memory slot is busy and prefetches pile up) turns into delayed
grants and, eventually, processor stalls.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class BusStats:
    grants: int = 0
    delayed_grants: int = 0
    total_delay: int = 0


class ClusterBus:
    """One cluster's L1 bus; one transaction per cycle."""

    #: Cycles of history kept before pruning (must exceed any latency).
    PRUNE_WINDOW = 256

    def __init__(self, stats: BusStats | None = None) -> None:
        self._busy: set[int] = set()
        #: The first request cycle that prunes: two windows past the last
        #: prune (or past cycle 0).
        self._prune_at = 2 * self.PRUNE_WINDOW
        self.stats = stats if stats is not None else BusStats()

    def is_free(self, cycle: int) -> bool:
        return cycle not in self._busy

    def grant(self, cycle: int) -> int:
        """Reserve the first free cycle at or after ``cycle``."""
        busy = self._busy
        if cycle not in busy:  # uncontended fast path
            busy.add(cycle)
            self.stats.grants += 1
            if cycle >= self._prune_at:
                self._prune(cycle)
            return cycle
        grant = cycle + 1
        while grant in busy:
            grant += 1
        busy.add(grant)
        stats = self.stats
        stats.grants += 1
        stats.delayed_grants += 1
        stats.total_delay += grant - cycle
        if cycle >= self._prune_at:
            self._prune(cycle)
        return grant

    def _prune(self, cycle: int) -> None:
        """Forget slots more than a window before ``cycle``."""
        horizon = cycle - self.PRUNE_WINDOW
        self._busy = {c for c in self._busy if c >= horizon}
        self._prune_at = cycle + 2 * self.PRUNE_WINDOW
