"""Set-associative cache model (the unified L1, and the per-cluster
modules of the distributed designs).

Write policy follows the paper: write-through, no write-allocate.
The model tracks tags and LRU order only — data values are never
simulated; timing and hit/miss behaviour are what the experiments need.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field


@dataclass
class CacheStats:
    load_hits: int = 0
    load_misses: int = 0
    store_hits: int = 0
    store_misses: int = 0

    @property
    def loads(self) -> int:
        return self.load_hits + self.load_misses

    @property
    def load_hit_rate(self) -> float:
        return self.load_hits / self.loads if self.loads else 1.0


@dataclass
class SetAssocCache:
    """Tag array with true-LRU replacement."""

    size: int
    assoc: int
    block: int
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.size % (self.assoc * self.block):
            raise ValueError("cache size must be a multiple of assoc * block")
        self.n_sets = self.size // (self.assoc * self.block)
        # set index -> OrderedDict[tag, None]; last item = most recent
        self._sets: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]

    def _locate(self, addr: int) -> tuple[int, int]:
        block_addr = addr // self.block
        return block_addr % self.n_sets, block_addr // self.n_sets

    def probe(self, addr: int) -> bool:
        """Tag check without side effects."""
        block_addr = addr // self.block
        return block_addr // self.n_sets in self._sets[block_addr % self.n_sets]

    def touch(self, addr: int) -> None:
        """A load whose reply is discarded (the L1 half of a parallel
        L0/L1 probe that hit in L0).  Same as ``load`` when the line is
        resident — LRU refresh and a load hit — and nothing at all when
        it is not: no miss is counted and nothing is allocated."""
        block_addr = addr // self.block
        n_sets = self.n_sets
        entries = self._sets[block_addr % n_sets]
        tag = block_addr // n_sets
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.load_hits += 1

    def load(self, addr: int) -> bool:
        """Look up; allocate on miss (LRU eviction).  Returns hit?"""
        block_addr = addr // self.block
        n_sets = self.n_sets
        entries = self._sets[block_addr % n_sets]
        tag = block_addr // n_sets
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.load_hits += 1
            return True
        self.stats.load_misses += 1
        if len(entries) >= self.assoc:
            entries.popitem(last=False)
        entries[tag] = None
        return False

    def store(self, addr: int) -> bool:
        """Write-through, no write-allocate.  Returns hit?"""
        block_addr = addr // self.block
        n_sets = self.n_sets
        entries = self._sets[block_addr % n_sets]
        tag = block_addr // n_sets
        if tag in entries:
            entries.move_to_end(tag)
            self.stats.store_hits += 1
            return True
        self.stats.store_misses += 1
        return False

    def invalidate(self, addr: int) -> bool:
        index, tag = self._locate(addr)
        return self._sets[index].pop(tag, _MISSING) is not _MISSING

    def invalidate_all(self) -> None:
        for entries in self._sets:
            entries.clear()

    def resident_blocks(self) -> int:
        return sum(len(entries) for entries in self._sets)


_MISSING = object()
