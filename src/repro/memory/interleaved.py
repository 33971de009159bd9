"""Word-interleaved distributed L1 with Attraction Buffers.

The comparison architecture from Gibert et al. (MICRO-35): the L1 is
split into one module per cluster and words are statically interleaved
(word ``w`` homes at cluster ``w mod N``).  A memory access from the
home cluster is *local*; anything else is *remote* and pays the
inter-cluster transit.  Each cluster also has a small hardware-managed
Attraction Buffer caching remotely-homed words at 1-cycle latency —
not compiler-controlled, plain LRU.  Each access computes its word's
home once, and a store invalidates only the buffers that may cache the
word: a per-home list of the other clusters' buffers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from ..isa.hints import HintBundle
from ..machine.config import MachineConfig
from .hierarchy import load_run, store_run
from .l1cache import CacheStats, SetAssocCache

WORD = 4  # interleaving granularity in bytes


@dataclass
class InterleavedStats:
    local_accesses: int = 0
    remote_accesses: int = 0
    attraction_hits: int = 0
    modules: CacheStats = field(default_factory=CacheStats)

    @property
    def accesses(self) -> int:
        return self.local_accesses + self.remote_accesses + self.attraction_hits

    @property
    def local_rate(self) -> float:
        total = self.accesses
        served_near = self.local_accesses + self.attraction_hits
        return served_near / total if total else 1.0


class AttractionBuffer:
    """Small per-cluster LRU buffer of remotely-homed words."""

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._words: OrderedDict[int, None] = OrderedDict()

    def hit(self, word: int) -> bool:
        if word in self._words:
            self._words.move_to_end(word)
            return True
        return False

    def fill(self, word: int) -> None:
        if word in self._words:
            self._words.move_to_end(word)
            return
        while len(self._words) >= self.capacity:
            self._words.popitem(last=False)
        self._words[word] = None

    def invalidate(self, word: int) -> None:
        self._words.pop(word, None)

    def __len__(self) -> int:
        return len(self._words)


class WordInterleavedMemory:
    """Distributed word-interleaved L1 + attraction buffers."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.stats = InterleavedStats()
        n = config.n_clusters
        self.modules = [
            SetAssocCache(
                size=config.interleaved_module_size,
                assoc=config.l1_assoc,
                block=config.l1_block,
                stats=self.stats.modules,
            )
            for _ in range(n)
        ]
        self.attraction = [
            AttractionBuffer(config.attraction_entries) for _ in range(n)
        ]
        #: home cluster -> the attraction buffers that may cache its words
        #: (every cluster's but the home's own), in cluster order.
        self._remote_buffers = [
            [buffer for other, buffer in enumerate(self.attraction) if other != home]
            for home in range(n)
        ]
        # Bound copies of the geometry and latencies (config attribute
        # reads add up over hundreds of thousands of accesses).
        self._n_clusters = n
        self._local_latency = config.distributed_local_latency
        self._remote_latency = config.distributed_remote_latency
        self._l2_latency = config.l2_latency
        self._attraction_latency = config.attraction_latency

    def home_of(self, addr: int) -> int:
        return (addr // WORD) % self.config.n_clusters

    # ------------------------------------------------------------------

    def load(
        self, cluster: int, addr: int, width: int, hints: HintBundle, cycle: int
    ) -> int:
        word = addr // WORD
        home = word % self._n_clusters  # home_of(addr)
        if home == cluster:
            self.stats.local_accesses += 1
            if self.modules[home].load(addr):
                return cycle + self._local_latency
            return cycle + self._local_latency + self._l2_latency
        buffer = self.attraction[cluster]
        if buffer.hit(word):
            self.stats.attraction_hits += 1
            return cycle + self._attraction_latency
        self.stats.remote_accesses += 1
        latency = self._remote_latency
        if not self.modules[home].load(addr):
            latency += self._l2_latency
        buffer.fill(word)
        return cycle + latency

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
        is_primary: bool = True,
    ) -> None:
        first = addr // WORD
        n = self._n_clusters
        self.modules[first % n].store(addr)
        # Hardware keeps attraction buffers coherent: a store kills every
        # remotely-cached copy of the words it writes.
        remote_buffers = self._remote_buffers
        for word in range(first, (addr + width - 1) // WORD + 1):
            for buffer in remote_buffers[word % n]:
                buffer.invalidate(word)

    def prefetch(self, cluster: int, addr: int, width: int, cycle: int) -> None:
        return None  # no software prefetch in this design

    def invalidate_l0(self, cycle: int) -> None:
        return None  # nothing compiler-managed to flush

    # perfbench-only entry points, defined once in hierarchy.py.
    load_run = load_run
    store_run = store_run
