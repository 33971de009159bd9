"""MultiVLIW: distributed L1 kept coherent by a snoop-based MSI protocol
(Sánchez & González, MICRO-33) — the complex comparison point of Fig. 7.

Each cluster owns an L1 module; blocks migrate/replicate on demand:

* load hit in the local module → local latency;
* load miss served by a remote module (shared or modified) → remote
  transfer (+ write-back penalty when the remote copy was modified);
* load miss everywhere → next level (L2);
* store needs ownership: invalidating remote sharers or fetching a
  remote modified copy costs the coherence penalty.

Modules are modelled as per-cluster fully-associative LRU block sets
(capacity = unified size / N) with MSI state tracked per block; the
fidelity target is Figure 7's ranking, not a full MultiVLIW reproduction
(see DESIGN.md).  A module holds a block exactly when its cluster shares
or owns it, so a load's local-hit test is one module lookup, and no
access builds a throwaway set.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..isa.hints import HintBundle
from ..machine.config import MachineConfig
from .hierarchy import load_run, store_run


@dataclass
class MSIStats:
    local_hits: int = 0
    remote_clean: int = 0
    remote_dirty: int = 0
    misses_to_l2: int = 0
    store_invalidations: int = 0
    store_ownership_misses: int = 0

    @property
    def loads(self) -> int:
        return (
            self.local_hits + self.remote_clean + self.remote_dirty + self.misses_to_l2
        )

    @property
    def local_rate(self) -> float:
        return self.local_hits / self.loads if self.loads else 1.0


class MultiVLIWMemory:
    """Snoop-coherent distributed L1.

    The access paths rely on two invariants every operation keeps: a
    cluster's module holds a block exactly when the cluster shares or
    owns it, and a block has either one owner (M) or a non-empty set of
    sharers (S), never both.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.stats = MSIStats()
        n = config.n_clusters
        self.blocks_per_module = max(4, config.l1_size // n // config.l1_block)
        # Per-cluster LRU of resident blocks.
        self._modules: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(n)
        ]
        self._sharers: dict[int, set[int]] = {}  # block -> clusters holding S
        self._owner: dict[int, int] = {}  # block -> cluster holding M
        # Bound copies of the block size and latencies (config attribute
        # reads add up over hundreds of thousands of accesses).
        self._block_bytes = config.l1_block
        self._local_latency = config.distributed_local_latency
        self._remote_latency = config.distributed_remote_latency
        self._dirty_latency = (
            config.distributed_remote_latency + config.coherence_penalty
        )
        self._l2_latency = config.distributed_local_latency + config.l2_latency

    # ------------------------------------------------------------------
    # Module bookkeeping
    # ------------------------------------------------------------------

    def _touch(self, cluster: int, block: int) -> None:
        module = self._modules[cluster]
        if block in module:
            module.move_to_end(block)
            return
        while len(module) >= self.blocks_per_module:
            victim, _ = module.popitem(last=False)
            self._drop(cluster, victim)
        module[block] = None

    def _drop(self, cluster: int, block: int) -> None:
        sharers = self._sharers.get(block)
        if sharers is not None:
            sharers.discard(cluster)
            if not sharers:
                del self._sharers[block]
        if self._owner.get(block) == cluster:
            del self._owner[block]  # implicit write-back to L2

    # ------------------------------------------------------------------

    def load(
        self, cluster: int, addr: int, width: int, hints: HintBundle, cycle: int
    ) -> int:
        block = addr // self._block_bytes
        module = self._modules[cluster]
        if block in module:  # the cluster shares or owns it
            self.stats.local_hits += 1
            module.move_to_end(block)
            return cycle + self._local_latency

        owner = self._owner.get(block)
        if owner is not None:
            # Remote modified copy: write back, both end up sharers.
            self.stats.remote_dirty += 1
            del self._owner[block]
            self._sharers[block] = {owner, cluster}
            self._touch(cluster, block)
            return cycle + self._dirty_latency

        sharers = self._sharers.get(block)
        if sharers is not None:  # every sharer is remote
            self.stats.remote_clean += 1
            sharers.add(cluster)
            self._touch(cluster, block)
            return cycle + self._remote_latency

        self.stats.misses_to_l2 += 1
        self._sharers[block] = {cluster}
        self._touch(cluster, block)
        return cycle + self._l2_latency

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
        is_primary: bool = True,
    ) -> None:
        block = addr // self._block_bytes
        owner = self._owner.get(block)
        if owner == cluster:
            self._touch(cluster, block)
            return
        stats = self.stats
        if owner is not None:
            # Fetch the remote modified copy; its holder loses it.
            stats.store_invalidations += 1
            stats.store_ownership_misses += 1
            del self._modules[owner][block]
        else:
            sharers = self._sharers.pop(block, ())
            if cluster not in sharers:
                stats.store_ownership_misses += 1
            for other in sharers:
                if other != cluster:
                    stats.store_invalidations += 1
                    del self._modules[other][block]
        self._owner[block] = cluster
        self._touch(cluster, block)

    def prefetch(self, cluster: int, addr: int, width: int, cycle: int) -> None:
        return None

    def invalidate_l0(self, cycle: int) -> None:
        return None

    # perfbench-only entry points, defined once in hierarchy.py.
    load_run = load_run
    store_run = store_run
