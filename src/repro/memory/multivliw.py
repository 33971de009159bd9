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
(see DESIGN.md).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..isa.hints import HintBundle
from ..machine.config import MachineConfig


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
    """Snoop-coherent distributed L1."""

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.stats = MSIStats()
        n = config.n_clusters
        self.blocks_per_module = max(4, config.l1_size // n // config.l1_block)
        # Per-cluster LRU of resident blocks.
        self._modules: list[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(n)
        ]
        # block -> set of sharers (S) — or single owner with dirty flag.
        self._sharers: dict[int, set[int]] = {}
        self._owner: dict[int, int] = {}  # block -> cluster holding M

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
                self._sharers.pop(block, None)
        if self._owner.get(block) == cluster:
            del self._owner[block]  # implicit write-back to L2

    def _present(self, cluster: int, block: int) -> bool:
        return block in self._modules[cluster] and (
            cluster in self._sharers.get(block, ()) or self._owner.get(block) == cluster
        )

    # ------------------------------------------------------------------

    def load(
        self, cluster: int, addr: int, width: int, hints: HintBundle, cycle: int
    ) -> int:
        block = addr // self.config.l1_block
        cfg = self.config
        if self._present(cluster, block):
            self.stats.local_hits += 1
            self._touch(cluster, block)
            return cycle + cfg.distributed_local_latency

        owner = self._owner.get(block)
        if owner is not None and owner != cluster:
            # Remote modified copy: write back, both end up sharers.
            self.stats.remote_dirty += 1
            del self._owner[block]
            self._sharers[block] = {owner, cluster}
            self._touch(cluster, block)
            return cycle + cfg.distributed_remote_latency + cfg.coherence_penalty

        sharers = self._sharers.get(block, set())
        remote_sharers = sharers - {cluster}
        if remote_sharers:
            self.stats.remote_clean += 1
            sharers.add(cluster)
            self._sharers[block] = sharers
            self._touch(cluster, block)
            return cycle + cfg.distributed_remote_latency

        self.stats.misses_to_l2 += 1
        self._sharers.setdefault(block, set()).add(cluster)
        self._touch(cluster, block)
        return cycle + cfg.distributed_local_latency + cfg.l2_latency

    def store(
        self,
        cluster: int,
        addr: int,
        width: int,
        hints: HintBundle,
        cycle: int,
        is_primary: bool = True,
    ) -> None:
        block = addr // self.config.l1_block
        if self._owner.get(block) == cluster:
            self._touch(cluster, block)
            return
        sharers = self._sharers.pop(block, set())
        old_owner = self._owner.pop(block, None)
        owners = {old_owner} if old_owner is not None else set()
        remote = (sharers | owners) - {cluster}
        if remote:
            self.stats.store_invalidations += len(remote)
            for other in remote:
                self._modules[other].pop(block, None)
        if cluster not in sharers and old_owner != cluster:
            self.stats.store_ownership_misses += 1
        self._owner[block] = cluster
        self._touch(cluster, block)

    def prefetch(self, cluster: int, addr: int, width: int, cycle: int) -> None:
        return None

    def invalidate_l0(self, cycle: int) -> None:
        return None

    # ------------------------------------------------------------------
    # Fast-path hooks (see UnifiedMemory for the contract)
    # ------------------------------------------------------------------

    def load_run(self, clusters, addrs, widths, hints_list, cycles) -> list[int]:
        load = self.load
        return [
            load(clusters[k], addrs[k], widths[k], hints_list[k], cycles[k])
            for k in range(len(addrs))
        ]

    def store_run(self, clusters, addrs, widths, hints_list, cycles, primaries) -> None:
        store = self.store
        for k in range(len(addrs)):
            store(
                clusters[k],
                addrs[k],
                widths[k],
                hints_list[k],
                cycles[k],
                is_primary=primaries[k],
            )
