"""The flexible compiler-managed L0 buffer (paper section 3).

Each cluster owns one buffer of a few *subblock* entries (an L1 block
split by the number of clusters: 32/4 = 8 bytes).  Entries are fully
associative with LRU replacement and can hold either

* a **linear** subblock — 8 consecutive bytes of an L1 block, or
* an **interleaved** subblock — the elements ``j`` of an L1 block with
  ``j mod N == residue`` at granularity ``g`` (the access width of the
  load that triggered the fill).

The buffer is write-through and inclusive: replacements and
invalidations simply drop entries.  A store that hits several replicated
copies (same data cached under different mapping functions) updates one
and invalidates the rest, matching the paper's single-write-port design.

Timing: entries carry a ``ready`` cycle so fills in flight are visible —
a load that touches an entry before its data arrives counts as a hit but
completes only at ``ready`` (the processor stalls on use).

Lookup: only entries of the accessed L1 block can cover an access, so
the buffer keeps a ``block_addr -> entries`` index beside the global LRU
order and every lookup scans one block's few entries, not the whole
buffer.  Within a block the index lists entries in global LRU order, so
"the most recently used copy" means the same thing in both structures.
The cover test is written out twice, both inline: ``access`` scans
most recently used first and stops at the first cover; ``_matches``
returns every cover in LRU order and serves ``find`` (its last),
``store_update`` and ``invalidate_matching``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MapKind(enum.Enum):
    LINEAR = "linear"
    INTERLEAVED = "interleaved"


#: Tested on every lookup and fill, so bound once at module level: a
#: module global reads in ~10 ns, a member read through its class in
#: ~140 ns.
_LINEAR = MapKind.LINEAR
_INTERLEAVED = MapKind.INTERLEAVED


class L0Entry:
    """One resident subblock.  Identity equality and hashing: entries are
    mutable runtime objects keyed by identity in the buffer's LRU dict
    and removed by identity from its block index, never confused with a
    value-equal twin.  ``__slots__`` makes the field reads of the lookup
    loop plain slot loads; every fill builds one through the positional
    ``__init__``."""

    __slots__ = (
        "kind",
        "block_addr",
        "position",
        "granularity",
        "ready",
        "update_time",
        "from_prefetch",
        "touched",
    )

    def __init__(
        self,
        kind: MapKind,
        block_addr: int,
        position: int,
        granularity: int,
        ready: int,
        from_prefetch: bool = False,
    ) -> None:
        self.kind = kind
        self.block_addr = block_addr  # base address of the owning L1 block
        #: linear: subblock index within the block; interleaved: element residue.
        self.position = position
        #: interleaved: element size (bytes); linear: subblock bytes.
        self.granularity = granularity
        self.ready = ready  # cycle the data arrives from L1
        #: Last cycle the entry's data was made consistent with L1 (fill or
        #: local store update) — used by the staleness checker.
        self.update_time = ready
        self.from_prefetch = from_prefetch
        self.touched = False  # has any demand access hit this entry?


@dataclass
class L0Stats:
    hits: int = 0
    misses: int = 0
    late_hits: int = 0  # hit on an in-flight fill (stall on use)
    linear_fills: int = 0
    interleaved_fills: int = 0
    evictions: int = 0
    evicted_untouched_prefetches: int = 0
    store_updates: int = 0
    store_invalidations: int = 0
    invalidate_alls: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 1.0


class L0Buffer:
    """One cluster's L0 buffer."""

    def __init__(
        self,
        entries: int | None,
        block_bytes: int,
        n_clusters: int,
        stats: L0Stats | None = None,
    ) -> None:
        self.capacity = entries  # None = unbounded
        self.block_bytes = block_bytes
        self.n_clusters = n_clusters
        self.subblock_bytes = block_bytes // n_clusters
        self.stats = stats if stats is not None else L0Stats()
        #: Global LRU order (first key = oldest); values are unused.
        self._lru: dict[L0Entry, None] = {}
        #: block_addr -> that block's entries, in global LRU order.
        self._by_block: dict[int, list[L0Entry]] = {}

    # ------------------------------------------------------------------
    # Lookup / fill / replacement
    # ------------------------------------------------------------------

    def _matches(self, addr: int, width: int) -> list[L0Entry]:
        """Entries covering [addr, addr+width), least recently used first."""
        block = addr - addr % self.block_bytes
        peers = self._by_block.get(block)
        if peers is None:
            return []
        offset = addr - block
        sub = self.subblock_bytes
        n = self.n_clusters
        matches = []
        for entry in peers:
            if entry.kind is _LINEAR:
                lo = entry.position * sub
                if lo <= offset and offset + width <= lo + sub:
                    matches.append(entry)
            else:
                # Interleaved: the entry holds elements with index % N ==
                # residue at granularity g.  Wider accesses spill into other
                # clusters and must miss (paper section 3.3, fourth bullet).
                g = entry.granularity
                if (
                    width <= g
                    and not offset % g
                    and (offset // g) % n == entry.position
                ):
                    matches.append(entry)
        return matches

    def find(self, addr: int, width: int) -> L0Entry | None:
        """Most-recently-used entry covering [addr, addr+width), no side effects."""
        matches = self._matches(addr, width)
        return matches[-1] if matches else None

    def access(self, addr: int, width: int, cycle: int) -> L0Entry | None:
        """Demand access: updates LRU and hit/miss statistics.

        Inlined MRU-first cover scan (this is the simulator's hottest
        memory loop); semantically identical to ``find`` + LRU bump.
        """
        block = addr - addr % self.block_bytes
        stats = self.stats
        peers = self._by_block.get(block)
        if peers is None:
            stats.misses += 1
            return None
        offset = addr - block
        sub = self.subblock_bytes
        n = self.n_clusters
        last = idx = len(peers) - 1
        while idx >= 0:
            entry = peers[idx]
            if entry.kind is _LINEAR:
                lo = entry.position * sub
                if lo <= offset and offset + width <= lo + sub:
                    break
            else:
                g = entry.granularity
                if (
                    width <= g
                    and not offset % g
                    and (offset // g) % n == entry.position
                ):
                    break
            idx -= 1
        else:
            stats.misses += 1
            return None
        stats.hits += 1
        if entry.ready > cycle:
            stats.late_hits += 1
        entry.touched = True
        if idx != last:
            del peers[idx]
            peers.append(entry)
        lru = self._lru
        del lru[entry]
        lru[entry] = None
        return entry

    def _insert(self, entry: L0Entry) -> None:
        """Make ``entry`` resident as the most recently used."""
        lru = self._lru
        by_block = self._by_block
        capacity = self.capacity
        if capacity is not None:
            while len(lru) >= capacity:
                victim = next(iter(lru))
                del lru[victim]
                peers = by_block[victim.block_addr]
                peers.remove(victim)
                if not peers:
                    del by_block[victim.block_addr]
                self.stats.evictions += 1
                if victim.from_prefetch and not victim.touched:
                    self.stats.evicted_untouched_prefetches += 1
        lru[entry] = None
        peers = by_block.get(entry.block_addr)
        if peers is None:
            by_block[entry.block_addr] = [entry]
        else:
            peers.append(entry)

    def _drop(self, entry: L0Entry) -> None:
        """Remove ``entry`` from the LRU order and its block's list."""
        del self._lru[entry]
        peers = self._by_block[entry.block_addr]
        peers.remove(entry)
        if not peers:
            del self._by_block[entry.block_addr]

    def fill_linear(
        self, addr: int, ready: int, *, from_prefetch: bool = False
    ) -> L0Entry:
        """Insert the linear subblock containing ``addr`` (idempotent)."""
        block = addr - addr % self.block_bytes
        sub = self.subblock_bytes
        position = (addr - block) // sub
        existing = self.find_exact(_LINEAR, block, position, sub)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            return existing
        entry = L0Entry(_LINEAR, block, position, sub, ready, from_prefetch)
        self._insert(entry)
        self.stats.linear_fills += 1
        return entry

    def fill_interleaved(
        self,
        block_addr: int,
        residue: int,
        granularity: int,
        ready: int,
        *,
        from_prefetch: bool = False,
    ) -> L0Entry:
        existing = self.find_exact(_INTERLEAVED, block_addr, residue, granularity)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            return existing
        entry = L0Entry(
            _INTERLEAVED, block_addr, residue, granularity, ready, from_prefetch
        )
        self._insert(entry)
        self.stats.interleaved_fills += 1
        return entry

    def find_exact(
        self, kind: MapKind, block: int, position: int, granularity: int
    ) -> L0Entry | None:
        """The resident entry with exactly this mapping, if any."""
        for entry in self._by_block.get(block, ()):
            if (
                entry.kind is kind
                and entry.position == position
                and entry.granularity == granularity
            ):
                return entry
        return None

    # ------------------------------------------------------------------
    # Stores & invalidation
    # ------------------------------------------------------------------

    def store_update(self, addr: int, width: int, cycle: int) -> None:
        """Local store with PAR_ACCESS: refresh one copy, drop the others.

        The paper keeps a single write port per buffer, so when the same
        data is replicated under different mapping functions only one
        entry is written; the rest are invalidated (section 4.1).
        """
        matches = self._matches(addr, width)
        if not matches:
            return
        keep = matches[-1]  # most recently used copy
        keep.update_time = max(keep.update_time, cycle)
        self.stats.store_updates += 1
        for entry in matches[:-1]:
            self._drop(entry)
            self.stats.store_invalidations += 1

    def invalidate_matching(self, addr: int, width: int) -> int:
        """Drop every entry covering the address (PSR replica behaviour)."""
        matches = self._matches(addr, width)
        for entry in matches:
            self._drop(entry)
            self.stats.store_invalidations += 1
        return len(matches)

    def invalidate_all(self) -> None:
        self._lru.clear()
        self._by_block.clear()
        self.stats.invalidate_alls += 1

    # ------------------------------------------------------------------
    # Prefetch-trigger geometry
    # ------------------------------------------------------------------

    def is_edge_element(
        self, entry: L0Entry, addr: int, width: int, last: bool
    ) -> bool:
        """Is ``addr`` the last (or first) element of ``entry``'s subblock?"""
        offset = addr - entry.block_addr
        if entry.kind is _LINEAR:
            sub = self.subblock_bytes
            within = offset - entry.position * sub
            return within + width == sub if last else within == 0
        # The entry owns elements position, position + n, ... below
        # block_bytes // g; the last is the largest such index.
        g = entry.granularity
        edge = entry.position
        if last:
            n = self.n_clusters
            edge += (self.block_bytes // g - 1 - edge) // n * n
        return offset // g == edge

    def __len__(self) -> int:
        return len(self._lru)

    def entries(self) -> list[L0Entry]:
        return list(self._lru)
