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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class MapKind(enum.Enum):
    LINEAR = "linear"
    INTERLEAVED = "interleaved"


#: Tested on every lookup; bound once at module level.
_LINEAR = MapKind.LINEAR


@dataclass(eq=False, slots=True)
class L0Entry:
    """One resident subblock.  Identity equality and hashing
    (``eq=False``): entries are mutable runtime objects keyed by identity
    in the buffer's LRU dict and removed by identity from its block index,
    never confused with a value-equal twin.  ``slots=True`` makes the
    field reads of the lookup loop plain slot loads."""

    kind: MapKind
    block_addr: int  # base address of the owning L1 block
    #: linear: subblock index within the block; interleaved: element residue.
    position: int
    granularity: int  # interleaved element size (bytes); block bytes for linear
    ready: int  # cycle the data arrives from L1
    #: Last cycle the entry's data was made consistent with L1 (fill or
    #: local store update) — used by the staleness checker.
    update_time: int = 0
    from_prefetch: bool = False
    touched: bool = False  # has any demand access hit this entry?

    def __post_init__(self) -> None:
        if self.update_time == 0:
            self.update_time = self.ready


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
    # Geometry helpers
    # ------------------------------------------------------------------

    def _block_of(self, addr: int) -> int:
        return addr - (addr % self.block_bytes)

    def _covers(self, entry: L0Entry, offset: int, width: int) -> bool:
        """Does ``entry`` hold [offset, offset+width) of its own block?"""
        if entry.kind is MapKind.LINEAR:
            sub = self.subblock_bytes
            lo = entry.position * sub
            return lo <= offset and offset + width <= lo + sub
        # Interleaved: the entry holds elements with index % N == residue
        # at granularity g.  Wider accesses spill into other clusters and
        # must miss (paper section 3.3, fourth bullet).
        g = entry.granularity
        if width > g or offset % g:
            return False
        element = offset // g
        return element % self.n_clusters == entry.position

    def _matches(self, addr: int, width: int) -> list[L0Entry]:
        """Entries covering [addr, addr+width), least recently used first."""
        block = self._block_of(addr)
        offset = addr - block
        covers = self._covers
        return [e for e in self._by_block.get(block, ()) if covers(e, offset, width)]

    # ------------------------------------------------------------------
    # Lookup / fill / replacement
    # ------------------------------------------------------------------

    def find(self, addr: int, width: int) -> L0Entry | None:
        """Most-recently-used entry covering [addr, addr+width), no side effects."""
        block = self._block_of(addr)
        offset = addr - block
        for entry in reversed(self._by_block.get(block, ())):
            if self._covers(entry, offset, width):
                return entry
        return None

    def access(self, addr: int, width: int, cycle: int) -> L0Entry | None:
        """Demand access: updates LRU and hit/miss statistics.

        Inlined MRU-first cover scan (this is the simulator's hottest
        memory loop); semantically identical to ``find`` + LRU bump.
        """
        block = addr - (addr % self.block_bytes)
        stats = self.stats
        peers = self._by_block.get(block)
        if peers is None:
            stats.misses += 1
            return None
        offset = addr - block
        sub = self.subblock_bytes
        n = self.n_clusters
        for idx in range(len(peers) - 1, -1, -1):
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
        else:
            stats.misses += 1
            return None
        stats.hits += 1
        if entry.ready > cycle:
            stats.late_hits += 1
        entry.touched = True
        if idx != len(peers) - 1:
            del peers[idx]
            peers.append(entry)
        lru = self._lru
        del lru[entry]
        lru[entry] = None
        return entry

    def _insert(self, entry: L0Entry) -> None:
        """Make ``entry`` resident as the most recently used."""
        if self.capacity is not None:
            while len(self._lru) >= self.capacity:
                victim = next(iter(self._lru))
                self._drop(victim)
                self.stats.evictions += 1
                if victim.from_prefetch and not victim.touched:
                    self.stats.evicted_untouched_prefetches += 1
        self._lru[entry] = None
        self._by_block.setdefault(entry.block_addr, []).append(entry)

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
        block = self._block_of(addr)
        position = (addr - block) // self.subblock_bytes
        existing = self.find_exact(MapKind.LINEAR, block, position, self.subblock_bytes)
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            return existing
        entry = L0Entry(
            kind=MapKind.LINEAR,
            block_addr=block,
            position=position,
            granularity=self.subblock_bytes,
            ready=ready,
            from_prefetch=from_prefetch,
        )
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
        existing = self.find_exact(
            MapKind.INTERLEAVED, block_addr, residue, granularity
        )
        if existing is not None:
            existing.ready = min(existing.ready, ready)
            return existing
        entry = L0Entry(
            kind=MapKind.INTERLEAVED,
            block_addr=block_addr,
            position=residue,
            granularity=granularity,
            ready=ready,
            from_prefetch=from_prefetch,
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
        if entry.kind is MapKind.LINEAR:
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
