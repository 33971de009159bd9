"""Property-based tests for the memory substrate models."""

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from repro.isa import (
    BYPASS_HINTS,
    AccessHint,
    AccessPattern,
    ArrayRef,
    HintBundle,
    MapHint,
    PrefetchHint,
)
from repro.ir.memdep import patterns_may_alias
from repro.machine import interleaved_config, l0_config, multivliw_config
from repro.memory import (
    WORD,
    BusStats,
    ClusterBus,
    L0Buffer,
    L0Entry,
    L0Stats,
    MapKind,
    MSIStats,
    MultiVLIWMemory,
    SetAssocCache,
    UnifiedMemory,
    WordInterleavedMemory,
)

#: Every phase but ``explain``, which runs only after a failure has been
#: found and shrunk, and re-runs long op sequences for minutes before
#: the failure is reported.
NO_EXPLAIN = [phase for phase in Phase if phase is not Phase.explain]
QUICK = settings(max_examples=60, deadline=None, phases=NO_EXPLAIN)

addrs = st.integers(min_value=0, max_value=1 << 16)
widths = st.sampled_from([1, 2, 4, 8])


@QUICK
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["linear", "inter", "access"]), addrs, widths),
        max_size=60,
    ),
    capacity=st.integers(min_value=1, max_value=8),
)
def test_l0_capacity_never_exceeded(ops, capacity):
    buf = L0Buffer(entries=capacity, block_bytes=32, n_clusters=4)
    for kind, addr, width in ops:
        if kind == "linear":
            buf.fill_linear(addr, ready=0)
        elif kind == "inter":
            block = addr - addr % 32
            buf.fill_interleaved(block, addr % 4, width, ready=0)
        else:
            buf.access(addr, width, cycle=0)
        assert len(buf) <= capacity


@QUICK
@given(addr=addrs, width=widths)
def test_l0_linear_fill_then_find(addr, width):
    """Any address within the filled subblock (and width-aligned inside
    it) is findable; anything outside is not."""
    buf = L0Buffer(entries=None, block_bytes=32, n_clusters=4)
    entry = buf.fill_linear(addr, ready=0)
    sub_base = entry.block_addr + entry.position * 8
    assert sub_base <= addr < sub_base + 8
    for offset in range(0, 8 - width + 1):
        assert buf.find(sub_base + offset, width) is not None
    assert buf.find(sub_base - 1, 1) is None
    assert buf.find(sub_base + 8, 1) is None


@QUICK
@given(
    block=st.integers(min_value=0, max_value=64).map(lambda b: b * 32),
    residue=st.integers(min_value=0, max_value=3),
    granularity=st.sampled_from([1, 2, 4, 8]),
)
def test_l0_interleaved_covers_exactly_residue_elements(block, residue, granularity):
    buf = L0Buffer(entries=None, block_bytes=32, n_clusters=4)
    buf.fill_interleaved(block, residue, granularity, ready=0)
    elements = 32 // granularity
    for element in range(elements):
        addr = block + element * granularity
        found = buf.find(addr, granularity) is not None
        assert found == (element % 4 == residue)


class ListL0:
    """Reference model: the L0 buffer as one LRU list (index 0 = oldest)
    scanned in full on every lookup.  The simulator's ``L0Buffer``
    indexes entries by block; both must behave identically."""

    def __init__(self, capacity, block_bytes, n_clusters):
        self.capacity = capacity
        self.block_bytes = block_bytes
        self.n = n_clusters
        self.sub = block_bytes // n_clusters
        self.stats = L0Stats()
        self.lru = []

    def _covers(self, e, addr, width):
        block = addr - addr % self.block_bytes
        offset = addr - block
        if block != e.block_addr:
            return False
        if e.kind is MapKind.LINEAR:
            lo = e.position * self.sub
            return lo <= offset and offset + width <= lo + self.sub
        g = e.granularity
        return width <= g and not offset % g and offset // g % self.n == e.position

    def _matches(self, addr, width):
        return [e for e in self.lru if self._covers(e, addr, width)]

    def find(self, addr, width):
        matches = self._matches(addr, width)
        return matches[-1] if matches else None

    def access(self, addr, width, cycle):
        e = self.find(addr, width)
        if e is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.late_hits += e.ready > cycle
        e.touched = True
        self.lru.remove(e)
        self.lru.append(e)
        return e

    def _fill(self, kind, block, position, granularity, ready, from_prefetch):
        key = (kind, block, position, granularity)
        for e in self.lru:
            if (e.kind, e.block_addr, e.position, e.granularity) == key:
                e.ready = min(e.ready, ready)
                return e
        while self.capacity is not None and len(self.lru) >= self.capacity:
            victim = self.lru.pop(0)
            self.stats.evictions += 1
            if victim.from_prefetch and not victim.touched:
                self.stats.evicted_untouched_prefetches += 1
        e = L0Entry(kind, block, position, granularity, ready)
        e.from_prefetch = from_prefetch
        self.lru.append(e)
        if kind is MapKind.LINEAR:
            self.stats.linear_fills += 1
        else:
            self.stats.interleaved_fills += 1
        return e

    def fill_linear(self, addr, ready, *, from_prefetch=False):
        block = addr - addr % self.block_bytes
        position = (addr - block) // self.sub
        kind = MapKind.LINEAR
        return self._fill(kind, block, position, self.sub, ready, from_prefetch)

    def fill_interleaved(self, block, residue, g, ready, *, from_prefetch=False):
        kind = MapKind.INTERLEAVED
        return self._fill(kind, block, residue, g, ready, from_prefetch)

    def store_update(self, addr, width, cycle):
        matches = self._matches(addr, width)
        if matches:
            matches[-1].update_time = max(matches[-1].update_time, cycle)
            self.stats.store_updates += 1
            for e in matches[:-1]:
                self.lru.remove(e)
                self.stats.store_invalidations += 1

    def invalidate_matching(self, addr, width):
        matches = self._matches(addr, width)
        for e in matches:
            self.lru.remove(e)
            self.stats.store_invalidations += 1
        return len(matches)

    def invalidate_all(self):
        self.lru.clear()
        self.stats.invalidate_alls += 1


def _entry_key(result):
    if isinstance(result, L0Entry):
        return (result.kind, result.block_addr, result.position, result.granularity)
    return result


def _entry_state(entry):
    """Everything an L0 entry holds, times exact."""
    return _entry_key(entry) + (
        entry.ready,
        entry.update_time,
        entry.from_prefetch,
        entry.touched,
    )


def _apply(buf, op, addr, width, block_bytes, n_clusters):
    name, time, flag = op
    if name == "linear":
        return buf.fill_linear(addr, time, from_prefetch=flag)
    if name == "inter":
        # The subblock holding the accessed element (the local share of
        # an interleaved block fill), so it can replicate a linear entry.
        offset = addr % block_bytes
        residue = offset // width % n_clusters
        block = addr - offset
        return buf.fill_interleaved(block, residue, width, time, from_prefetch=flag)
    if name == "access":
        return buf.access(addr, width, time)
    if name == "find":
        return buf.find(addr, width)
    if name == "store":
        return buf.store_update(addr, width, time)
    if name == "invalidate":
        return buf.invalidate_matching(addr, width)
    assert name == "invalidate_all", name
    return buf.invalidate_all()


# (block_bytes, n_clusters) pairs: Table 2's 32/4 plus narrower and wider
# subblocks, a 1-cluster machine and subblocks narrower than an access.
L0_GEOMETRIES = st.sampled_from([(32, 4), (32, 2), (64, 4), (16, 1), (32, 8)])
L0_CAPACITIES = st.one_of(st.none(), st.integers(min_value=1, max_value=8))
# Ops draw their (block, offset, width) from a small per-example pool in
# four blocks, so the same data is filled under both mappings, hit, stored
# to and evicted.  Repeated names weight the draw toward fills and
# accesses.  Sequences have a minimum length: Hypothesis otherwise draws
# lists of ~5 ops, too short for a fill to be hit, bumped and evicted.
L0_ADDRS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=63),
        st.sampled_from([1, 2, 4, 8]),
    ),
    min_size=1,
    max_size=8,
)
L0_OP_NAMES = (
    "linear linear inter inter access access access find store store "
    "invalidate invalidate_all"
).split()
L0_OP = st.tuples(
    st.integers(min_value=0, max_value=7),
    st.tuples(
        st.sampled_from(L0_OP_NAMES),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
)


def _check_against_list_model(geometry, capacity, addrs, ops):
    block_bytes, n_clusters = geometry
    buf = L0Buffer(entries=capacity, block_bytes=block_bytes, n_clusters=n_clusters)
    ref = ListL0(capacity, block_bytes, n_clusters)
    for slot, op in ops:
        block, offset, width = addrs[slot % len(addrs)]
        # Width-aligned, like every access the simulator issues.
        addr = block * block_bytes + offset % block_bytes // width * width
        got = _apply(buf, op, addr, width, block_bytes, n_clusters)
        want = _apply(ref, op, addr, width, block_bytes, n_clusters)
        assert _entry_key(got) == _entry_key(want), op
        assert buf.stats == ref.stats, op
        # Content and LRU order, every stamp exact.
        assert [_entry_state(e) for e in buf.entries()] == [
            _entry_state(e) for e in ref.lru
        ], op


@QUICK
@given(
    geometry=L0_GEOMETRIES,
    capacity=L0_CAPACITIES,
    addrs=L0_ADDRS,
    ops=st.lists(L0_OP, min_size=20, max_size=80),
)
def test_l0_matches_list_scan_model(geometry, capacity, addrs, ops):
    _check_against_list_model(geometry, capacity, addrs, ops)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None, phases=NO_EXPLAIN)
@given(
    geometry=L0_GEOMETRIES,
    capacity=L0_CAPACITIES,
    addrs=L0_ADDRS,
    ops=st.lists(L0_OP, min_size=100, max_size=400),
)
def test_l0_matches_list_scan_model_long(geometry, capacity, addrs, ops):
    _check_against_list_model(geometry, capacity, addrs, ops)


class ByteStampOracle:
    """Reference model of the coherence audit: one dict entry per stored
    byte, every accessed byte read on every L0 hit.  ``UnifiedMemory``
    keeps the stamps as per-block rows and skips the byte scan when the
    block's newest stamp is not newer than the entry; both must count the
    same violations and hold the same store stamps."""

    def __init__(self):
        self.last_store = {}
        self.violations = 0

    def store(self, addr, width, cycle):
        for byte in range(addr, addr + width):
            self.last_store[byte] = cycle

    def hit(self, entry, addr, width):
        get = self.last_store.get
        newest = max(get(byte, -1) for byte in range(addr, addr + width))
        if newest > entry.update_time:
            self.violations += 1

    def stamp_rows(self, block_bytes):
        """``UnifiedMemory._stamps`` as it must be: per stored-to block,
        each byte's newest store (-1 if none), then the block's newest.
        The clock never runs backwards, so the block's newest stamp is
        its newest byte stamp."""
        rows = {}
        for byte, cycle in self.last_store.items():
            block = byte - byte % block_bytes
            row = rows.setdefault(block, [-1] * (block_bytes + 1))
            row[byte - block] = cycle
            row[-1] = max(row[-1], cycle)
        return rows


# Table 2's geometry, a narrower and a wider block, fewer clusters;
# bounded and unbounded buffers.  A 1 KB L1 makes L1 misses and
# evictions common.
COHERENCE_MACHINES = st.sampled_from(
    [
        l0_config(4, l1_size=1024),
        l0_config(None, l1_size=1024, l1_block=16),
        l0_config(2, l1_size=1024, l1_block=64, n_clusters=2),
        l0_config(8, l1_size=1024, n_clusters=1),
    ]
)
#: Every hint bundle: each access, mapping and prefetch hint, distance
#: 1 and 2 (one draw per op; building bundles field by field is slower).
HINTS = st.sampled_from(
    [
        HintBundle(access, mapping, prefetch, distance)
        for access in AccessHint
        for mapping in MapHint
        for prefetch in PrefetchHint
        for distance in (1, 2)
    ]
)
# Ops draw a (byte, width) point from a small per-example pool in two
# adjacent blocks, so the same bytes are filled, stored to and hit
# again.  Loads and prefetches round the width down to a power of two
# and the byte down to a width multiple, as the simulator issues them;
# stores keep both, so they may be unaligned and cross into the next
# block.  The pool starts two blocks up, so hint prefetches reach below
# and above it.
COHERENCE_POINTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=127),
        st.integers(min_value=1, max_value=8),
    ),
    min_size=1,
    max_size=6,
)
COHERENCE_OP_NAMES = "load load load store store replica prefetch invalidate"
# (name, cluster, pool slot, hints, cycles the clock advances).
COHERENCE_OP = st.tuples(
    st.sampled_from(COHERENCE_OP_NAMES.split()),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5),
    HINTS,
    st.integers(min_value=0, max_value=4),
)


def _run_coherence_oracle(config, points, ops):
    """Drive ``UnifiedMemory`` and the byte-dict model side by side and
    compare them after every operation; returns the violations seen."""
    mem = UnifiedMemory(config)
    ref = ByteStampOracle()
    block = config.l1_block
    clock = 0
    for name, cluster, slot, hints, dt in ops:
        cluster %= config.n_clusters
        clock += dt
        byte, width = points[slot % len(points)]
        addr = 2 * block + byte % (2 * block)
        load_width = 1 << (width.bit_length() - 1)
        aligned = addr // load_width * load_width
        if name == "load":
            if hints.access is not AccessHint.NO_ACCESS:
                entry = mem.l0[cluster].find(aligned, load_width)
                if entry is not None:
                    ref.hit(entry, aligned, load_width)
            mem.load(cluster, aligned, load_width, hints, clock)
        elif name in ("store", "replica"):
            primary = name == "store"
            if primary:
                ref.store(addr, width, clock)
            mem.store(cluster, addr, width, hints, clock, is_primary=primary)
        elif name == "prefetch":
            mem.prefetch(cluster, aligned, load_width, clock)
        else:
            mem.invalidate_l0(clock)
        assert mem.stats.coherence_violations == ref.violations, name
        assert mem._stamps == ref.stamp_rows(block), name
    return ref.violations


PAR_LINEAR = HintBundle(AccessHint.PAR_ACCESS)
# The boundary the block filter must not blur.  Cluster 0 fills bytes
# 64-71 (ready at cycle 16), a PAR store at cycle 20 stamps 64-67 and
# refreshes the entry to cycle 20, a store at 21 stamps 72-75 in the same
# block, and the last load of 64-67 is not stale (stamp 20 == update
# time 20) although the block's newest stamp (21) is newer than the entry.
FILTER_BOUNDARY_OPS = (
    [("load", 0, 0, PAR_LINEAR, 0)]
    + [("load", 1, 1, BYPASS_HINTS, 4)] * 5
    + [
        ("store", 0, 0, PAR_LINEAR, 0),
        ("store", 1, 1, BYPASS_HINTS, 1),
        ("load", 0, 0, PAR_LINEAR, 1),
    ]
)


@QUICK
@given(
    config=COHERENCE_MACHINES,
    points=COHERENCE_POINTS,
    ops=st.lists(COHERENCE_OP, min_size=20, max_size=80),
)
@example(config=l0_config(4), points=[(0, 4), (8, 4)], ops=FILTER_BOUNDARY_OPS)
def test_coherence_audit_matches_byte_oracle(config, points, ops):
    _run_coherence_oracle(config, points, ops)


@pytest.mark.slow
@settings(max_examples=500, deadline=None, phases=NO_EXPLAIN)
@given(
    config=COHERENCE_MACHINES,
    points=COHERENCE_POINTS,
    ops=st.lists(COHERENCE_OP, min_size=100, max_size=400),
)
def test_coherence_audit_matches_byte_oracle_long(config, points, ops):
    _run_coherence_oracle(config, points, ops)


def test_coherence_oracle_generator_reaches_violations():
    """The generator above produces sequences with stale L0 hits, so the
    comparison covers the counting, not only the all-zero case."""
    case = find(
        st.tuples(
            COHERENCE_MACHINES,
            COHERENCE_POINTS,
            st.lists(COHERENCE_OP, min_size=20, max_size=80),
        ),
        lambda case: _run_coherence_oracle(*case) > 0,
        settings=settings(max_examples=60, database=None, phases=[Phase.generate]),
    )
    assert _run_coherence_oracle(*case) > 0


@pytest.mark.parametrize("n_clusters", [1, 2, 3, 4, 8])
def test_l0_edge_element_closed_form(n_clusters):
    """The closed-form interleaved edge test equals the owned-element list
    (first and last ``j < block // g`` with ``j % n == residue``) for every
    geometry whose owned set is non-empty."""
    for block_bytes in (8, 16, 32, 64, 128):
        buf = L0Buffer(entries=None, block_bytes=block_bytes, n_clusters=n_clusters)
        for g in (1, 2, 4, 8, 16):
            elements = block_bytes // g
            for residue in range(n_clusters):
                owned = [j for j in range(elements) if j % n_clusters == residue]
                if not owned:
                    continue
                entry = buf.fill_interleaved(0, residue, g, ready=0)
                for j in range(elements):
                    addr = j * g
                    assert buf.is_edge_element(entry, addr, g, last=True) == (
                        j == owned[-1]
                    )
                    assert buf.is_edge_element(entry, addr, g, last=False) == (
                        j == owned[0]
                    )


@QUICK
@given(
    sequence=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200)
)
def test_cache_hit_iff_recently_used(sequence):
    """A fully-warm direct replay must hit 100%."""
    cache = SetAssocCache(size=2048, assoc=2, block=32)
    blocks = set()
    for block_idx in sequence:
        cache.load(block_idx * 32)
        blocks.add(block_idx)
    if len(blocks) <= 32:  # fits: 2048/32 = 64 blocks, 2-way
        hits_before = cache.stats.load_hits
        for block_idx in sorted(blocks):
            cache.load(block_idx * 32)
        # Not all guaranteed (set conflicts), but at least half must hit.
        assert cache.stats.load_hits - hits_before >= len(blocks) // 2


def _lru_sets(cache):
    """Each set's resident tags, least recently used first."""
    return [list(entries) for entries in cache._sets]


@QUICK
@given(
    geometry=st.sampled_from([(256, 2, 32), (128, 1, 16), (512, 4, 32)]),
    ops=st.lists(
        st.tuples(
            st.sampled_from("load load touch touch store invalidate".split()),
            st.integers(min_value=0, max_value=95),
        ),
        min_size=10,
        max_size=120,
    ),
)
def test_cache_touch_matches_probe_then_load(geometry, ops):
    """``touch`` is the parallel-probe reply the L0 path discards: equal
    to ``load`` after a successful ``probe``, and to nothing otherwise."""
    size, assoc, block = geometry
    cache = SetAssocCache(size=size, assoc=assoc, block=block)
    ref = SetAssocCache(size=size, assoc=assoc, block=block)
    for name, unit in ops:
        addr = unit * 8
        if name == "touch":
            cache.touch(addr)
            if ref.probe(addr):
                ref.load(addr)
        else:
            assert getattr(cache, name)(addr) == getattr(ref, name)(addr)
        assert cache.stats == ref.stats, name
        assert _lru_sets(cache) == _lru_sets(ref), name


class MarkBus:
    """Reference model: the cluster bus recomputing
    ``cycle - mark >= 2 * PRUNE_WINDOW`` on every grant.  ``ClusterBus``
    compares the cycle with a precomputed prune cycle instead; both must
    grant and prune identically."""

    WINDOW = ClusterBus.PRUNE_WINDOW

    def __init__(self):
        self.busy = set()
        self.mark = 0
        self.stats = BusStats()

    def is_free(self, cycle):
        return cycle not in self.busy

    def grant(self, cycle):
        grant = cycle
        while grant in self.busy:
            grant += 1
        self.busy.add(grant)
        self.stats.grants += 1
        if grant != cycle:
            self.stats.delayed_grants += 1
            self.stats.total_delay += grant - cycle
        if cycle - self.mark >= 2 * self.WINDOW:
            self.busy = {c for c in self.busy if c >= cycle - self.WINDOW}
            self.mark = cycle
        return grant


# (name, cycles the clock advances, request lead over the clock).  Runs
# of zero advance contend for the same slots; the long jumps cross the
# 512-cycle prune period within a few ops.
BUS_OP = st.tuples(
    st.sampled_from("grant grant grant free".split()),
    st.one_of(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=600),
    ),
    st.integers(min_value=-8, max_value=8),
)


@QUICK
@given(ops=st.lists(BUS_OP, min_size=10, max_size=120))
def test_bus_matches_mark_model(ops):
    bus, ref = ClusterBus(), MarkBus()
    window = ClusterBus.PRUNE_WINDOW
    clock = 0
    for name, advance, lead in ops:
        clock += advance
        cycle = max(0, clock + lead)
        if name == "grant":
            assert bus.grant(cycle) == ref.grant(cycle)
        else:
            assert bus.is_free(cycle) == ref.is_free(cycle)
        assert bus.stats == ref.stats, name
        # The same busy slots, and the next prune at the same cycle.
        assert bus._busy == ref.busy, name
        assert bus._prune_at == ref.mark + 2 * window, name


class HomeLoopInterleaved(WordInterleavedMemory):
    """Reference model: the store asks ``home_of`` for every written
    word once per attraction buffer, as the model did before hoisting
    the word's home out of the buffer loop."""

    def store(self, cluster, addr, width, hints, cycle, is_primary=True):
        self.modules[self.home_of(addr)].store(addr)
        for word in range(addr // WORD, (addr + width - 1) // WORD + 1):
            for other, buffer in enumerate(self.attraction):
                if other != self.home_of(word * WORD):
                    buffer.invalidate(word)


def _interleaved_state(mem):
    """Every module's sets and every attraction buffer, in LRU order."""
    return (
        [_lru_sets(module) for module in mem.modules],
        [list(buffer._words) for buffer in mem.attraction],
    )


@QUICK
@given(
    n_clusters=st.sampled_from([1, 2, 4, 8]),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["load", "load", "store"]),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=0, max_value=95),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=10,
        max_size=120,
    ),
)
def test_interleaved_store_matches_home_loop_model(n_clusters, ops):
    config = interleaved_config(n_clusters=n_clusters)
    mem, ref = WordInterleavedMemory(config), HomeLoopInterleaved(config)
    for cycle, (name, cluster, addr, width) in enumerate(ops):
        cluster %= n_clusters
        if name == "load":
            got = mem.load(cluster, addr, width, BYPASS_HINTS, cycle)
            assert got == ref.load(cluster, addr, width, BYPASS_HINTS, cycle)
        else:
            mem.store(cluster, addr, width, BYPASS_HINTS, cycle)
            ref.store(cluster, addr, width, BYPASS_HINTS, cycle)
        assert mem.stats == ref.stats, name
        assert _interleaved_state(mem) == _interleaved_state(ref), name


class MSIModel:
    """Reference model of ``MultiVLIWMemory``: the rules of
    ``memory/multivliw.py``'s docstring on plain per-block state.  Each
    cluster's module is an LRU list of at most ``blocks_per_module``
    blocks (oldest first); each block has a set of sharers (S) and at
    most one owner (M); evicting a block from a module drops that
    cluster's copy, an owned one written back to L2."""

    def __init__(self, config):
        self.config = config
        n = config.n_clusters
        self.capacity = max(4, config.l1_size // n // config.l1_block)
        self.modules = [[] for _ in range(n)]
        self.sharers = {}
        self.owner = {}
        self.stats = MSIStats()

    def _copies(self, block):
        """Every cluster holding ``block``, shared or modified."""
        copies = set(self.sharers.get(block, ()))
        if block in self.owner:
            copies.add(self.owner[block])
        return copies

    def _use(self, cluster, block):
        module = self.modules[cluster]
        if block in module:
            module.remove(block)
        while len(module) >= self.capacity:
            self._evict(cluster, module.pop(0))
        module.append(block)

    def _evict(self, cluster, block):
        sharers = self.sharers.pop(block, set()) - {cluster}
        if sharers:
            self.sharers[block] = sharers
        if self.owner.get(block) == cluster:
            del self.owner[block]

    def load(self, cluster, addr, cycle):
        config = self.config
        block = addr // config.l1_block
        copies = self._copies(block)
        if cluster in copies:
            self.stats.local_hits += 1
            latency = config.distributed_local_latency
        elif block in self.owner:
            # A remote modified copy is written back; both end up sharers.
            self.stats.remote_dirty += 1
            self.sharers[block] = {self.owner.pop(block), cluster}
            latency = config.distributed_remote_latency + config.coherence_penalty
        elif copies:
            self.stats.remote_clean += 1
            self.sharers[block] = copies | {cluster}
            latency = config.distributed_remote_latency
        else:
            self.stats.misses_to_l2 += 1
            self.sharers[block] = {cluster}
            latency = config.distributed_local_latency + config.l2_latency
        self._use(cluster, block)
        return cycle + latency

    def store(self, cluster, addr):
        """Take ownership: every other copy is invalidated."""
        block = addr // self.config.l1_block
        copies = self._copies(block)
        if self.owner.get(block) != cluster:
            if cluster not in copies:
                self.stats.store_ownership_misses += 1
            for other in copies - {cluster}:
                self.stats.store_invalidations += 1
                self.modules[other].remove(block)
            self.sharers.pop(block, None)
            self.owner[block] = cluster
        self._use(cluster, block)


# 1, 2 and 4 clusters (the cluster count must divide the block), with
# modules of 4 to 16 blocks: ops draw from 12 blocks, so evictions,
# remote copies and ownership changes are all common.
MSI_MACHINES = st.sampled_from(
    [
        multivliw_config(n_clusters=n, l1_size=size)
        for n in (1, 2, 4)
        for size in (128, 512)
    ]
)
# (name, cluster, block, byte offset, cycles the clock advances).
MSI_OP = st.tuples(
    st.sampled_from(["load", "load", "store"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=31),
    st.integers(min_value=0, max_value=3),
)


def _check_against_msi_model(config, ops):
    mem, ref = MultiVLIWMemory(config), MSIModel(config)
    clock = 0
    for name, cluster, block, offset, dt in ops:
        cluster %= config.n_clusters
        clock += dt
        addr = block * config.l1_block + offset
        if name == "load":
            got = mem.load(cluster, addr, 4, BYPASS_HINTS, clock)
            assert got == ref.load(cluster, addr, clock), name
        else:
            mem.store(cluster, addr, 4, BYPASS_HINTS, clock)
            ref.store(cluster, addr)
        assert mem.stats == ref.stats, name
        # Every module's blocks in LRU order, and the MSI maps.
        assert [list(module) for module in mem._modules] == ref.modules, name
        assert mem._sharers == ref.sharers, name
        assert mem._owner == ref.owner, name


@QUICK
@given(config=MSI_MACHINES, ops=st.lists(MSI_OP, min_size=20, max_size=120))
def test_multivliw_matches_msi_model(config, ops):
    _check_against_msi_model(config, ops)


@pytest.mark.slow
@settings(max_examples=300, deadline=None, phases=NO_EXPLAIN)
@given(config=MSI_MACHINES, ops=st.lists(MSI_OP, min_size=100, max_size=400))
def test_multivliw_matches_msi_model_long(config, ops):
    _check_against_msi_model(config, ops)


@QUICK
@given(
    stride=st.integers(min_value=-8, max_value=8),
    offset=st.integers(min_value=0, max_value=32),
    n=st.sampled_from([64, 256, 1024]),
    iterations=st.integers(min_value=0, max_value=100),
)
def test_pattern_indices_always_in_bounds(stride, offset, n, iterations):
    pattern = AccessPattern(ArrayRef("a", n, 4), stride=stride, offset=offset)
    idx = pattern.element_index(iterations)
    assert 0 <= idx < n


@QUICK
@given(
    s1=st.integers(min_value=-4, max_value=4),
    o1=st.integers(min_value=0, max_value=8),
    s2=st.integers(min_value=-4, max_value=4),
    o2=st.integers(min_value=0, max_value=8),
)
def test_alias_soundness_on_small_window(s1, o1, s2, o2):
    """If two strided patterns collide within a few iterations, the alias
    analysis must say they may alias (no false negatives)."""
    arr = ArrayRef("a", 4096, 4)
    p1 = AccessPattern(arr, stride=s1, offset=o1)
    p2 = AccessPattern(arr, stride=s2, offset=o2)
    collide = any(
        o1 + i * s1 == o2 + j * s2
        for i in range(12)
        for j in range(12)
    )
    if collide:
        assert patterns_may_alias(p1, p2, same_array=True)


@QUICK
@given(
    copies=st.integers(min_value=2, max_value=4),
    stride=st.sampled_from([1, -1, 2, 8]),
    offset=st.integers(min_value=0, max_value=7),
)
def test_unrolled_copies_partition_stream(copies, stride, offset):
    """Unrolled copies' index streams partition the original stream."""
    arr = ArrayRef("a", 1 << 14, 4)
    original = AccessPattern(arr, stride=stride, offset=offset)
    window = copies * 6
    original_stream = [original.element_index(i) for i in range(window)]
    merged = []
    for i in range(6):
        for k in range(copies):
            merged.append(original.unrolled_copy(k, copies).element_index(i))
    assert merged == original_stream
