"""Tests for the set-associative cache model and the cluster buses."""

import pytest

from repro.memory import ClusterBus, SetAssocCache


class TestSetAssocCache:
    def make(self, size=256, assoc=2, block=32):
        return SetAssocCache(size=size, assoc=assoc, block=block)

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SetAssocCache(size=100, assoc=2, block=32)

    def test_load_allocates(self):
        cache = self.make()
        assert not cache.load(0x100)
        assert cache.load(0x100)
        assert cache.load(0x11F)  # same 32-byte block

    def test_lru_within_set(self):
        cache = self.make(size=128, assoc=2, block=32)  # 2 sets
        # Set 0 holds block addrs with (addr//32) % 2 == 0.
        cache.load(0x000)
        cache.load(0x080)  # same set (block 4)
        cache.load(0x000)  # touch
        cache.load(0x100)  # evicts 0x080
        assert cache.probe(0x000)
        assert not cache.probe(0x080)

    def test_store_write_through_no_allocate(self):
        cache = self.make()
        assert not cache.store(0x100)
        assert not cache.probe(0x100)  # no allocation on store miss
        cache.load(0x100)
        assert cache.store(0x100)

    def test_invalidate(self):
        cache = self.make()
        cache.load(0x100)
        assert cache.invalidate(0x100)
        assert not cache.probe(0x100)
        assert not cache.invalidate(0x100)

    def test_stats(self):
        cache = self.make()
        cache.load(0x0)
        cache.load(0x0)
        cache.store(0x0)
        cache.store(0x40)
        stats = cache.stats
        assert (stats.load_hits, stats.load_misses) == (1, 1)
        assert (stats.store_hits, stats.store_misses) == (1, 1)
        assert stats.load_hit_rate == 0.5

    def test_resident_blocks(self):
        cache = self.make()
        for i in range(3):
            cache.load(i * 32)
        assert cache.resident_blocks() == 3

    def test_invalidate_all(self):
        cache = self.make()
        cache.load(0x0)
        cache.invalidate_all()
        assert cache.resident_blocks() == 0


class TestClusterBus:
    def test_grant_free_cycle(self):
        bus = ClusterBus()
        assert bus.grant(10) == 10
        assert not bus.is_free(10)

    def test_conflict_delays(self):
        bus = ClusterBus()
        bus.grant(5)
        assert bus.grant(5) == 6
        assert bus.grant(5) == 7
        assert bus.stats.delayed_grants == 2
        assert bus.stats.total_delay == 3

    def test_pruning_preserves_recent_state(self):
        bus = ClusterBus()
        bus.grant(0)
        for cycle in range(1000, 1010):
            bus.grant(cycle)
        # Old entries pruned; recent occupancy still visible.
        assert not bus.is_free(1005)
