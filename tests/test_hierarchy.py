"""Tests for the unified hierarchy (L0 + L1 + buses) timing and semantics."""

from repro.isa import AccessHint, HintBundle, MapHint, PrefetchHint
from repro.machine import l0_config, unified_config
from repro.memory import UnifiedMemory

PAR = HintBundle(access=AccessHint.PAR_ACCESS)
SEQ = HintBundle(access=AccessHint.SEQ_ACCESS)
NO = HintBundle(access=AccessHint.NO_ACCESS)
PAR_INT = HintBundle(access=AccessHint.PAR_ACCESS, mapping=MapHint.INTERLEAVED)


def make_mem(entries=8):
    return UnifiedMemory(l0_config(entries))


class TestBaselineLoads:
    def test_no_access_goes_to_l1(self):
        mem = UnifiedMemory(unified_config())
        # Cold: L1 miss -> L1 + L2 latency.
        assert mem.load(0, 0x100, 4, NO, cycle=0) == 0 + 6 + 10
        # Warm: L1 hit.
        assert mem.load(0, 0x104, 4, NO, cycle=20) == 20 + 6

    def test_bus_conflict_delays_l1_load(self):
        mem = UnifiedMemory(unified_config())
        mem.load(0, 0x100, 4, NO, cycle=0)
        ready = mem.load(0, 0x200, 4, NO, cycle=0)  # same bus, same cycle
        assert ready == 1 + 6 + 10

    def test_different_clusters_no_conflict(self):
        mem = UnifiedMemory(unified_config())
        mem.load(0, 0x100, 4, NO, cycle=0)
        assert mem.load(1, 0x200, 4, NO, cycle=0) == 16


class TestL0Loads:
    def test_par_miss_fills_linear(self):
        mem = make_mem()
        ready = mem.load(0, 0x100, 4, PAR, cycle=0)
        assert ready == 16  # L1 miss on a cold cache
        assert mem.l0[0].find(0x100, 4) is not None
        # Second access within the subblock hits but waits for the fill.
        ready2 = mem.load(0, 0x104, 4, PAR, cycle=1)
        assert ready2 == 16
        assert mem.stats.l0.hits == 1

    def test_l0_hit_after_fill_is_one_cycle(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        assert mem.load(0, 0x104, 4, PAR, cycle=30) == 31

    def test_seq_miss_uses_next_cycle_bus(self):
        mem = make_mem()
        mem.l1.load(0x100)  # pre-warm L1
        ready = mem.load(0, 0x100, 4, SEQ, cycle=10)
        assert ready == 11 + 6  # request issued at cycle 11

    def test_seq_hit_skips_l1(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        grants_before = mem.stats.bus.grants
        mem.load(0, 0x100, 4, SEQ, cycle=30)
        assert mem.stats.bus.grants == grants_before  # no L1 traffic

    def test_par_hit_still_sends_l1_request(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        grants_before = mem.stats.bus.grants
        mem.load(0, 0x100, 4, PAR, cycle=30)
        assert mem.stats.bus.grants == grants_before + 1

    def test_interleaved_fill_distributes_block(self):
        mem = make_mem()
        # 4-byte elements: block has 8 elements, residues mod 4.
        ready = mem.load(1, 0x200, 4, PAR_INT, cycle=0)
        assert ready == 17  # +1 shift/interleave penalty over the L2 miss
        # Element 0 (residue 0) lives in the accessing cluster 1.
        assert mem.l0[1].find(0x200, 4) is not None
        # Element 1 (residue 1) lives in cluster 2, etc.
        assert mem.l0[2].find(0x204, 4) is not None
        assert mem.l0[3].find(0x208, 4) is not None
        assert mem.l0[0].find(0x20C, 4) is not None
        # Element 4 shares residue 0 -> cluster 1 again.
        assert mem.l0[1].find(0x210, 4) is not None


class TestPrefetchHints:
    def test_positive_linear_prefetch_on_last_element(self):
        mem = make_mem()
        hints = HintBundle(
            access=AccessHint.PAR_ACCESS, prefetch=PrefetchHint.POSITIVE
        )
        mem.load(0, 0x100, 4, hints, cycle=0)
        assert mem.l0[0].find(0x108, 4) is None
        # Touch the last element of the subblock -> next subblock fetched.
        mem.load(0, 0x104, 4, hints, cycle=30)
        assert mem.l0[0].find(0x108, 4) is not None
        assert mem.stats.prefetch_requests == 1

    def test_negative_prefetch_on_first_element(self):
        mem = make_mem()
        hints = HintBundle(
            access=AccessHint.PAR_ACCESS, prefetch=PrefetchHint.NEGATIVE
        )
        mem.load(0, 0x108, 4, hints, cycle=0)
        mem.load(0, 0x108, 4, hints, cycle=30)  # first element of its subblock
        assert mem.l0[0].find(0x100, 4) is not None

    def test_prefetch_dropped_when_bus_busy(self):
        mem = make_mem()
        hints = HintBundle(
            access=AccessHint.PAR_ACCESS, prefetch=PrefetchHint.POSITIVE
        )
        mem.load(0, 0x100, 4, hints, cycle=0)  # first element: no trigger
        mem.buses[0].grant(31)  # occupy the slot after the next access
        mem.load(0, 0x104, 4, hints, cycle=30)  # last element: trigger
        assert mem.stats.dropped_prefetches >= 1
        assert mem.l0[0].find(0x108, 4) is None

    def test_interleaved_prefetch_brings_next_block_everywhere(self):
        mem = make_mem()
        hints = HintBundle(
            access=AccessHint.PAR_ACCESS,
            mapping=MapHint.INTERLEAVED,
            prefetch=PrefetchHint.POSITIVE,
        )
        mem.load(0, 0x200, 4, hints, cycle=0)
        # Last element of cluster 0's residue-0 subblock is element 4.
        mem.load(0, 0x210, 4, hints, cycle=40)
        for cluster in range(4):
            entries = mem.l0[cluster].entries()
            assert any(e.block_addr == 0x220 for e in entries)

    def test_distance_two_prefetches_two_ahead(self):
        mem = make_mem()
        hints = HintBundle(
            access=AccessHint.PAR_ACCESS,
            prefetch=PrefetchHint.POSITIVE,
            prefetch_distance=2,
        )
        mem.load(0, 0x104, 4, hints, cycle=0)
        mem.load(0, 0x104, 4, hints, cycle=40)
        assert mem.l0[0].find(0x110, 4) is not None  # two subblocks ahead

    def test_explicit_prefetch(self):
        mem = make_mem()
        mem.prefetch(0, 0x300, 4, cycle=0)
        assert mem.l0[0].find(0x300, 4) is not None
        assert mem.stats.explicit_prefetches == 1
        mem.prefetch(0, 0x300, 4, cycle=50)  # already present: no-op
        assert mem.stats.explicit_prefetches == 1


class TestStoresAndCoherence:
    def test_store_par_updates_local_l0(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        mem.store(0, 0x100, 4, PAR, cycle=30)
        entry = mem.l0[0].find(0x100, 4)
        assert entry.update_time == 30
        # A later local load sees fresh data: no violation.
        mem.load(0, 0x100, 4, PAR, cycle=40)
        assert mem.stats.coherence_violations == 0

    def test_remote_store_makes_l0_stale(self):
        """A store in another cluster is NOT propagated to remote L0s —
        reading the old entry is a coherence violation the compiler must
        prevent; the model detects it."""
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        mem.store(1, 0x100, 4, NO, cycle=30)
        mem.load(0, 0x100, 4, PAR, cycle=40)
        assert mem.stats.coherence_violations == 1

    def test_psr_replica_invalidates_without_l1_traffic(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        grants = mem.stats.bus.grants
        mem.store(0, 0x100, 4, PAR, cycle=30, is_primary=False)
        assert mem.l0[0].find(0x100, 4) is None
        assert mem.stats.bus.grants == grants

    def test_invalidate_l0_clears_all_buffers(self):
        mem = make_mem()
        for cluster in range(4):
            mem.load(cluster, 0x100 * (cluster + 1), 4, PAR, cycle=0)
        mem.invalidate_l0(cycle=100)
        assert all(len(buf) == 0 for buf in mem.l0)

    def test_l1_always_current_after_store(self):
        mem = make_mem()
        mem.load(0, 0x100, 4, PAR, cycle=0)
        mem.store(1, 0x100, 4, NO, cycle=30)
        # NO_ACCESS load from any cluster reads L1: no violation recorded.
        violations = mem.stats.coherence_violations
        mem.load(2, 0x100, 4, NO, cycle=40)
        assert mem.stats.coherence_violations == violations
