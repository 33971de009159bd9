"""Tests for MemoryLayout and the machine configuration layer."""

import pytest

from repro.isa import AccessPattern, ArrayRef, FUClass, MemoryLayout, Opcode
from repro.machine import (
    ArchKind,
    ConfigError,
    MachineConfig,
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.scheduler import ModuloReservationTable


class TestMemoryLayout:
    def test_bases_are_block_aligned(self):
        layout = MemoryLayout(align=32)
        for idx, n in enumerate([7, 100, 33]):
            base = layout.add(ArrayRef(f"a{idx}", n, 2))
            assert base % 32 == 0

    def test_arrays_do_not_overlap(self):
        layout = MemoryLayout(align=32)
        a = ArrayRef("a", 100, 4)
        b = ArrayRef("b", 50, 2)
        base_a = layout.add(a)
        base_b = layout.add(b)
        assert base_b >= base_a + a.size_bytes

    def test_add_is_idempotent(self):
        layout = MemoryLayout()
        a = ArrayRef("a", 10, 4)
        assert layout.add(a) == layout.add(a)

    def test_conflicting_redefinition_rejected(self):
        layout = MemoryLayout()
        layout.add(ArrayRef("a", 10, 4))
        with pytest.raises(ValueError):
            layout.add(ArrayRef("a", 20, 4))

    def test_missing_array_raises(self):
        layout = MemoryLayout()
        with pytest.raises(KeyError):
            layout.base_of(ArrayRef("ghost", 4, 4))

    def test_pattern_address_uses_layout(self):
        layout = MemoryLayout(align=32, start=0x2000)
        arr = ArrayRef("a", 64, 4)
        layout.add(arr)
        p = AccessPattern(arr, stride=1, offset=3)
        assert p.address(0, layout) == 0x2000 + 12

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ValueError):
            MemoryLayout(align=24)


class TestMachineConfig:
    def test_table2_defaults(self):
        cfg = l0_config(8)
        assert cfg.n_clusters == 4
        assert cfg.l0_latency == 1
        assert cfg.l1_latency == 6
        assert cfg.l1_size == 8 * 1024
        assert cfg.l1_assoc == 2
        assert cfg.l1_block == 32
        assert cfg.l2_latency == 10
        assert cfg.n_buses == 4
        assert cfg.bus_latency == 2
        assert cfg.subblock_bytes == 8  # 32-byte block / 4 clusters

    def test_arch_factories(self):
        assert unified_config().arch is ArchKind.UNIFIED
        assert l0_config().arch is ArchKind.L0
        assert multivliw_config().arch is ArchKind.MULTIVLIW
        assert interleaved_config().arch is ArchKind.INTERLEAVED

    def test_unbounded_l0(self):
        assert l0_config(None).l0_entries is None

    def test_invalid_entries_rejected(self):
        with pytest.raises(ValueError):
            l0_config(0)

    def test_block_must_divide_into_subblocks(self):
        with pytest.raises(ValueError):
            MachineConfig(n_clusters=3, l1_block=32)

    def test_with_l0_entries(self):
        cfg = l0_config(8).with_l0_entries(4)
        assert cfg.l0_entries == 4
        assert cfg.arch is ArchKind.L0

    def test_latency_lookup(self):
        cfg = unified_config()
        assert cfg.latency_of(Opcode.IADD) == 1
        assert cfg.latency_of(Opcode.FDIV) == 8

    @pytest.mark.parametrize(
        "factory",
        [
            MachineConfig,
            unified_config,
            l0_config,
            multivliw_config,
            interleaved_config,
        ],
    )
    def test_table2_defaults_construct(self, factory):
        assert factory().l1_block == 32

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_clusters": 0},
            {"n_clusters": 3},  # 32-byte block does not split in three
            {"l0_entries": 0},
            {"l1_block": 0},
            {"l1_block": -32},
            {"l1_block": 12},
            {"l1_block": 24},
            {"l1_assoc": 0},
            {"l1_assoc": -2},
            {"l1_size": 0},
            {"l1_size": 100},
            {"l1_size": 96},  # a multiple of the block, not of assoc * block
            {"int_units_per_cluster": 0},
            {"mem_units_per_cluster": 0},
            {"fp_units_per_cluster": 0},
            {"attraction_entries": 0},
            {"n_buses": -1},
            # 320 is a multiple of 2 * 32, but each of the four
            # word-interleaved modules would hold 80 bytes, which is not.
            {"l1_size": 320, "arch": ArchKind.INTERLEAVED},
        ],
        ids=lambda overrides: "{}={}".format(*next(iter(overrides.items()))),
    )
    def test_bad_geometry_rejected(self, overrides):
        with pytest.raises(ConfigError):
            MachineConfig(**overrides)

    DELAYS = [
        "l0_latency",
        "l1_latency",
        "l2_latency",
        "bus_latency",
        "distributed_local_latency",
        "distributed_remote_latency",
        "attraction_latency",
        "interleave_penalty",
        "coherence_penalty",
    ]

    @pytest.mark.parametrize("name", DELAYS)
    def test_negative_delay_rejected(self, name):
        with pytest.raises(ConfigError, match=name):
            MachineConfig(**{name: -1})

    @pytest.mark.parametrize("name", DELAYS)
    def test_zero_delay_accepted(self, name):
        assert getattr(MachineConfig(**{name: 0}), name) == 0


class TestResourceModel:
    """The Table 2 machine's per-cycle issue resources, as the modulo
    reservation table counts them."""

    def test_capacities(self):
        mrt = ModuloReservationTable(1, l0_config())
        assert mrt.bus_free(0) == 4
        for fu_class, cluster in ((FUClass.INT, 0), (FUClass.MEM, 3)):
            mrt.fu_place(0, fu_class, cluster)
            assert mrt.fu_used(0, fu_class, cluster) == 1
            assert not mrt.fu_can_place(0, fu_class, cluster)

    def test_total_fu_slots(self):
        config = l0_config()
        mrt = ModuloReservationTable(1, config)
        slots = 0
        for cluster in range(config.n_clusters):
            while mrt.fu_can_place(0, FUClass.MEM, cluster):
                mrt.fu_place(0, FUClass.MEM, cluster)
                slots += 1
        assert slots == 4
