"""Tests for register pressure (MaxLive)."""


from repro.analysis.lifetimes import (
    check_register_pressure,
    live_intervals,
    max_live_per_cluster,
)
from repro.ir import LoopBuilder
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.workloads.kernels import make_dpcm


class TestMaxLive:
    def test_lifetimes_nonnegative_and_clustered(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        intervals = live_intervals(compiled.schedule, compiled.ddg)
        assert intervals
        for _uid, cluster, first, last in intervals:
            assert last >= first
            assert 0 <= cluster < 4

    def test_max_live_positive_where_values_flow(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        pressure = max_live_per_cluster(compiled.schedule, compiled.ddg)
        assert set(pressure) == {0, 1, 2, 3}
        assert max(pressure.values()) >= 1

    def test_l0_schedule_has_lower_or_equal_pressure(self, dpcm):
        """Shorter load latencies shorten lifetimes (paper section 4.2)."""
        base = compile_loop(make_dpcm(), unified_config(), unroll_factor=1)
        l0 = compile_loop(make_dpcm(), l0_config(8), unroll_factor=1)
        base_p = max(max_live_per_cluster(base.schedule, base.ddg).values())
        l0_p = max(max_live_per_cluster(l0.schedule, l0.ddg).values())
        assert l0_p <= base_p

    def test_suite_register_pressure_certifies_clean(self):
        from repro.workloads import build

        for spec in build("gsmdec").loops:
            compiled = compile_loop(spec.loop, l0_config(8))
            assert check_register_pressure(compiled.schedule, compiled.ddg) == []

    def test_longer_lifetimes_raise_pressure(self):
        """A wide fan-in of long-lived loads needs more registers than a
        short chain."""
        def chain(n_loads):
            b = LoopBuilder(f"fan{n_loads}", trip_count=32)
            arr = b.array("a", 512, 4)
            vals = [b.load(arr, stride=1, offset=k) for k in range(n_loads)]
            acc = vals[0]
            for v in vals[1:]:
                acc = b.iadd(acc, v)
            out = b.array("o", 512, 4)
            b.store(out, acc, stride=1)
            return b.build()

        small = compile_loop(chain(2), unified_config(), unroll_factor=1)
        large = compile_loop(chain(6), unified_config(), unroll_factor=1)
        assert sum(max_live_per_cluster(large.schedule, large.ddg).values()) >= sum(
            max_live_per_cluster(small.schedule, small.ddg).values()
        )
