"""Tests for register pressure (MaxLive) and selective inter-loop flushing."""


from repro.analysis.lifetimes import (
    check_register_pressure,
    live_intervals,
    max_live_per_cluster,
)
from repro.ir import LoopBuilder
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import SimOptions, flush_needed, loops_may_conflict, run_program
from repro.workloads import Benchmark, LoopSpec, kernels

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


class TestSelectiveFlush:
    def _loop(self, name, array_name, *, store=False, n=512):
        b = LoopBuilder(name, trip_count=64)
        arr = b.array(array_name, n, 4)
        v = b.load(arr, stride=1, tag="ld")
        k = b.live_in("k")
        w = b.iadd(v, k)
        if store:
            b.store(arr, w, stride=1, tag="st")
        else:
            out = b.array(f"{name}_out", n, 4)
            b.store(out, w, stride=1, tag="st")
        return b.build()

    def test_disjoint_loops_need_no_flush(self):
        a = self._loop("first", "alpha", store=True)
        b = self._loop("second", "beta", store=True)
        assert not loops_may_conflict(a, b)
        assert not flush_needed(a, b)

    def test_write_then_read_needs_flush(self):
        writer = self._loop("writer", "shared", store=True)
        reader = self._loop("reader", "shared", store=False)
        assert loops_may_conflict(writer, reader)

    def test_read_then_write_needs_flush(self):
        """The next loop's stores invalidate what the previous cached."""
        reader = self._loop("reader", "shared", store=False)
        writer = self._loop("writer", "shared", store=True)
        assert loops_may_conflict(reader, writer)

    def test_pure_readers_share_buffers(self):
        a = self._loop("r1", "table", store=False)
        b = self._loop("r2", "table", store=False)
        # Neither loop stores to 'table' (stores go to the _out arrays),
        # so the shared read-only data needs no flush between them.
        assert not loops_may_conflict(a, b)

    def test_program_edges_always_flush(self):
        loop = self._loop("only", "x")
        assert flush_needed(None, loop)
        assert flush_needed(loop, None)

    def test_selective_flush_is_coherent_end_to_end(self):
        """Running with selective flushing must never read stale data."""
        bench = Benchmark(
            name="flushtest",
            loops=(
                LoopSpec(kernels.stream_map("sf_a", trip=200, n=256, elem=4,
                                            taps=1, alu_depth=3), 3),
                LoopSpec(kernels.stream_map("sf_b", trip=200, n=256, elem=4,
                                            taps=1, alu_depth=3,
                                            in_place=True), 3),
            ),
        )
        options = SimOptions(sim_cap=250, selective_flush=True)
        result = run_program(bench, l0_config(8), options=options)
        assert result.memory_stats.coherence_violations == 0

    def test_selective_flush_never_slower(self):
        bench_loops = (
            LoopSpec(kernels.stream_map("sfc_a", trip=200, n=256, elem=4,
                                        taps=1, alu_depth=3), 4),
        )
        bench = Benchmark(name="flushcmp", loops=bench_loops)
        always = run_program(
            bench, l0_config(8), options=SimOptions(sim_cap=250)
        )
        bench2 = Benchmark(name="flushcmp", loops=(
            LoopSpec(kernels.stream_map("sfc_a", trip=200, n=256, elem=4,
                                        taps=1, alu_depth=3), 4),
        ))
        selective = run_program(
            bench2, l0_config(8),
            options=SimOptions(sim_cap=250, selective_flush=True),
        )
        assert selective.total_cycles <= always.total_cycles
