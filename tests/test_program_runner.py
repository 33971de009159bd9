"""Tests for the three-phase program runner and the selective-flush fixes."""

import pytest

from repro.ir import LoopBuilder
from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import (
    INVALIDATE_OVERHEAD,
    SimOptions,
    invocation_flush_needed,
    make_memory,
    plan_program,
    run_loop,
    run_program,
)
from repro.workloads import Benchmark, LoopSpec, build, kernels


def _loop(name, *, loads=(), stores=(), trip=64, n=256):
    """A loop loading from ``loads`` arrays and storing to ``stores``."""
    b = LoopBuilder(name, trip_count=trip)
    k = b.live_in("k")
    acc = k
    for array_name in loads:
        arr = b.array(array_name, n, 4)
        acc = b.iadd(acc, b.load(arr, stride=1))
    for array_name in stores:
        arr = b.array(array_name, n, 4)
        b.store(arr, acc, stride=1)
    return b.build()


class TestInvocationFlushPredicate:
    def test_streaming_loop_keeps_buffers_warm(self):
        """Loads and stores over disjoint arrays: nothing the loop reads
        can go stale between its own invocations (the old code compared
        the loop against itself and flushed every storing loop)."""
        assert not invocation_flush_needed(_loop("s", loads=("a",), stores=("o",)))

    def test_read_only_loop_keeps_buffers_warm(self):
        assert not invocation_flush_needed(_loop("r", loads=("t",), stores=()))

    def test_in_place_loop_flushes(self):
        assert invocation_flush_needed(_loop("w", loads=("x",), stores=("x",)))

    def test_aliased_arrays_flush(self):
        b = LoopBuilder("alias", trip_count=32)
        src = b.array("src", 256, 4)
        dst = b.array("dst", 256, 4)
        b.store(dst, b.iadd(b.load(src, stride=1), b.live_in("k")), stride=1)
        b.alias(src, dst)
        assert invocation_flush_needed(b.build())


class TestPlanProgram:
    def _bench(self, loops, invocations=None):
        invocations = invocations or [1] * len(loops)
        return Benchmark(
            name="plantest",
            loops=tuple(LoopSpec(l, i) for l, i in zip(loops, invocations)),
        )

    def test_conservative_policy_always_flushes(self):
        bench = self._bench([_loop("a", loads=("x",), stores=("y",))])
        (plan,) = plan_program(bench, l0_config(8), SimOptions())
        assert plan.flush_between and plan.flush_after

    def test_selective_flush_uses_reuse_pattern_not_self_comparison(self):
        bench = self._bench(
            [_loop("stream", loads=("a",), stores=("o",))], invocations=[4]
        )
        (plan,) = plan_program(
            bench, l0_config(8), SimOptions(selective_flush=True)
        )
        assert not plan.flush_between  # the old self-comparison forced True
        assert plan.flush_after  # program exit always flushes

    def test_unflushed_bookkeeping_tracks_older_resident_loops(self):
        """A single-invocation loop with a between-flush policy performs
        no flush: older loops stay resident and must still be checked.

        A stores X; B is in-place on Y (between-flush policy, but only
        one invocation, so nothing is flushed); C reads Z only.  D then
        loads X, so the flush decision at C must still see A resident —
        the old bookkeeping reset ``unflushed`` to [B] and let D read
        A's stale entries.
        """
        a = _loop("a", loads=("w",), stores=("x",))
        bloop = _loop("b", loads=("y",), stores=("y",))
        c = _loop("c", loads=("z",), stores=("c_out",))
        d = _loop("d", loads=("x",), stores=("d_out",))
        bench = self._bench([a, bloop, c, d])
        plans = plan_program(bench, l0_config(8), SimOptions(selective_flush=True))
        assert not plans[0].flush_after  # A vs B: disjoint
        assert not plans[1].flush_after  # {A,B} vs C: disjoint
        assert plans[2].flush_after  # {A,B,C} vs D: A stored X, D loads X

    def test_layout_is_shared_across_plans(self):
        bench = self._bench(
            [_loop("a", loads=("x",)), _loop("b", loads=("x", "y"))]
        )
        plans = plan_program(bench, l0_config(8), SimOptions())
        assert plans[0].layout is plans[1].layout
        assert plans[0].layout.base_of(plans[1].loop.arrays[0]) is not None


class TestFlushOverheadAccounting:
    def _single(self, compiled):
        return (compiled.loop.trip_count - 1) * compiled.ii + compiled.schedule.span

    def _run(self, invocations, flush_between, flush_after):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64, n=256), config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, _ = run_loop(
            compiled,
            memory,
            layout,
            invocations=invocations,
            flush_between=flush_between,
            flush_after=flush_after,
        )
        return result, self._single(compiled)

    def test_n_invocations_pay_n_flushes_under_default_policy(self):
        result, single = self._run(3, True, True)
        assert result.compute_cycles == 3 * single + 3 * INVALIDATE_OVERHEAD

    def test_skipped_after_flush_drops_one_overhead(self):
        result, single = self._run(3, True, False)
        assert result.compute_cycles == 3 * single + 2 * INVALIDATE_OVERHEAD

    def test_between_flush_skipped_still_pays_final_flush(self):
        result, single = self._run(2, False, True)
        assert result.compute_cycles == 2 * single + 1 * INVALIDATE_OVERHEAD

    def test_no_flushes_no_overhead(self):
        result, single = self._run(1, True, False)
        assert result.compute_cycles == single

    def test_non_l0_architecture_never_pays(self):
        config = unified_config()
        compiled = compile_loop(kernels.make_saxpy(trip=64, n=256), config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, _ = run_loop(compiled, memory, layout, invocations=2)
        single = self._single(compiled)
        assert result.compute_cycles == 2 * single


class TestInvocationCount:
    """A loop is entered at least once: a count below one is refused
    when the spec is built and when ``run_loop`` is called, instead of
    simulating one invocation and reporting the count."""

    @pytest.mark.parametrize("invocations", [0, -2])
    def test_loop_spec_rejects_non_positive_invocations(self, invocations):
        with pytest.raises(ValueError, match="invocations must be >= 1"):
            LoopSpec(kernels.make_saxpy(trip=64), invocations)

    @pytest.mark.parametrize("invocations", [0, -2])
    def test_run_loop_rejects_non_positive_invocations(self, invocations):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64), config)
        with pytest.raises(ValueError, match="invocations must be >= 1"):
            run_loop(
                compiled,
                make_memory(config),
                MemoryLayout(align=config.l1_block),
                invocations=invocations,
            )


class TestIntegerCounts:
    """Trip counts, invocation counts and the sim cap are ints: a float
    or a bool is refused with ``TypeError`` where the value is built,
    instead of yielding fractional cycle counts or failing deep inside
    the executor."""

    @pytest.mark.parametrize("trip", [64.5, 64.0, True])
    def test_loop_rejects_non_int_trip_count(self, trip):
        with pytest.raises(TypeError, match="trip_count must be an int"):
            kernels.make_saxpy(trip=trip)

    @pytest.mark.parametrize("invocations", [2.5, 2.0, True])
    def test_loop_spec_rejects_non_int_invocations(self, invocations):
        with pytest.raises(TypeError, match="invocations must be an int"):
            LoopSpec(kernels.make_saxpy(trip=64), invocations)

    @pytest.mark.parametrize("invocations", [2.5, True])
    def test_run_loop_rejects_non_int_invocations(self, invocations):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64), config)
        with pytest.raises(TypeError, match="invocations must be an int"):
            run_loop(
                compiled,
                make_memory(config),
                MemoryLayout(align=config.l1_block),
                invocations=invocations,
            )

    @pytest.mark.parametrize("sim_cap", [100.5, 100.0, True])
    def test_sim_options_reject_non_int_sim_cap(self, sim_cap):
        with pytest.raises(TypeError, match="sim_cap must be an int"):
            SimOptions(sim_cap=sim_cap)


class TestLoopLevelParallelism:
    """Per-loop simulation stitched into one program record."""

    def test_program_stats_are_merged_across_loops(self):
        bench = build("gsmdec")
        whole = run_program(bench, l0_config(8), options=SimOptions(sim_cap=120))
        assert whole.memory_stats.l0.accesses > 0
        total_loops = sum(
            run_program(
                Benchmark(name="one", loops=(spec,)),
                l0_config(8),
                options=SimOptions(sim_cap=120),
            ).memory_stats.l0.accesses
            for spec in bench.loops
        )
        assert whole.memory_stats.l0.accesses == total_loops

    def test_selective_flush_warm_invocations_beat_conservative(self):
        """With the fixed predicate, a streaming loop whose working set
        fits the L0 keeps its buffers warm across invocations and must
        run strictly faster than under the always-flush policy (which
        re-faults the whole set every invocation)."""
        loops = (
            LoopSpec(kernels.stream_map("warm_a", trip=200, n=256, elem=4,
                                        taps=1, alu_depth=3), 4),
        )
        config = l0_config(None)  # unbounded: flushing is the only loss
        always = run_program(
            Benchmark(name="warmcmp", loops=loops),
            config,
            options=SimOptions(sim_cap=250),
        )
        selective = run_program(
            Benchmark(name="warmcmp", loops=loops),
            config,
            options=SimOptions(sim_cap=250, selective_flush=True),
        )
        assert selective.stall_cycles < always.stall_cycles
        assert selective.total_cycles < always.total_cycles
        assert (
            selective.memory_stats.l0.invalidate_alls
            < always.memory_stats.l0.invalidate_alls
        )
