"""Tests for the program runner: shared layout, flush overhead, counts."""

import pytest

from repro.ir import LoopBuilder
from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import (
    INVALIDATE_OVERHEAD,
    SimOptions,
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


class TestPlanProgram:
    def test_layout_is_shared_across_plans(self):
        """``plan_program``'s one layout places every loop's arrays, an
        array two loops share at one base."""
        a = _loop("a", loads=("x",), stores=("y",))
        b = _loop("b", loads=("x", "z"))
        bench = Benchmark(name="plantest", loops=(LoopSpec(a, 1), LoopSpec(b, 1)))
        layout = plan_program(bench, l0_config(8))
        bases = {}
        for loop in (a, b):
            for array in loop.arrays:
                base = layout.base_of(array)
                assert base is not None, (loop.name, array.name)
                assert bases.setdefault(array.name, base) == base
        assert sorted(bases) == ["x", "y", "z"]
        assert len(set(bases.values())) == 3


class TestFlushOverheadAccounting:
    def _single(self, compiled):
        return (compiled.loop.trip_count - 1) * compiled.ii + compiled.schedule.span

    def test_n_invocations_pay_n_flushes_under_default_policy(self):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64, n=256), config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, _ = run_loop(compiled, memory, layout, invocations=3)
        single = self._single(compiled)
        assert result.compute_cycles == 3 * single + 3 * INVALIDATE_OVERHEAD

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
