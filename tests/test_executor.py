"""Tests for the lock-step cycle-level executor and the program runner."""

import pytest

from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import (
    INVALIDATE_OVERHEAD,
    LoopExecutor,
    SimOptions,
    make_memory,
    run_loop,
    run_program,
)
from repro.sim.runner import WARM_INVOCATIONS
from repro.workloads import build, kernels

from repro.workloads.kernels import make_dpcm, make_saxpy


def execute(loop, config, iterations=None, **compile_kwargs):
    compiled = compile_loop(loop, config, **compile_kwargs)
    memory = make_memory(config)
    layout = MemoryLayout(align=config.l1_block)
    executor = LoopExecutor(compiled, memory, layout)
    result = executor.run(iterations or compiled.loop.trip_count)
    return compiled, memory, result


class TestComputeTime:
    def test_no_stall_when_l1_always_hits_scheduled_latency(self):
        """Baseline on an L1-resident loop: only cold misses stall."""
        loop = make_saxpy(trip=512, n=256)  # 2KB arrays, L1-resident
        compiled, memory, result = execute(loop, unified_config())
        sched = compiled.schedule
        expected_compute = (compiled.loop.trip_count - 1) * sched.ii + sched.span
        assert result.compute_cycles == expected_compute
        # Stalls only from the ~32+32 cold block misses (+10 each, lock-step).
        assert 0 < result.stall_cycles <= 64 * 10

    def test_warm_run_has_no_stalls(self):
        loop = make_saxpy(trip=512, n=256)
        config = unified_config()
        compiled = compile_loop(loop, config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        executor = LoopExecutor(compiled, memory, layout)
        executor.run(compiled.loop.trip_count)
        warm = executor.run(compiled.loop.trip_count, start_cycle=10_000)
        assert warm.stall_cycles == 0

    def test_l0_recurrence_loop_beats_baseline(self):
        loop = make_dpcm(trip=512, n=512)
        base_c, _, base_r = execute(loop, unified_config(), unroll_factor=1)
        l0_c, _, l0_r = execute(make_dpcm(trip=512, n=512), l0_config(8),
                                unroll_factor=1)
        assert l0_c.ii < base_c.ii
        assert l0_r.total_cycles < base_r.total_cycles

    def test_late_loads_counted(self):
        loop = make_saxpy(trip=128, n=4096)  # 16KB streams: L1 misses
        _, _, result = execute(loop, unified_config())
        assert result.late_loads > 0

    def test_iterations_must_be_positive(self):
        loop = make_saxpy()
        compiled = compile_loop(loop, unified_config())
        memory = make_memory(unified_config())
        executor = LoopExecutor(compiled, memory, MemoryLayout())
        with pytest.raises(ValueError):
            executor.run(0)

    def test_stall_history_shape(self):
        loop = make_saxpy(trip=64, n=256)
        compiled = compile_loop(loop, unified_config())
        memory = make_memory(unified_config())
        executor = LoopExecutor(compiled, memory, MemoryLayout())
        result = executor.run(16)
        history = executor.last_stall_by_iteration
        assert len(history) == 16
        assert sum(history) == result.stall_cycles


class TestCoherenceAtRuntime:
    def test_compiled_schedules_never_violate_coherence(self):
        """The compiler's 1C/NL0 + invalidation keeps L0 reads fresh."""
        for loop_maker in (make_saxpy, make_dpcm):
            loop = loop_maker(trip=256, n=512)
            config = l0_config(8)
            compiled = compile_loop(loop, config)
            memory = make_memory(config)
            layout = MemoryLayout(align=config.l1_block)
            executor = LoopExecutor(compiled, memory, layout)
            executor.run(compiled.loop.trip_count)
            assert memory.stats.coherence_violations == 0

    def test_inplace_update_loop_coherent(self):
        loop = kernels.stream_map(
            "inplace", trip=256, n=512, elem=2, taps=1, alu_depth=3, in_place=True
        )
        config = l0_config(8)
        compiled = compile_loop(loop, config)
        memory = make_memory(config)
        executor = LoopExecutor(compiled, memory, MemoryLayout(align=32))
        executor.run(compiled.loop.trip_count)
        assert memory.stats.coherence_violations == 0


class TestRunLoop:
    def test_invocation_scaling(self):
        loop = make_saxpy(trip=128, n=256)
        config = l0_config(8)
        compiled = compile_loop(loop, config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, clock = run_loop(compiled, memory, layout, invocations=5)
        assert result.invocations == 5
        single = (compiled.loop.trip_count - 1) * compiled.ii + compiled.schedule.span
        assert result.compute_cycles == 5 * (single + INVALIDATE_OVERHEAD)
        assert clock > 0

    def test_trip_extrapolation(self):
        loop = make_saxpy(trip=4096, n=256)
        config = unified_config()
        compiled = compile_loop(loop, config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        options = SimOptions(sim_cap=200)
        result, _ = run_loop(compiled, memory, layout, options=options)
        trip = compiled.loop.trip_count
        assert (
            result.compute_cycles == (trip - 1) * compiled.ii + compiled.schedule.span
        )

    @pytest.mark.parametrize("invocations", [1, 2, 3, 5])
    def test_l0_flushed_between_invocations(self, invocations):
        """One flush of every cluster's buffer after each simulated
        invocation: the cold one and at most ``WARM_INVOCATIONS`` warm
        ones (the rest replicate the last and flush nothing)."""
        loop = make_saxpy(trip=64, n=256)
        config = l0_config(8)
        compiled = compile_loop(loop, config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        run_loop(compiled, memory, layout, invocations=invocations)
        simulated = min(invocations, 1 + WARM_INVOCATIONS)
        assert memory.stats.l0.invalidate_alls == simulated * config.n_clusters


class TestRunProgram:
    def test_program_aggregates_loops(self):
        bench = build("g721dec")
        result = run_program(bench, unified_config(), options=SimOptions(sim_cap=300))
        assert result.benchmark == "g721dec"
        assert len(result.loops) == len(bench.loops)
        assert result.total_cycles == sum(l.total_cycles for l in result.loops)

    def test_determinism(self):
        options = SimOptions(sim_cap=200)
        a = run_program(build("gsmdec"), l0_config(8), options=options)
        b = run_program(build("gsmdec"), l0_config(8), options=options)
        assert a.total_cycles == b.total_cycles
        assert a.stall_cycles == b.stall_cycles

    def test_average_unroll_factor_weighted(self):
        result = run_program(
            build("g721dec"), l0_config(8), options=SimOptions(sim_cap=200)
        )
        assert 1.0 <= result.average_unroll_factor <= 4.0
