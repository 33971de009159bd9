"""Differential oracle: the trace fast path vs the reference interpreter.

Every test here asserts *byte-identity*: same ``LoopRunResult`` cycle
counts, same per-iteration stall history, same memory-statistics record
(nested dataclass equality covers every counter) — over the kernel zoo,
the four memory models, both scheduler backends, and long runs that walk
their arrays many times.  The fast lane runs a representative subset;
the ``slow``-marked matrix is exhaustive.
"""

from __future__ import annotations

import copy
import math
import pickle

import pytest

from repro.isa import MemoryLayout
from repro.isa.memory_access import AccessPattern, ArrayRef, PatternKind
from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline.passes import CompileOptions
from repro.pipeline import KeyedCache
from repro.pipeline.compilecache import compile_cached
from repro.scheduler import compile_loop
from repro.sim import (
    LoopExecutor,
    SimOptions,
    TraceExecutor,
    make_memory,
    run_loop,
    run_program,
    static_trace,
)
from repro.workloads import build, kernels

# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


def _run_pair(loop, config, iterations=None, **compile_kwargs):
    """Compile once, execute on both paths against private memories."""
    compiled = compile_loop(copy.deepcopy(loop), config, **compile_kwargs)
    n = iterations or compiled.loop.trip_count
    ref_mem, fast_mem = make_memory(config), make_memory(config)
    ref = LoopExecutor(compiled, ref_mem, MemoryLayout(align=config.l1_block))
    fast = TraceExecutor(compiled, fast_mem, MemoryLayout(align=config.l1_block))
    ref_result = ref.run(n)
    fast_result = fast.run(n)
    return ref, ref_mem, ref_result, fast, fast_mem, fast_result


def assert_identical(loop, config, iterations=None, **kw):
    ref, ref_mem, r, fast, fast_mem, f = _run_pair(loop, config, iterations, **kw)
    label = (loop.name, config.arch.value)
    assert (r.iterations, r.compute_cycles, r.stall_cycles, r.late_loads) == (
        f.iterations,
        f.compute_cycles,
        f.stall_cycles,
        f.late_loads,
    ), label
    assert ref.last_stall_by_iteration == fast.last_stall_by_iteration, label
    assert ref_mem.stats == fast_mem.stats, label
    return fast, f


ZOO = {
    "saxpy": lambda: kernels.make_saxpy(trip=300, n=256),
    "dpcm": lambda: kernels.make_dpcm(trip=256, n=512),
    "column": lambda: kernels.make_column(trip=64, n=512),
    "table_mix": lambda: kernels.table_mix(
        "tmix", trip=128, n_stream=512, n_table=128
    ),
    "bignum": lambda: kernels.bignum("bg", trip=100, n=256),
    "fp_filter": lambda: kernels.fp_filter("fpf", trip=120, n=256, taps=2, fp_depth=3),
    "reduction": lambda: kernels.reduction("red", trip=200, n=512, elem=2, taps=2),
    "multi_stream": lambda: kernels.multi_stream(
        "ms", trip=150, n=512, elem=2, inputs=3, alu_depth=4
    ),
}

CONFIGS = {
    "unified": unified_config,
    "l0_4": lambda: l0_config(4),
    "l0_unbounded": lambda: l0_config(None),
    "multivliw": multivliw_config,
    "interleaved": interleaved_config,
}


# ----------------------------------------------------------------------
# Fast lane: representative subset
# ----------------------------------------------------------------------


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", ["saxpy", "dpcm", "table_mix"])
def test_fast_path_identical(kernel, config_name):
    assert_identical(ZOO[kernel](), CONFIGS[config_name]())


@pytest.mark.parametrize("kernel", ["column", "bignum", "fp_filter"])
def test_fast_path_identical_l0(kernel):
    assert_identical(ZOO[kernel](), l0_config(8))


def test_fast_path_identical_exact_scheduler():
    assert_identical(
        kernels.make_dpcm(trip=128, n=256), l0_config(8), scheduler="exact"
    )


def test_fast_path_short_runs_cover_prologue_epilogue():
    """iterations < stage count exercises the partial-window paths."""
    for n in (1, 2, 3, 7):
        assert_identical(kernels.make_saxpy(trip=64, n=256), l0_config(8), iterations=n)


# ----------------------------------------------------------------------
# Long runs: small working sets walked many times over
# ----------------------------------------------------------------------


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_long_periodic_run_matches_reference(config_name):
    """Small working sets + long trips: a steady state that repeats
    every array walk must still match a full reference interpretation."""
    config = CONFIGS[config_name]()
    fast, result = assert_identical(
        kernels.make_saxpy(trip=3000, n=64), config, iterations=3000
    )
    assert result.iterations == result.simulated_iterations == 3000


def test_long_recurrence_run_matches_reference():
    fast, result = assert_identical(
        kernels.make_dpcm(trip=2500, n=128), l0_config(8), iterations=2500
    )
    assert result.iterations == result.simulated_iterations == 2500


def test_random_streams_have_no_input_period():
    """RANDOM patterns have no input period: the trace must record that
    (batch addresses are then recomputed every window) and a long run
    must still match the reference."""
    loop = kernels.table_mix("tm", trip=64, n_stream=256, n_table=64)
    compiled = compile_loop(loop, unified_config())
    assert static_trace(compiled).input_period is None
    assert_identical(
        kernels.table_mix("tm", trip=2000, n_stream=64, n_table=32),
        unified_config(),
        iterations=2000,
    )


def test_multi_invocation_long_runs_match_reference(monkeypatch):
    """Memory state carried from one long invocation into the next (with
    the L0 flush between them) behaves exactly like the reference's."""
    for config in (unified_config(), l0_config(8)):
        loop = kernels.make_saxpy(trip=3000, n=64)
        results = {}
        for executor in (LoopExecutor, TraceExecutor):
            monkeypatch.setattr("repro.sim.runner.TraceExecutor", executor)
            compiled = compile_loop(copy.deepcopy(loop), config)
            memory = make_memory(config)
            result, clock = run_loop(
                compiled,
                memory,
                MemoryLayout(align=config.l1_block),
                invocations=3,
                options=SimOptions(sim_cap=5000),
            )
            results[executor] = (result, clock, memory.stats)
        (r0, c0, s0), (r1, c1, s1) = results[LoopExecutor], results[TraceExecutor]
        assert (r0.compute_cycles, r0.stall_cycles, c0) == (
            r1.compute_cycles,
            r1.stall_cycles,
            c1,
        )
        assert s0 == s1
        # Every field agrees, the interpretation metadata included.
        assert r0 == r1
        # One unsimulated invocation was replicated from the warm run.
        assert r1.extrapolated == "statistical"
        assert r1.measured_fraction < 1.0


# ----------------------------------------------------------------------
# Program-level parity and honest reporting
# ----------------------------------------------------------------------


def test_run_program_fast_matches_reference(monkeypatch):
    bench = build("g721dec")
    fast = run_program(bench, l0_config(8), options=SimOptions(sim_cap=120))
    monkeypatch.setattr("repro.sim.runner.TraceExecutor", LoopExecutor)
    slow = run_program(bench, l0_config(8), options=SimOptions(sim_cap=120))
    assert slow.total_cycles == fast.total_cycles
    assert slow.stall_cycles == fast.stall_cycles
    assert slow.memory_stats == fast.memory_stats
    for a, b in zip(slow.loops, fast.loops):
        assert (a.compute_cycles, a.stall_cycles) == (b.compute_cycles, b.stall_cycles)


def test_loop_result_reports_extrapolation_kind():
    config = unified_config()
    # trip > cap: statistical extrapolation, honest simulated count.
    compiled = compile_loop(kernels.make_saxpy(trip=4096, n=1024), config)
    result, _ = run_loop(
        compiled,
        make_memory(config),
        MemoryLayout(align=config.l1_block),
        options=SimOptions(sim_cap=200),
    )
    assert result.extrapolated == "statistical"
    assert result.simulated_iterations == 200
    assert 0.0 < result.measured_fraction < 1.0
    # trip <= cap: everything interpreted.  (Trip counts are in *kernel*
    # iterations — the unrolled body's.)
    compiled = compile_loop(kernels.make_saxpy(trip=128, n=1024), config)
    result, _ = run_loop(
        compiled,
        make_memory(config),
        MemoryLayout(align=config.l1_block),
        options=SimOptions(sim_cap=500),
    )
    assert result.extrapolated == "none"
    assert result.simulated_iterations == compiled.loop.trip_count
    assert result.measured_fraction == 1.0


# ----------------------------------------------------------------------
# Ring buffer: O(window) memory for arbitrarily long runs
# ----------------------------------------------------------------------


def test_readiness_ring_is_bounded():
    """Long runs must not grow readiness state with the trip count: the
    ring is sized by the history window alone (the satellite regression
    test for the old rebuild-the-dict pruning)."""
    config = l0_config(8)
    loop = kernels.make_dpcm(trip=6000, n=128)
    compiled = compile_loop(loop, config)
    layout = MemoryLayout(align=config.l1_block)
    fast = TraceExecutor(compiled, make_memory(config), layout)
    window = fast.static.history_window
    fast.run(6000)
    # Rebind-time structures only: slots x window ints, however long the run.
    assert window < 64
    assert fast._n_slots <= len(compiled.schedule.placed)
    result = fast.run(6000)
    assert result.iterations == 6000


# ----------------------------------------------------------------------
# Layout contract (idempotent-by-contract registration)
# ----------------------------------------------------------------------


def test_layout_ensure_is_idempotent():
    layout = MemoryLayout(align=32)
    a = ArrayRef("x", 128, 4)
    base = layout.ensure(a)
    assert layout.ensure(ArrayRef("x", 128, 4)) == base
    with pytest.raises(ValueError, match="stale memory layout"):
        layout.ensure(ArrayRef("x", 256, 4))


def test_executor_rejects_stale_layout():
    config = unified_config()
    compiled = compile_loop(kernels.make_saxpy(trip=32, n=64), config)
    layout = MemoryLayout(align=config.l1_block)
    layout.add(ArrayRef("x", 999, 4))  # conflicting pre-registration
    with pytest.raises(ValueError, match="stale memory layout"):
        TraceExecutor(compiled, make_memory(config), layout)
    with pytest.raises(ValueError, match="stale memory layout"):
        LoopExecutor(compiled, make_memory(config), layout)


def test_executor_reuses_planned_layout_addresses():
    """Binding to a pre-populated program layout must not shift bases."""
    config = unified_config()
    compiled = compile_loop(kernels.make_saxpy(trip=32, n=64), config)
    layout = MemoryLayout(align=config.l1_block)
    bases = {a.name: layout.add(a) for a in compiled.loop.arrays}
    TraceExecutor(compiled, make_memory(config), layout)
    for array in compiled.loop.arrays:
        assert layout.base_of(array) == bases[array.name]


# ----------------------------------------------------------------------
# Affine export + input-period math
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stride,n", [(1, 64), (3, 64), (8, 96), (-1, 64), (-6, 40)])
def test_input_period_matches_brute_force(stride, n):
    pattern = AccessPattern(ArrayRef("a", n, 4), stride=stride, offset=5)
    period = pattern.input_period
    sequence = [pattern.element_index(i) for i in range(3 * period + 4)]
    assert sequence[:period] == sequence[period : 2 * period]
    # Minimality: no smaller divisor period reproduces the stream.
    for cand in range(1, period):
        if period % cand == 0 and sequence[:cand] == sequence[cand : 2 * cand]:
            pytest.fail(f"period {period} not minimal (candidate {cand})")


def test_affine_matches_address():
    layout = MemoryLayout(align=32)
    ref = ArrayRef("a", 100, 2)
    layout.add(ref)
    pattern = AccessPattern(ref, stride=7, offset=3)
    base, off0, stride, n, esize = pattern.affine(layout)
    for i in (0, 1, 13, 99, 100, 257):
        assert base + ((off0 + i * stride) % n) * esize == pattern.address(i, layout)
    random = AccessPattern(ref, kind=PatternKind.RANDOM, seed=9)
    assert random.affine(layout) is None
    assert random.input_period is None


# ----------------------------------------------------------------------
# Batch entry points + trace caching
# ----------------------------------------------------------------------


def test_load_store_run_match_scalar_paths():
    configs = (
        unified_config(),
        l0_config(8),
        multivliw_config(),
        interleaved_config(),
    )
    for config in configs:
        compiled = compile_loop(kernels.make_saxpy(trip=16, n=64), config)
        hints = next(
            op.hints for op in compiled.schedule.placed.values() if op.instr.is_load
        )
        scalar_mem, batch_mem = make_memory(config), make_memory(config)
        addrs = [0x1000 + 4 * k for k in range(6)]
        cycles = [10 + 2 * k for k in range(6)]
        scalar = [
            scalar_mem.load(0, addrs[k], 4, hints, cycles[k]) for k in range(6)
        ]
        batched = batch_mem.load_run([0] * 6, addrs, [4] * 6, [hints] * 6, cycles)
        assert scalar == batched
        for k in range(6):
            scalar_mem.store(1, addrs[k], 4, hints, cycles[k] + 50, is_primary=True)
        batch_mem.store_run(
            [1] * 6, addrs, [4] * 6, [hints] * 6, [c + 50 for c in cycles], [True] * 6
        )
        assert scalar_mem.stats == batch_mem.stats


def test_static_trace_rides_compile_cache(tmp_path):
    cache = KeyedCache(path=tmp_path)
    loop = kernels.make_saxpy(trip=32, n=64)
    compiled = compile_cached(loop, unified_config(), CompileOptions(), cache=cache)
    assert compiled.static_trace is not None
    # The persisted pickle carries the trace: a fresh cache instance
    # over the same directory serves it without rebuilding.
    reloaded = KeyedCache(path=tmp_path)
    warm = compile_cached(loop, unified_config(), CompileOptions(), cache=reloaded)
    assert warm.static_trace is not None
    assert warm.static_trace.ii == compiled.static_trace.ii
    assert pickle.loads(pickle.dumps(compiled)).static_trace.ii == compiled.ii


def test_input_period_is_lcm_of_streams():
    loop = kernels.make_saxpy(trip=64, n=96)
    trace = static_trace(compile_loop(loop, unified_config()))
    patterns = [e.pattern for e in trace.events if e.pattern is not None]
    assert patterns
    expected = 1
    for p in patterns:
        expected = expected * p.input_period // math.gcd(expected, p.input_period)
    # Periods are in *kernel* iterations (unrolling scales the strides):
    # n=96 stride-1 unrolled x4 -> stride 4, period 96/gcd(4,96) = 24.
    assert trace.input_period == expected == 24
    for p in patterns:
        assert trace.input_period % p.input_period == 0


# ----------------------------------------------------------------------
# cibench throughput lane
# ----------------------------------------------------------------------


def test_sim_bench_record_and_regression_gate(tmp_path):
    import json

    from repro.eval.cibench import SIM_BENCH_SCHEMA_VERSION, run_sim_bench

    record = run_sim_bench(("g721dec",), 40, baseline_path=None)
    assert record["schema"] == SIM_BENCH_SCHEMA_VERSION
    assert record["fast_iters_per_s"] > 0
    assert record["reference_iters_per_s"] > 0
    assert record["speedup"] > 0
    assert record["failures"] == []
    assert record["baseline"] is None

    # A baseline claiming an absurdly higher speedup must trip the
    # >30% machine-normalized regression gate; a matching one must not.
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_text(json.dumps({**record, "speedup": record["speedup"] * 10}))
    tripped = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert tripped["failures"]
    assert "regressed" in tripped["failures"][0]
    baseline.write_text(json.dumps(record))
    clean = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert clean["failures"] == []
    assert clean["baseline"]["speedup"] == record["speedup"]


# ----------------------------------------------------------------------
# Slow lane: the exhaustive matrix
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(ZOO))
def test_full_matrix_sms(kernel, config_name):
    assert_identical(ZOO[kernel](), CONFIGS[config_name]())


@pytest.mark.slow
@pytest.mark.parametrize("config_name", ["unified", "l0_4", "multivliw"])
@pytest.mark.parametrize("kernel", ["saxpy", "dpcm", "reduction", "multi_stream"])
def test_full_matrix_exact_scheduler(kernel, config_name):
    assert_identical(ZOO[kernel](), CONFIGS[config_name](), scheduler="exact")


@pytest.mark.slow
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_full_matrix_long_runs(config_name):
    config = CONFIGS[config_name]()
    for make in (
        lambda: kernels.make_saxpy(trip=4000, n=64),
        lambda: kernels.make_dpcm(trip=3500, n=128),
        lambda: kernels.stream_map("sm", trip=3000, n=128, elem=2, taps=2, alu_depth=4),
        lambda: kernels.make_column(trip=3000, n=96, stride=8),
    ):
        loop = make()
        assert_identical(loop, config, iterations=loop.trip_count)


@pytest.mark.slow
def test_full_program_parity_across_benchmarks(monkeypatch):
    for name in ("g721dec", "gsmdec"):
        for config in (unified_config(), l0_config(8)):
            bench = build(name)
            fast = run_program(bench, config, options=SimOptions(sim_cap=200))
            with monkeypatch.context() as patch:
                patch.setattr("repro.sim.runner.TraceExecutor", LoopExecutor)
                slow = run_program(bench, config, options=SimOptions(sim_cap=200))
            assert slow.total_cycles == fast.total_cycles
            assert slow.memory_stats == fast.memory_stats
