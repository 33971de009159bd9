"""Differential oracle: the trace fast path vs the reference interpreter.

Every test here asserts *byte-identity*: same ``LoopRunResult`` cycle
counts, same per-iteration stall history, same memory-statistics record
(nested dataclass equality covers every counter) and, in the
call-sequence tests, the same memory-model calls with the same
arguments in the same order — over the kernel zoo,
the four memory models, both scheduler backends, and long runs that walk
their arrays many times.  The fast lane runs a representative subset;
the ``slow``-marked matrix is exhaustive.
"""

from __future__ import annotations

import copy
import json
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
from repro.pipeline import KeyedCache, RunRequest, execute_request
from repro.pipeline.compilecache import compile_cached
from repro.scheduler import compile_loop
from repro.sim import (
    LoopExecutor,
    SimOptions,
    TraceExecutor,
    make_memory,
    run_loop,
    run_program,
)
from repro.sim.runner import WARM_INVOCATIONS
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
# Memory-call sequence: the same calls, in order, at the same cycles
# ----------------------------------------------------------------------


class RecordingMemory:
    """Forwards to a memory model and logs each call the simulator can
    make of it as ``(name, args, kwargs, result)``, in call order."""

    RECORDED = frozenset(
        ("load", "store", "prefetch", "invalidate_l0", "load_run", "store_run")
    )

    def __init__(self, memory) -> None:
        self.memory = memory
        self.calls: list[tuple] = []

    def __getattr__(self, name):
        target = getattr(self.memory, name)
        if name not in self.RECORDED:
            return target

        def record(*args, **kwargs):
            result = target(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result

        return record


def _memory_calls(executor, compiled, iterations, monkeypatch) -> list[tuple]:
    """The memory calls of a two-invocation ``run_loop`` (cold run, L0
    flush, warm run at a later clock) driven by ``executor``."""
    config = compiled.schedule.config
    memory = RecordingMemory(make_memory(config))
    with monkeypatch.context() as patch:
        patch.setattr("repro.sim.runner.TraceExecutor", executor)
        run_loop(
            compiled,
            memory,
            MemoryLayout(align=config.l1_block),
            invocations=2,
            options=SimOptions(sim_cap=iterations),
        )
    return memory.calls


def assert_same_memory_calls(loop, config, monkeypatch, iterations=None):
    compiled = compile_loop(copy.deepcopy(loop), config)
    n = iterations or compiled.loop.trip_count
    ref = _memory_calls(LoopExecutor, compiled, n, monkeypatch)
    fast = _memory_calls(TraceExecutor, compiled, n, monkeypatch)
    assert ref
    if fast != ref:
        k = next(
            (k for k, (a, b) in enumerate(zip(ref, fast)) if a != b),
            min(len(ref), len(fast)),
        )
        pytest.fail(
            f"{loop.name} on {config.arch.value}: call {k} differs: "
            f"reference {ref[k:k + 1]}, trace {fast[k:k + 1]} "
            f"({len(ref)} vs {len(fast)} calls)"
        )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", ["saxpy", "dpcm", "table_mix"])
def test_same_memory_calls(kernel, config_name, monkeypatch):
    assert_same_memory_calls(ZOO[kernel](), CONFIGS[config_name](), monkeypatch)


@pytest.mark.parametrize("iterations", [1, 2, 3, 7])
def test_same_memory_calls_short_runs(iterations, monkeypatch):
    assert_same_memory_calls(
        kernels.make_saxpy(trip=64, n=256), l0_config(8), monkeypatch, iterations
    )


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


def test_long_random_stream_run_matches_reference():
    """RANDOM patterns (the inlined seeded hash) over a long run."""
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
    """A direct ``run_program`` under the reference interpreter runs every
    loop, even after ``execute_request`` has put the same loops'
    fast-path results in the process-wide loop memo."""
    config, options = l0_config(8), SimOptions(sim_cap=120)
    monkeypatch.setattr("repro.pipeline.executor.LOOP_MEMO", KeyedCache())
    fast = execute_request(RunRequest("g721dec", config, options))
    monkeypatch.setattr("repro.sim.runner.TraceExecutor", LoopExecutor)
    runs = []
    reference_run = LoopExecutor.run

    def counted_run(self, iterations, **kwargs):
        runs.append(self.compiled.loop.name)
        return reference_run(self, iterations, **kwargs)

    monkeypatch.setattr(LoopExecutor, "run", counted_run)
    bench = build("g721dec")
    slow = run_program(bench, config, options=options)
    assert runs == [
        spec.loop.name
        for spec in bench.loops
        for _ in range(min(spec.invocations, 1 + WARM_INVOCATIONS))
    ]
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
# Affine export
# ----------------------------------------------------------------------


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


# ----------------------------------------------------------------------
# cibench throughput gate
# ----------------------------------------------------------------------


def test_sim_bench_record_and_regression_gate(tmp_path):
    from repro.eval.cibench import SIM_BENCH_SCHEMA_VERSION, run_sim_bench

    # The gate fails closed: with no baseline to compare against it
    # fails, and the record is still complete.
    baseline = tmp_path / "BENCH_sim.json"
    record = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert record["schema"] == SIM_BENCH_SCHEMA_VERSION
    assert record["fast_iters_per_s"] > 0
    assert record["reference_iters_per_s"] > 0
    assert record["speedup"] > 0
    assert record["baseline"] is None
    assert record["failures"] == [f"no readable baseline at {baseline}"]

    baseline.write_text("{not json")
    unreadable = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert unreadable["failures"] == [f"no readable baseline at {baseline}"]
    assert unreadable["speedup"] > 0

    # A record of another schema, or whose speedup is not a finite
    # positive number, cannot gate.
    for bad in ({**record, "schema": 2}, {**record, "speedup": float("nan")}):
        baseline.write_text(json.dumps(bad))
        refused = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
        assert refused["failures"] == [
            f"baseline {baseline} is not a schema-{SIM_BENCH_SCHEMA_VERSION} "
            "record with a finite positive speedup"
        ]

    # Ratios are only comparable over one workload.
    baseline.write_text(json.dumps({**record, "benchmarks": ["jpegdec"]}))
    other = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert len(other["failures"]) == 1
    assert "recorded for ['jpegdec'] at sim cap 40" in other["failures"][0]
    assert other["baseline"] is None
    assert other["speedup"] > 0

    # A baseline claiming an absurdly higher speedup must trip the
    # >30% machine-normalized regression gate; a matching one must not.
    baseline.write_text(json.dumps({**record, "speedup": record["speedup"] * 10}))
    tripped = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert len(tripped["failures"]) == 1
    assert "regressed" in tripped["failures"][0]
    baseline.write_text(json.dumps(record))
    clean = run_sim_bench(("g721dec",), 40, baseline_path=baseline)
    assert clean["failures"] == []
    assert clean["baseline"]["speedup"] == record["speedup"]


def test_sim_bench_cli_fails_closed_and_still_writes(tmp_path, capsys):
    from repro.eval.cibench import main

    output = tmp_path / "BENCH_sim.json"
    with pytest.raises(SystemExit):  # an empty workload is a usage error
        main(["--sim-output", str(output), "--benchmarks"])
    assert not output.exists()
    argv = ["--sim-output", str(output), "--benchmarks", "g721dec", "--sim-cap", "40"]
    assert main(argv) == 1
    assert f"FAIL: no readable baseline at {output}" in capsys.readouterr().err
    first = json.loads(output.read_text())
    assert first["speedup"] > 0 and first["baseline"] is None
    # The record the failed run wrote is a matching baseline.
    assert main(argv) == 0
    second = json.loads(output.read_text())
    assert second["baseline"]["speedup"] == first["speedup"]
    assert second["failures"] == []


def test_sim_bench_cli_rejects_unknown_benchmarks(tmp_path, capsys):
    from repro.eval.cibench import main

    output = tmp_path / "BENCH_sim.json"
    with pytest.raises(SystemExit) as exc:
        main(["--sim-output", str(output), "--benchmarks", "g721dec", "nosuch"])
    assert exc.value.code == 2
    assert "argument --benchmarks" in capsys.readouterr().err
    assert not output.exists()


# ----------------------------------------------------------------------
# Slow lane: the exhaustive matrix
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(ZOO))
def test_full_matrix_sms(kernel, config_name):
    assert_identical(ZOO[kernel](), CONFIGS[config_name]())


@pytest.mark.slow
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", sorted(ZOO))
def test_full_matrix_same_memory_calls(kernel, config_name, monkeypatch):
    assert_same_memory_calls(ZOO[kernel](), CONFIGS[config_name](), monkeypatch)


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
