"""Tests for the pipeline subsystem: passes, cache, executors, session."""

from collections import Counter

import pytest

from repro.eval import ExperimentContext, fig5, fig6
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    CompileOptions,
    KeyedCache,
    ParallelExecutor,
    RunRequest,
    SerialExecutor,
    Session,
    cache_key,
    compile_uncached,
    make_executor,
)
from repro.sim import SimOptions
from repro.workloads.kernels import make_dpcm, make_saxpy

FAST = SimOptions(sim_cap=80)
TWO_BENCHMARKS = ("g721dec", "gsmdec")


class TestCompileUncached:
    def test_forced_unroll_flows_through_options(self):
        compiled = compile_uncached(
            make_saxpy(), l0_config(8), CompileOptions(unroll_factor=1)
        )
        assert compiled.unroll_factor == 1
        assert compiled.loop.unroll_factor == 1

    @pytest.mark.parametrize(
        "make_loop, forced, chosen, bodies",
        [
            (make_saxpy, None, 4, 2),
            (make_dpcm, None, 1, 2),
            (make_saxpy, 1, 1, 1),
            (make_dpcm, 4, 4, 1),
        ],
    )
    def test_frontend_runs_once_per_candidate_body(
        self, monkeypatch, make_loop, forced, chosen, bodies
    ):
        """The unroll heuristic unrolls, analyses and builds a DDG for the
        rolled and the unrolled body once each, and the compile keeps the
        chosen body's products; a forced factor builds its body alone."""
        from repro.ir import DDG, memdep
        from repro.pipeline import passes

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(passes, "unroll", counted("unroll", passes.unroll))
        monkeypatch.setattr(memdep, "analyze", counted("analyze", memdep.analyze))
        monkeypatch.setattr(DDG, "__init__", counted("DDG", DDG.__init__))
        options = CompileOptions(unroll_factor=forced)
        compiled = compile_uncached(make_loop(), l0_config(8), options)
        assert compiled.unroll_factor == compiled.loop.unroll_factor == chosen
        assert compiled.ddg.loop is compiled.loop
        assert calls == {"unroll": bodies, "analyze": bodies, "DDG": bodies}


class TestCompileOptions:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"exact_node_budget": 0},
            {"exact_node_budget": -5},
        ],
    )
    def test_exact_search_limits_below_one_rejected(self, knobs):
        (name,) = knobs
        with pytest.raises(ValueError, match=name):
            CompileOptions(**knobs)

    def test_smallest_exact_search_limits_accepted(self):
        assert CompileOptions(exact_node_budget=1).exact_node_budget == 1

    @pytest.mark.parametrize(
        "knobs",
        [
            {"interleaved_heuristic": 0},
            {"interleaved_heuristic": 3},
            {"prefetch_distance": 0},
            {"prefetch_distance": -1},
        ],
    )
    def test_policy_knobs_out_of_range_rejected(self, knobs):
        """Fail when built, not when an interleaved compile (perhaps in a
        fleet worker) builds its policy, and never silently: distance 0
        turns hint prefetching off and -1 prefetches backwards."""
        (name,) = knobs
        with pytest.raises(ValueError, match=name):
            CompileOptions(**knobs)


class TestSimOptions:
    @pytest.mark.parametrize("sim_cap", [0, -3])
    def test_sim_cap_below_one_rejected(self, sim_cap):
        with pytest.raises(ValueError, match="sim_cap"):
            SimOptions(sim_cap=sim_cap)

    def test_smallest_sim_cap_accepted(self):
        assert SimOptions(sim_cap=1).sim_cap == 1

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler 'smt'"):
            SimOptions(scheduler="smt")

    def test_unknown_compile_knob_rejected(self):
        with pytest.raises(TypeError, match="bogus"):
            SimOptions(compile_kwargs={"bogus": 1})

    def test_rejected_compile_knob_value_rejected(self):
        with pytest.raises(ValueError, match="exact_node_budget"):
            SimOptions(compile_kwargs={"exact_node_budget": 0})

    @pytest.mark.parametrize(
        "knobs", [{"interleaved_heuristic": 3}, {"prefetch_distance": 0}]
    )
    def test_rejected_policy_knob_value_rejected(self, knobs):
        (name,) = knobs
        with pytest.raises(ValueError, match=name):
            SimOptions(compile_kwargs=knobs)


class TestCacheKey:
    def test_stable_across_equal_values(self):
        assert cache_key("g721dec", l0_config(8), SimOptions()) == cache_key(
            "g721dec", l0_config(8), SimOptions()
        )

    def test_sensitive_to_benchmark_config_and_options(self):
        base = cache_key("g721dec", l0_config(8), SimOptions())
        assert cache_key("gsmdec", l0_config(8), SimOptions()) != base
        assert cache_key("g721dec", l0_config(4), SimOptions()) != base
        assert cache_key("g721dec", unified_config(), SimOptions()) != base
        assert (
            cache_key(
                "g721dec", l0_config(8), SimOptions(compile_kwargs={"allow_psr": True})
            )
            != base
        )

    def test_unbounded_l0_distinct_from_bounded(self):
        assert cache_key("rasta", l0_config(None), SimOptions()) != cache_key(
            "rasta", l0_config(16), SimOptions()
        )

    def test_execution_tuning_knobs_share_entries(self):
        """compile_cache_dir changes how a run executes, never what it
        computes — it must not split cache keys."""
        base = cache_key("g721dec", l0_config(8), SimOptions())
        assert (
            cache_key(
                "g721dec", l0_config(8), SimOptions(compile_cache_dir="/tmp/x")
            )
            == base
        )


class TestResultCacheRoundTrip:
    def test_encode_decode_preserves_everything(self):
        """A result goes in pickled and comes back as an equal copy."""
        request = RunRequest("g721dec", l0_config(8), FAST)
        result = SerialExecutor().map([request])[0]
        cache = KeyedCache()
        cache.put(request.key, result)
        clone = cache.get(request.key)
        assert clone == result and clone is not result
        assert clone.total_cycles == result.total_cycles
        assert clone.memory_stats.l0.hit_rate == result.memory_stats.l0.hit_rate
        assert clone.average_unroll_factor == result.average_unroll_factor

    def test_disk_store_survives_new_cache(self, tmp_path):
        request = RunRequest("gsmdec", unified_config(), FAST)
        session = Session(options=FAST, cache=KeyedCache(tmp_path))
        first = session.run(request)
        assert session.simulations == 1

        reopened = Session(options=FAST, cache=KeyedCache(tmp_path))
        second = reopened.run(request)
        assert reopened.simulations == 0
        assert reopened.cache_hits == 1
        assert second == first

    def test_clear_touches_only_cache_entries(self, tmp_path):
        cache = KeyedCache(tmp_path)
        session = Session(options=FAST, cache=cache)
        request = session.request("g721dec", l0_config(8))
        session.run(request)
        entry = tmp_path / f"{request.key}.pkl"
        assert entry.exists()
        user_file = tmp_path / "user-data.pkl"
        user_file.write_bytes(b"mine")
        orphan_tmp = tmp_path / f".{'ab' * 32}.999.tmp"
        orphan_tmp.write_text("half-written")

        cache.clear()
        assert user_file.exists()  # unrelated files are never touched
        assert not orphan_tmp.exists()
        assert not entry.exists()
        assert KeyedCache(tmp_path).get(request.key) is None

    def test_clear_tolerates_concurrently_removed_entries(self, tmp_path, monkeypatch):
        """Two processes clearing one directory race the scan vs unlink."""
        from pathlib import Path

        cache = KeyedCache(tmp_path)
        ghost = tmp_path / f"{'0' * 64}.pkl"  # listed but never created
        real_iterdir = Path.iterdir
        listed = []

        def racing_iterdir(self):
            listed.append(self)
            return [*real_iterdir(self), ghost]

        monkeypatch.setattr(Path, "iterdir", racing_iterdir)
        cache.clear()  # must not raise on the vanished entry
        assert listed == [tmp_path]

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        request = RunRequest("gsmdec", unified_config(), FAST)
        entry = tmp_path / f"{request.key}.pkl"
        entry.write_bytes(b"torn write")
        session = Session(options=FAST, cache=KeyedCache(tmp_path))
        result = session.run(request)
        assert session.simulations == 1  # re-simulated, no crash
        assert result.total_cycles > 0
        # ... and the fresh result replaced the corrupt file on disk
        assert entry.read_bytes() != b"torn write"
        reopened = Session(options=FAST, cache=KeyedCache(tmp_path))
        assert reopened.run(request).total_cycles == result.total_cycles
        assert reopened.simulations == 0


class TestSessionCaching:
    def test_hit_and_miss_semantics(self):
        session = Session(options=FAST)
        request = session.request("g721dec", l0_config(8))
        first = session.run(request)
        second = session.run(session.request("g721dec", l0_config(8)))
        assert session.simulations == 1
        # a hit is a private copy of the stored result
        assert second == first and second is not first
        # re-reading the session's own product is not a "hit": cache_hits
        # counts only work a pre-existing cache entry avoided
        assert session.cache_hits == 0

    def test_run_many_dedupes_and_preserves_order(self):
        session = Session(options=FAST)
        a = session.request("g721dec", l0_config(8))
        b = session.request("gsmdec", l0_config(8))
        results = session.run_many([a, b, a])
        assert session.simulations == 2
        assert [r.benchmark for r in results] == ["g721dec", "gsmdec", "g721dec"]
        assert results[0] is results[2]

    def test_negative_workers_means_all_cores(self):
        assert isinstance(make_executor(-1), ParallelExecutor)
        assert isinstance(make_executor(-2), ParallelExecutor)
        assert make_executor(-2).workers >= 1
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)


def _sweep_requests(options):
    return [
        RunRequest(name, config, options)
        for name in TWO_BENCHMARKS
        for config in (unified_config(), l0_config(8))
    ]


class TestExecutorParity:
    def test_serial_and_parallel_rows_byte_identical(self):
        requests = _sweep_requests(FAST)
        serial = SerialExecutor().map(requests)
        parallel = make_executor(2).map(requests)
        assert parallel == serial

    def test_parallel_session_experiment_matches_serial(self):
        def rows(workers):
            ctx = ExperimentContext(
                options=FAST, benchmarks=TWO_BENCHMARKS, workers=workers
            )
            return fig5(ctx, sizes=(8,))

        serial, parallel = rows(None), rows(2)
        assert serial == parallel


class TestOptionsWith:
    def test_merges_compile_kwargs_and_keeps_other_knobs(self):
        ctx = ExperimentContext(
            options=SimOptions(
                sim_cap=99,
                scheduler="exact",
                compile_kwargs={"allow_psr": True},
            ),
            benchmarks=TWO_BENCHMARKS,
        )
        merged = ctx.options_with(prefetch_distance=2)
        assert merged.compile_kwargs == {"allow_psr": True, "prefetch_distance": 2}
        assert merged.sim_cap == 99
        assert merged.scheduler == "exact"
        # the context's own options are untouched
        assert ctx.options.compile_kwargs == {"allow_psr": True}


class TestExperimentContextIntegration:
    def test_repeated_experiments_resimulate_nothing(self):
        ctx = ExperimentContext(options=FAST, benchmarks=TWO_BENCHMARKS)
        fig5(ctx, sizes=(4, 8))
        first = ctx.session.simulations
        assert first > 0
        fig5(ctx, sizes=(4, 8))
        fig6(ctx)  # shares the l0-8 runs with fig5
        assert ctx.session.simulations == first
