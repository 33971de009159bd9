"""Tests for the compile-artifact cache (pipeline/compilecache.py)."""

import pickle

import pytest

from repro.analysis import check_schedule
from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    CompileOptions,
    KeyedCache,
    compile_cached,
    compile_key,
    compile_uncached,
)
from repro.scheduler import compile_loop
from repro.sim import LoopExecutor, make_memory
from repro.workloads.kernels import make_dpcm, make_saxpy

FIG5_SIZES = (4, 8, 16, None)


def _simulate(compiled, config, iterations=64):
    memory = make_memory(config)
    layout = MemoryLayout(align=config.l1_block)
    executor = LoopExecutor(compiled, memory, layout)
    return executor.run(iterations)


class TestKeys:
    def test_full_key_stable_across_equal_inputs(self):
        assert compile_key(
            make_saxpy(), l0_config(8), CompileOptions()
        ) == compile_key(make_saxpy(), l0_config(8), CompileOptions())

    def test_full_key_sensitive_to_loop_config_and_options(self):
        base = compile_key(make_saxpy(), l0_config(8), CompileOptions())
        assert compile_key(make_dpcm(), l0_config(8), CompileOptions()) != base
        assert compile_key(make_saxpy(), l0_config(4), CompileOptions()) != base
        assert (
            compile_key(make_saxpy(), l0_config(8), CompileOptions(allow_psr=True))
            != base
        )

    def test_scheduler_participates_in_full_key(self):
        """SMS and exact artifacts must never collide in the cache."""
        base = compile_key(make_saxpy(), l0_config(8), CompileOptions())
        assert base == compile_key(
            make_saxpy(), l0_config(8), CompileOptions(scheduler="sms")
        )
        assert (
            compile_key(make_saxpy(), l0_config(8), CompileOptions(scheduler="exact"))
            != base
        )
        # The exact backend's budget knobs are options like any other.
        assert compile_key(
            make_saxpy(),
            l0_config(8),
            CompileOptions(scheduler="exact", exact_node_budget=7),
        ) != compile_key(
            make_saxpy(), l0_config(8), CompileOptions(scheduler="exact")
        )


class TestCacheSemantics:
    def test_fig5_sweep_compiles_each_size_once(self):
        """Every Figure-5 L0 size is its own full key: one compilation
        each, and no hits within a single sweep."""
        cache = KeyedCache()
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        assert cache.stats.misses == len(FIG5_SIZES)
        assert cache.stats.hits == 0

    def test_repeated_sweep_recompiles_nothing(self):
        cache = KeyedCache()
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        compilations = cache.stats.misses
        for entries in FIG5_SIZES:
            compile_cached(make_saxpy(), l0_config(entries), cache=cache)
        assert cache.stats.misses == compilations
        assert cache.stats.hits == len(FIG5_SIZES)

    def test_sms_and_exact_compile_distinct_artifacts(self):
        """The scheduler is part of the full key: one compilation per
        scheduler, and a repeat of either recompiles nothing."""
        cache = KeyedCache()
        loop = make_dpcm()
        config = l0_config(8)
        sms = compile_cached(loop, config, CompileOptions(scheduler="sms"), cache=cache)
        exact = compile_cached(
            loop, config, CompileOptions(scheduler="exact"), cache=cache
        )
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
        # Artifacts really are the two different backends' outputs.
        assert sms.schedule.meta["scheduler"] == "sms"
        assert exact.schedule.meta["scheduler"] == "exact"
        assert exact.ii <= sms.ii
        # Repeats of both are pure hits.
        compile_cached(loop, config, CompileOptions(scheduler="sms"), cache=cache)
        compile_cached(loop, config, CompileOptions(scheduler="exact"), cache=cache)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_unknown_scheduler_fails_fast(self):
        with pytest.raises(ValueError, match="unknown scheduler 'smt'"):
            CompileOptions(scheduler="smt")

    def test_hit_matches_fresh_compilation(self):
        cache = KeyedCache()
        first = compile_cached(make_dpcm(), l0_config(8), cache=cache)
        hit = compile_cached(make_dpcm(), l0_config(8), cache=cache)
        assert hit.ii == first.ii
        assert hit.unroll_factor == first.unroll_factor
        assert hit.policy_name == first.policy_name
        assert check_schedule(hit.schedule, hit.ddg) == []

    def test_hits_hand_out_private_objects(self):
        """Mutating a served artifact must not poison the cache (the
        certifier's mutation tests corrupt schedules on purpose)."""
        cache = KeyedCache()
        first = compile_cached(make_saxpy(), unified_config(), cache=cache)
        uid = next(iter(first.schedule.placed))
        del first.schedule.placed[uid]  # corrupt the caller's copy
        again = compile_cached(make_saxpy(), unified_config(), cache=cache)
        assert check_schedule(again.schedule, again.ddg) == []

    def test_compile_loop_wrapper_equivalent_to_pass_manager(self):
        """``compile_loop`` serves what the uncached compile function builds."""
        loop = make_saxpy()
        config = l0_config(8)
        uncached = compile_uncached(loop, config)
        compiled = compile_loop(loop, config)
        assert compiled.schedule.ii == uncached.schedule.ii
        assert compiled.unroll_factor == uncached.unroll_factor
        assert compiled.policy_name == uncached.policy_name


class TestSerialisationRoundTrip:
    def test_pickle_round_trip_simulates_identically(self):
        config = l0_config(8)
        compiled = compile_cached(make_dpcm(), config, cache=KeyedCache())
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone.ii == compiled.ii
        assert clone.unroll_factor == compiled.unroll_factor
        assert check_schedule(clone.schedule, clone.ddg) == []
        a = _simulate(compiled, config)
        b = _simulate(clone, config)
        assert (a.compute_cycles, a.stall_cycles, a.late_loads) == (
            b.compute_cycles,
            b.stall_cycles,
            b.late_loads,
        )

    def test_disk_store_survives_new_cache(self, tmp_path):
        config = l0_config(8)
        warm = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=warm)
        assert warm.stats.misses == 1

        reopened = KeyedCache(tmp_path)
        compiled = compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.misses == 0
        assert reopened.stats.hits == 1
        assert check_schedule(compiled.schedule, compiled.ddg) == []

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        config = l0_config(8)
        key = compile_key(make_saxpy(), config, CompileOptions())
        (tmp_path / f"{key}.pkl").write_bytes(b"torn write")
        cache = KeyedCache(tmp_path)
        compiled = compile_cached(make_saxpy(), config, cache=cache)
        assert cache.stats.misses == 1  # recompiled, no crash
        assert check_schedule(compiled.schedule, compiled.ddg) == []
        # ... and the fresh artifact replaced the corrupt file
        reopened = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.misses == 0

    def test_clear_touches_only_cache_entries(self, tmp_path):
        cache = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), l0_config(8), cache=cache)
        user_file = tmp_path / "notes.pkl"
        user_file.write_bytes(b"mine")
        cache.clear()
        assert user_file.exists()
        assert not list(tmp_path.glob("[0-9a-f]" * 8 + "*.pkl"))
        reopened = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), l0_config(8), cache=reopened)
        assert reopened.stats.misses == 1
