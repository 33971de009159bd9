"""Tests for the managed artifact store: manifest, GC, schema, CLI."""

import json
import os
import typing

import pytest

from repro.cache import main as cache_main
from repro.cache import parse_size
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    RESULT_SCHEMA_VERSION,
    CompiledLoopCache,
    CompileOptions,
    KeyedFileStore,
    ResultCache,
    RunRequest,
    Session,
    compile_cached,
    compile_key,
    encode_result,
    result_fingerprint,
    result_schema_digest,
)
from repro.pipeline.cache import RESULT_SCHEMA_DIGEST, code_fingerprint
from repro.pipeline.manifest import MANIFEST_NAME
from repro.sim import SimOptions
from repro.workloads.kernels import make_dpcm, make_saxpy

FAST = SimOptions(sim_cap=80)


def _json_store(path) -> KeyedFileStore:
    return KeyedFileStore(
        path,
        ".json",
        lambda v: json.dumps(v).encode(),
        lambda b: json.loads(b.decode()),
    )


def _key(i: int) -> str:
    return f"{i:064x}"


class TestManifest:
    def test_round_trip_through_a_fresh_store(self, tmp_path):
        store = _json_store(tmp_path)
        desc = {"benchmark": "g721dec", "config": {"arch": "l0"}}
        store.save(_key(1), {"x": 1}, description=desc)
        store.manifest.flush()  # records are buffered; fold them in

        reopened = _json_store(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(1)}
        entry = entries[_key(1)]
        assert entry.description == desc
        assert entry.fingerprint == code_fingerprint()
        assert entry.size == (tmp_path / f"{_key(1)}.json").stat().st_size
        assert entry.created > 0 and entry.last_hit >= entry.created

    def test_load_updates_recency(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"x": 1})
        # Backdate the entry, then hit it: last_hit must move forward.
        store.manifest.record(_key(1), size=8, now=100.0)
        assert store.load(_key(1)) == {"x": 1}
        store.manifest.flush()
        assert _json_store(tmp_path).entries()[_key(1)].last_hit > 100.0

    def test_corrupt_manifest_rebuilt_from_dir_scan(self, tmp_path):
        store = _json_store(tmp_path)
        for i in range(3):
            store.save(_key(i), {"i": i})
        (tmp_path / MANIFEST_NAME).write_text("{torn")

        reopened = _json_store(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(0), _key(1), _key(2)}
        for entry in entries.values():
            assert entry.size > 0  # stat-backed
            assert entry.fingerprint is None  # authorship unknown
        # ... and GC still functions over the rebuilt view.
        report = reopened.gc(max_bytes=0, min_age_s=0.0)
        assert report.entries_after == 0

    def test_adversarially_corrupt_manifest_cannot_abort_gc(self, tmp_path):
        """Malformed JSON is the easy case; bytes that *explode* inside
        the decoder (deeply nested arrays raise RecursionError, not
        ValueError) must equally mean "rebuild from the directory scan"
        — a sidecar file may never take down a sweep mid-``gc``."""
        store = _json_store(tmp_path)
        for i in range(3):
            store.save(_key(i), {"i": i})
        (tmp_path / MANIFEST_NAME).write_bytes(b"[" * 100_000)

        reopened = _json_store(tmp_path)
        report = reopened.gc(max_bytes=0, min_age_s=0.0)  # must not raise
        assert report.entries_before == 3
        assert report.entries_after == 0
        # The rewrite healed the manifest for the next reader.
        assert _json_store(tmp_path).entries() == {}

    def test_concurrent_writer_entries_survive_a_flush(self, tmp_path):
        ours, theirs = _json_store(tmp_path), _json_store(tmp_path)
        theirs.save(_key(2), {"who": "them"})
        theirs.manifest.flush()
        # Our flush read-merge-writes: their freshly recorded entry must
        # survive even though our in-process view never saw it.
        ours.save(_key(1), {"who": "us"})
        ours.manifest.flush()
        entries = _json_store(tmp_path).entries()
        assert entries[_key(2)].fingerprint == code_fingerprint()
        assert entries[_key(1)].fingerprint == code_fingerprint()

    def test_clear_resets_manifest(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"x": 1})
        store.clear()
        assert not (tmp_path / MANIFEST_NAME).exists()
        assert _json_store(tmp_path).entries() == {}


class TestGC:
    def test_lru_size_cap_evicts_coldest_first(self, tmp_path):
        store = _json_store(tmp_path)
        sizes = {}
        for i in range(4):
            store.save(_key(i), {"payload": "x" * 50})
            sizes[_key(i)] = (tmp_path / f"{_key(i)}.json").stat().st_size
            # Deterministic recency: key 0 coldest ... key 3 hottest.
            store.manifest.record(_key(i), size=sizes[_key(i)], now=100.0 + i)
        cap = sizes[_key(2)] + sizes[_key(3)]
        report = store.gc(max_bytes=cap, min_age_s=0.0)
        assert report.evicted == [_key(0), _key(1)]
        assert set(store.entries()) == {_key(2), _key(3)}
        assert report.bytes_after <= cap
        # The manifest file was pruned along with the directory.
        data = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert set(data["entries"]) == {_key(2), _key(3)}

    def test_orphan_sweep_by_fingerprint(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})  # current fingerprint
        store.save(_key(2), {"v": 2})
        store.manifest.record(_key(2), size=8, fingerprint="dead0000dead0000")
        report = store.gc(keep_fingerprints={code_fingerprint()})
        assert report.orphans == [_key(2)]
        assert set(store.entries()) == {_key(1)}

    def test_unknown_fingerprint_survives_orphan_sweep(self, tmp_path):
        """After a manifest loss, authorship is unknown; the sweep must
        be conservative (only the size cap may reclaim those entries)."""
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})
        store.manifest.flush()
        (tmp_path / MANIFEST_NAME).unlink()
        reopened = _json_store(tmp_path)
        report = reopened.gc(keep_fingerprints={code_fingerprint()})
        assert report.orphans == []
        assert set(reopened.entries()) == {_key(1)}

    def test_gc_never_touches_in_flight_writes(self, tmp_path):
        """A concurrent writer's tmp file must survive GC, and its
        atomic rename must land afterwards."""
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})
        tmp = tmp_path / f".{_key(2)}.{os.getpid()}.tmp"
        tmp.write_bytes(json.dumps({"v": 2}).encode())  # mid-write

        report = store.gc(max_bytes=0, min_age_s=0.0)
        assert report.entries_after == 0
        assert tmp.exists()  # the in-flight write was spared

        tmp.replace(tmp_path / f"{_key(2)}.json")  # writer finishes
        assert _json_store(tmp_path).load(_key(2)) == {"v": 2}

    def test_min_age_grace_period(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})  # created just now
        report = store.gc(max_bytes=0, min_age_s=3600.0)
        assert report.evicted == []
        assert set(store.entries()) == {_key(1)}

    def test_verify_drops_corrupt_entries(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})
        (tmp_path / f"{_key(2)}.json").write_text("{torn")
        report = store.verify()
        assert report.ok == 1
        assert report.corrupt == [_key(2)]
        assert not (tmp_path / f"{_key(2)}.json").exists()


class TestResultSchema:
    def test_entries_written_in_versioned_envelope(self, tmp_path):
        request = RunRequest("g721dec", l0_config(8), FAST)
        Session(options=FAST, cache=ResultCache(tmp_path)).run(request)
        envelope = json.loads((tmp_path / f"{request.key}.json").read_text())
        assert envelope["schema"] == RESULT_SCHEMA_VERSION
        assert envelope["fingerprint"] == code_fingerprint()
        assert envelope["result"]["__type__"] == "ProgramResult"

    @pytest.mark.parametrize("layout", ["foreign-schema", "pre-envelope"])
    def test_foreign_schema_version_is_a_miss(self, tmp_path, layout):
        """Only the current envelope is ever served.  A foreign schema
        version, or the bare payload written before the envelope existed,
        is a miss on load and a corrupt entry to verify()."""
        request = RunRequest("g721dec", unified_config(), FAST)
        fresh = Session(options=FAST, cache=ResultCache(tmp_path)).run(request)
        entry = tmp_path / f"{request.key}.json"
        if layout == "foreign-schema":
            stale = json.loads(entry.read_text())
            stale["schema"] = RESULT_SCHEMA_VERSION + 1
        else:
            stale = encode_result(fresh)

        entry.write_text(json.dumps(stale))
        reopened = Session(options=FAST, cache=ResultCache(tmp_path))
        reopened.run(request)
        assert reopened.simulations == 1  # mismatched entry not served

        entry.write_text(json.dumps(stale))
        report = ResultCache(tmp_path).verify()
        assert (report.ok, report.corrupt) == (0, [request.key])
        assert not entry.exists()

    def test_schema_digest_pinned_to_version(self):
        """Changing any stat dataclass's fields without bumping
        RESULT_SCHEMA_VERSION (and re-pinning the digest) must fail."""
        assert result_schema_digest() == RESULT_SCHEMA_DIGEST, (
            "the result schema changed: bump RESULT_SCHEMA_VERSION and "
            "re-pin RESULT_SCHEMA_DIGEST in repro/pipeline/cache.py"
        )


class TestAnnotations:
    @pytest.mark.parametrize("cls", [KeyedFileStore, ResultCache, CompiledLoopCache])
    def test_public_method_annotations_resolve(self, cls):
        """Every name an annotation uses is importable from its module
        (an unresolved one raises NameError here)."""
        for name, member in vars(cls).items():
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(member, property):
                member = member.fget
            if callable(member):
                typing.get_type_hints(member)


class TestCompileCacheDiskHits:
    def test_disk_hits_counted_separately_and_touch_recency(self, tmp_path):
        config = l0_config(8)
        warm = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=warm)
        key = compile_key(make_saxpy(), config, CompileOptions())
        warm.store.manifest.record(key, size=1, now=100.0)  # backdate
        warm.flush()

        reopened = CompiledLoopCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.full_hits == 1
        assert reopened.stats.full_disk_hits == 1
        assert reopened.stats.full_memory_hits == 0
        # A repeat is served from memory: no new disk hit.
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.full_hits == 2
        assert reopened.stats.full_disk_hits == 1
        assert reopened.stats.full_memory_hits == 1
        # The disk hit refreshed the manifest's LRU signal.
        reopened.flush()
        assert CompiledLoopCache(tmp_path).store.entries()[key].last_hit > 100.0

    def test_compile_entries_carry_descriptions(self, tmp_path):
        cache = CompiledLoopCache(tmp_path)
        compile_cached(make_dpcm(), l0_config(4), cache=cache)
        (entry,) = cache.store.entries().values()
        assert entry.description["loop"] == "dpcm"
        assert entry.description["scheduler"] == "sms"
        assert entry.description["config"]["l0_entries"] == 4


class TestSessionTeardown:
    def test_close_gc_bounds_the_store(self, tmp_path):
        session = Session(options=FAST, cache=ResultCache(tmp_path), gc_max_bytes=0)
        session.run(RunRequest("g721dec", unified_config(), FAST))
        assert any(p.stem != "manifest" for p in tmp_path.glob("*.json"))
        session.close()
        assert session.cache.store.entries() == {}

    def test_context_manager_flushes_recency(self, tmp_path):
        request = RunRequest("g721dec", unified_config(), FAST)
        Session(options=FAST, cache=ResultCache(tmp_path)).run(request)
        cache = ResultCache(tmp_path)
        cache.store.manifest.record(request.key, size=1, now=100.0)
        with Session(options=FAST, cache=cache) as session:
            session.run(request)  # disk hit -> buffered touch
        entries = ResultCache(tmp_path).store.entries()
        assert entries[request.key].last_hit > 100.0


class TestCacheCLI:
    @pytest.fixture()
    def dirs(self, tmp_path):
        result_dir = tmp_path / "results"
        compile_dir = tmp_path / "compile"
        fuzz_dir = tmp_path / "fuzz"
        request = RunRequest("g721dec", l0_config(8), FAST)
        with Session(options=FAST, cache=ResultCache(result_dir)) as session:
            session.run(request)
        compile_cache = CompiledLoopCache(compile_dir)
        compile_cached(make_saxpy(), l0_config(8), cache=compile_cache)
        compile_cache.flush()
        from repro.fuzz.engine import make_jobs, run_jobs
        from repro.fuzz.store import FuzzStore

        jobs = make_jobs(["edge:tiny"], ["unified"], ("certify",), spread=False)
        run_jobs(jobs, store=FuzzStore(fuzz_dir))
        return result_dir, compile_dir, fuzz_dir

    def _argv(self, dirs, *rest):
        result_dir, compile_dir, fuzz_dir = dirs
        return [
            "--cache-dir",
            str(result_dir),
            "--compile-cache-dir",
            str(compile_dir),
            "--fuzz-cache-dir",
            str(fuzz_dir),
            *rest,
        ]

    def test_stats(self, dirs, capsys):
        assert cache_main(self._argv(dirs, "stats")) == 0
        out = capsys.readouterr().out
        assert "results:" in out and "compile:" in out and "fuzz:" in out
        assert "(current)" in out

    def test_ls_shows_descriptions(self, dirs, capsys):
        assert cache_main(self._argv(dirs, "ls")) == 0
        out = capsys.readouterr().out
        assert "g721dec" in out  # result entry description
        assert "saxpy" in out  # compile entry description
        assert "edge:tiny" in out  # fuzz entry description

    def test_gc_bounds_all_dirs(self, dirs, capsys):
        argv = self._argv(dirs, "gc", "--max-bytes", "0", "--min-age", "0")
        assert cache_main(argv) == 0
        result_dir, compile_dir, fuzz_dir = dirs
        leftovers = sorted(p.name for p in result_dir.glob("*.json"))
        assert leftovers in ([], [MANIFEST_NAME])
        assert not list(compile_dir.glob("*.pkl"))
        fuzz_left = sorted(p.name for p in fuzz_dir.glob("*.json"))
        assert fuzz_left in ([], [MANIFEST_NAME])

    def test_verify_exits_nonzero_on_corruption(self, dirs, capsys):
        result_dir = dirs[0]
        (result_dir / f"{_key(9)}.json").write_text("{torn")
        assert cache_main(self._argv(dirs, "verify")) == 1
        # The corrupt entry was dropped: a second pass is clean.
        assert cache_main(self._argv(dirs, "verify")) == 0

    def test_missing_dirs_are_skipped(self, tmp_path, capsys):
        argv = [
            "--cache-dir",
            str(tmp_path / "absent"),
            "--compile-cache-dir",
            str(tmp_path / "also-absent"),
            "--fuzz-cache-dir",
            str(tmp_path / "absent-too"),
            "stats",
        ]
        assert cache_main(argv) == 0
        assert "no cache directories" in capsys.readouterr().err
        assert not (tmp_path / "absent").exists()  # never mkdirs

    def test_parse_size(self):
        assert parse_size("200M") == 200 * 1024**2
        assert parse_size("1.5K") == 1536
        assert parse_size("4096") == 4096
        assert parse_size("2GB") == 2 * 1024**3


class TestWarmReuseAfterGC:
    def test_survivors_serve_a_warm_run_with_zero_recompiles(self, tmp_path):
        """Acceptance: gc bounds the dirs; a subsequent warm run
        reproduces byte-identical results with zero work for the
        entries that survived."""
        result_dir = tmp_path / "results"
        compile_dir = tmp_path / "compile"
        requests = [
            RunRequest("g721dec", l0_config(8), FAST),
            RunRequest("g721dec", unified_config(), FAST),
        ]
        cold = Session(options=FAST, cache=ResultCache(result_dir))
        first = [cold.run(r) for r in requests]
        cold.close()
        compile_cache = CompiledLoopCache(compile_dir)
        compile_cached(make_saxpy(), l0_config(8), cache=compile_cache)
        compile_cache.flush()

        # Generous cap: everything survives.
        argv = [
            "--cache-dir",
            str(result_dir),
            "--compile-cache-dir",
            str(compile_dir),
            "gc",
            "--max-bytes",
            "1G",
            "--min-age",
            "0",
        ]
        assert cache_main(argv) == 0

        warm = Session(options=FAST, cache=ResultCache(result_dir))
        second = [warm.run(r) for r in requests]
        assert warm.simulations == 0
        for a, b in zip(first, second):
            assert result_fingerprint(a) == result_fingerprint(b)
        reopened = CompiledLoopCache(compile_dir)
        compile_cached(make_saxpy(), l0_config(8), cache=reopened)
        assert reopened.stats.compilations == 0


class TestCIBench:
    def test_cibench_smoke(self, tmp_path):
        from repro.eval.cibench import BENCH_SCHEMA_VERSION
        from repro.eval.cibench import main as cibench_main

        output = tmp_path / "BENCH_ci.json"
        sim_output = tmp_path / "BENCH_sim.json"
        rc = cibench_main(
            [
                "--output",
                str(output),
                # Redirected away from the repo root: the default would
                # overwrite the committed throughput baseline on every
                # test run.
                "--sim-output",
                str(sim_output),
                "--benchmarks",
                "g721dec",
                "--sched-benchmarks",
                "--sim-cap",
                "60",
                "--root",
                str(tmp_path / "caches"),
            ]
        )
        assert rc == 0
        report = json.loads(output.read_text())
        assert report["schema"] == BENCH_SCHEMA_VERSION
        assert report["phases"]["cold"]["simulations"] > 0
        assert report["phases"]["warm"]["simulations"] == 0
        assert report["figures_identical"] is True
        assert report["failures"] == []
        sim_record = json.loads(sim_output.read_text())
        assert sim_record["speedup"] > 0
        assert report["sim_bench"]["speedup"] == sim_record["speedup"]
