"""Tests for the artifact store: a directory of key-named files whose
mtimes are the LRU signal; gc, verify, the result schema and the CLI."""

import argparse
import json
import os
import typing

import pytest

from repro.cache import main as cache_main
from repro.cache import parse_age, parse_size
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
    make_executor,
    result_fingerprint,
    result_schema_digest,
)
from repro.pipeline.cache import RESULT_SCHEMA_DIGEST, code_fingerprint
from repro.sim import SimOptions
from repro.workloads.kernels import make_saxpy

FAST = SimOptions(sim_cap=80)


def _json_store(path, decode=lambda b: json.loads(b.decode())) -> KeyedFileStore:
    return KeyedFileStore(path, ".json", lambda v: json.dumps(v).encode(), decode)


def _key(i: int) -> str:
    return f"{i:064x}"


def _backdate(file, mtime: float) -> None:
    os.utime(file, (mtime, mtime))


class TestManifest:
    """What the deleted ``manifest.json`` sidecar used to promise, now
    kept by the directory alone: a reopened or concurrent store lists
    every save with no flush, a hit's recency is the file's mtime, and a
    ``manifest.json`` left by an older version is never read."""

    def test_round_trip_through_a_fresh_store(self, tmp_path):
        _json_store(tmp_path).save(_key(1), {"x": 1})
        reopened = _json_store(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(1)}
        stat = (tmp_path / f"{_key(1)}.json").stat()
        assert entries[_key(1)].st_size == stat.st_size
        assert entries[_key(1)].st_mtime == stat.st_mtime
        assert reopened.load(_key(1)) == {"x": 1}

    def test_load_updates_recency(self, tmp_path):
        """A disk hit refreshes a backdated mtime."""
        store = _json_store(tmp_path)
        store.save(_key(1), {"x": 1})
        _backdate(tmp_path / f"{_key(1)}.json", 100.0)
        assert store.entries()[_key(1)].st_mtime == 100.0
        assert store.load(_key(1)) == {"x": 1}
        assert store.entries()[_key(1)].st_mtime > 100.0

    def test_corrupt_manifest_rebuilt_from_dir_scan(self, tmp_path):
        """A torn leftover ``manifest.json`` is not an entry: ``entries``,
        ``verify`` and ``gc`` see only the key-named files."""
        store = _json_store(tmp_path)
        for i in range(3):
            store.save(_key(i), {"i": i})
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{torn")

        reopened = _json_store(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(0), _key(1), _key(2)}
        assert all(stat.st_size > 0 for stat in entries.values())
        report = reopened.verify()
        assert (report.ok, report.corrupt) == (3, [])
        report = reopened.gc(max_bytes=0, min_age_s=0.0)
        assert (report.entries_before, report.entries_after) == (3, 0)
        assert manifest.read_text() == "{torn"

    def test_adversarially_corrupt_manifest_cannot_abort_gc(self, tmp_path):
        """Bytes that explode inside a JSON decoder (deeply nested arrays
        raise RecursionError) may sit next to the entries: nothing
        decodes them, so ``gc`` and ``clear`` run to the end and leave
        the file alone."""
        store = _json_store(tmp_path)
        store.save(_key(1), {"v": 1})
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"[" * 100_000)
        assert set(store.entries()) == {_key(1)}
        report = store.verify()
        assert (report.ok, report.corrupt) == (1, [])
        report = _json_store(tmp_path).gc(max_bytes=0)  # must not raise
        assert (report.entries_before, report.evicted) == (1, [_key(1)])
        store.clear()
        assert manifest.exists()

    def test_concurrent_writer_entries_survive_a_flush(self, tmp_path):
        """No flush exists: a save is visible to every store on the
        directory as soon as its atomic rename lands."""
        ours, theirs = _json_store(tmp_path), _json_store(tmp_path)
        theirs.save(_key(2), {"who": "them"})
        ours.save(_key(1), {"who": "us"})
        assert set(ours.entries()) == set(theirs.entries()) == {_key(1), _key(2)}
        assert ours.load(_key(2)) == {"who": "them"}
        assert theirs.load(_key(1)) == {"who": "us"}

    def test_clear_resets_manifest(self, tmp_path):
        store = _json_store(tmp_path)
        store.save(_key(1), {"x": 1})
        store.clear()
        assert list(tmp_path.iterdir()) == []
        reopened = _json_store(tmp_path)
        assert reopened.entries() == {}
        assert reopened.load(_key(1)) is None


class TestStore:
    def test_hit_whose_file_vanishes_before_the_refresh_returns_its_value(
        self, tmp_path
    ):
        file = tmp_path / f"{_key(1)}.json"

        def decode_as_a_concurrent_gc_unlinks(blob):
            file.unlink()
            return json.loads(blob.decode())

        _json_store(tmp_path).save(_key(1), {"x": 1})
        store = _json_store(tmp_path, decode_as_a_concurrent_gc_unlinks)
        assert store.load(_key(1)) == {"x": 1}
        assert not file.exists()

    def test_entries_list_every_file_a_worker_fleet_wrote(self, tmp_path):
        """Fleet workers exit without running ``atexit`` hooks; nothing
        is buffered, so every entry they wrote is listed."""
        result_dir, compile_dir = tmp_path / "results", tmp_path / "compile"
        options = SimOptions(sim_cap=80, compile_cache_dir=str(compile_dir))
        session = Session(
            options=options, cache=ResultCache(result_dir), executor=make_executor(2)
        )
        session.run_many(
            [
                RunRequest("g721dec", config, options)
                for config in (unified_config(), l0_config(8))
            ]
        )
        assert session.simulations == 2
        for cache, suffix in (
            (ResultCache(result_dir), ".json"),
            (CompiledLoopCache(compile_dir), ".pkl"),
        ):
            files = {file.stem for file in cache.store.path.glob(f"*{suffix}")}
            assert files
            assert set(cache.store.entries()) == files


class TestGC:
    def test_lru_size_cap_evicts_coldest_first(self, tmp_path):
        store = _json_store(tmp_path)
        sizes = {}
        for i in range(4):
            store.save(_key(i), {"payload": "x" * 50})
            file = tmp_path / f"{_key(i)}.json"
            sizes[_key(i)] = file.stat().st_size
            # Deterministic recency: key 0 coldest ... key 3 hottest.
            _backdate(file, 100.0 + i)
        store.load(_key(0))  # ... until a hit makes key 0 the hottest
        cap = sizes[_key(3)] + sizes[_key(0)]
        report = store.gc(max_bytes=cap, min_age_s=0.0)
        assert report.evicted == [_key(1), _key(2)]
        assert set(store.entries()) == {_key(0), _key(3)}
        assert (report.entries_after, report.bytes_after) == (2, cap)

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
        """Entries written or hit within ``min_age_s`` are spared."""
        store = _json_store(tmp_path)
        for i in range(3):
            store.save(_key(i), {"v": i})
        _backdate(tmp_path / f"{_key(1)}.json", 100.0)
        _backdate(tmp_path / f"{_key(2)}.json", 100.0)
        store.load(_key(2))  # hit just now
        report = store.gc(max_bytes=0, min_age_s=3600.0)
        assert report.evicted == [_key(1)]
        assert set(store.entries()) == {_key(0), _key(2)}

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
        _backdate(tmp_path / f"{key}.pkl", 100.0)

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
        # The disk hit refreshed the entry's mtime, the LRU signal.
        assert reopened.store.entries()[key].st_mtime > 100.0


class TestCacheCLI:
    @pytest.fixture()
    def dirs(self, tmp_path):
        result_dir = tmp_path / "results"
        compile_dir = tmp_path / "compile"
        fuzz_dir = tmp_path / "fuzz"
        request = RunRequest("g721dec", l0_config(8), FAST)
        Session(options=FAST, cache=ResultCache(result_dir)).run(request)
        compile_cached(make_saxpy(), l0_config(8), cache=CompiledLoopCache(compile_dir))
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
        assert out.count("entries: 1 ") == 3
        assert out.count("last used: newest") == 3

    def test_gc_bounds_all_dirs(self, dirs, capsys):
        argv = self._argv(dirs, "gc", "--max-bytes", "0", "--min-age", "0")
        assert cache_main(argv) == 0
        result_dir, compile_dir, fuzz_dir = dirs
        assert not list(result_dir.glob("*.json"))
        assert not list(compile_dir.glob("*.pkl"))
        assert not list(fuzz_dir.glob("*.json"))

    @pytest.mark.parametrize(
        "bounds",
        [
            ["--min-age", "0"],
            ["--max-bytes=-5M", "--min-age", "0"],
            ["--max-bytes", "inf", "--min-age", "0"],
            ["--max-bytes", "0", "--min-age=-1"],
        ],
    )
    def test_gc_bad_bounds_are_usage_errors(self, dirs, bounds, capsys):
        with pytest.raises(SystemExit) as exc:
            cache_main(self._argv(dirs, "gc", *bounds))
        assert exc.value.code == 2
        assert all(len(list(d.iterdir())) == 1 for d in dirs)  # nothing evicted

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
        assert parse_size("0") == 0
        for bad in ("-5M", "-1", "inf", "-inf", "nan", "1e308G", "many"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_size(bad)
        assert parse_age("0") == 0.0
        assert parse_age("2.5") == 2.5
        for bad in ("-1", "inf", "nan", "soon"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_age(bad)


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
        compile_cached(make_saxpy(), l0_config(8), cache=CompiledLoopCache(compile_dir))

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
