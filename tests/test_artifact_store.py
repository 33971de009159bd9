"""Tests for the artifact store: a directory of key-named files whose
mtimes are the LRU signal; the one cache class over it, gc, verify and
the CLI."""

import argparse
import json
import os
import pickle
import typing

import pytest

from repro.cache import main as cache_main
from repro.cache import parse_age, parse_size
from repro.fuzz.engine import FuzzJob, execute_job
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    CompileOptions,
    KeyedCache,
    KeyedFileStore,
    RunRequest,
    SerialExecutor,
    Session,
    compile_cached,
    compile_key,
    compile_uncached,
    make_executor,
)
from repro.scheduler.driver import CompiledLoop
from repro.sim import SimOptions
from repro.workloads.kernels import make_saxpy
from test_schedule_golden import render

FAST = SimOptions(sim_cap=80)


def _blob(value) -> bytes:
    return pickle.dumps(value)


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
        KeyedFileStore(tmp_path).save(_key(1), _blob({"x": 1}))
        reopened = KeyedFileStore(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(1)}
        stat = (tmp_path / f"{_key(1)}.pkl").stat()
        assert entries[_key(1)].st_size == stat.st_size
        assert entries[_key(1)].st_mtime == stat.st_mtime
        assert reopened.load(_key(1)) == _blob({"x": 1})

    def test_load_updates_recency(self, tmp_path):
        """A disk hit refreshes a backdated mtime."""
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"x": 1}))
        _backdate(tmp_path / f"{_key(1)}.pkl", 100.0)
        assert store.entries()[_key(1)].st_mtime == 100.0
        assert store.load(_key(1)) == _blob({"x": 1})
        assert store.entries()[_key(1)].st_mtime > 100.0

    def test_corrupt_manifest_rebuilt_from_dir_scan(self, tmp_path):
        """A torn leftover ``manifest.json`` is not an entry: ``entries``,
        ``verify`` and ``gc`` see only the key-named files."""
        store = KeyedFileStore(tmp_path)
        for i in range(3):
            store.save(_key(i), _blob({"i": i}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{torn")

        reopened = KeyedFileStore(tmp_path)
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
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"v": 1}))
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"[" * 100_000)
        assert set(store.entries()) == {_key(1)}
        report = store.verify()
        assert (report.ok, report.corrupt) == (1, [])
        report = KeyedFileStore(tmp_path).gc(max_bytes=0)  # must not raise
        assert (report.entries_before, report.evicted) == (1, [_key(1)])
        store.clear()
        assert manifest.exists()

    def test_concurrent_writer_entries_survive_a_flush(self, tmp_path):
        """No flush exists: a save is visible to every store on the
        directory as soon as its atomic rename lands."""
        ours, theirs = KeyedFileStore(tmp_path), KeyedFileStore(tmp_path)
        theirs.save(_key(2), _blob({"who": "them"}))
        ours.save(_key(1), _blob({"who": "us"}))
        assert set(ours.entries()) == set(theirs.entries()) == {_key(1), _key(2)}
        assert ours.load(_key(2)) == _blob({"who": "them"})
        assert theirs.load(_key(1)) == _blob({"who": "us"})

    def test_clear_resets_manifest(self, tmp_path):
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"x": 1}))
        store.clear()
        assert list(tmp_path.iterdir()) == []
        reopened = KeyedFileStore(tmp_path)
        assert reopened.entries() == {}
        assert reopened.load(_key(1)) is None


class TestStore:
    def test_hit_whose_file_vanishes_before_the_refresh_returns_its_value(
        self, tmp_path, monkeypatch
    ):
        file = tmp_path / f"{_key(1)}.pkl"
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"x": 1}))
        real_utime = os.utime

        def utime_after_a_concurrent_gc_unlinks(path, *args, **kwargs):
            file.unlink()
            return real_utime(path, *args, **kwargs)

        monkeypatch.setattr(os, "utime", utime_after_a_concurrent_gc_unlinks)
        assert store.load(_key(1)) == _blob({"x": 1})
        assert not file.exists()

    def test_entries_list_every_file_a_worker_fleet_wrote(self, tmp_path):
        """Fleet workers exit without running ``atexit`` hooks; nothing
        is buffered, so every entry they wrote is listed."""
        result_dir, compile_dir = tmp_path / "results", tmp_path / "compile"
        options = SimOptions(sim_cap=80, compile_cache_dir=str(compile_dir))
        session = Session(
            options=options, cache=KeyedCache(result_dir), executor=make_executor(2)
        )
        session.run_many(
            [
                RunRequest("g721dec", config, options)
                for config in (unified_config(), l0_config(8))
            ]
        )
        assert session.simulations == 2
        for directory in (result_dir, compile_dir):
            files = {file.stem for file in directory.glob("*.pkl")}
            assert files
            assert set(KeyedCache(directory).store.entries()) == files


class TestGC:
    def test_lru_size_cap_evicts_coldest_first(self, tmp_path):
        store = KeyedFileStore(tmp_path)
        sizes = {}
        for i in range(4):
            store.save(_key(i), _blob({"payload": "x" * 50}))
            file = tmp_path / f"{_key(i)}.pkl"
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
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"v": 1}))
        tmp = tmp_path / f".{_key(2)}.{os.getpid()}.tmp"
        tmp.write_bytes(_blob({"v": 2}))  # mid-write

        report = store.gc(max_bytes=0, min_age_s=0.0)
        assert report.entries_after == 0
        assert tmp.exists()  # the in-flight write was spared

        tmp.replace(tmp_path / f"{_key(2)}.pkl")  # writer finishes
        assert KeyedFileStore(tmp_path).load(_key(2)) == _blob({"v": 2})

    def test_min_age_grace_period(self, tmp_path):
        """Entries written or hit within ``min_age_s`` are spared."""
        store = KeyedFileStore(tmp_path)
        for i in range(3):
            store.save(_key(i), _blob({"v": i}))
        _backdate(tmp_path / f"{_key(1)}.pkl", 100.0)
        _backdate(tmp_path / f"{_key(2)}.pkl", 100.0)
        store.load(_key(2))  # hit just now
        report = store.gc(max_bytes=0, min_age_s=3600.0)
        assert report.evicted == [_key(1)]
        assert set(store.entries()) == {_key(0), _key(2)}

    def test_verify_drops_corrupt_entries(self, tmp_path):
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"v": 1}))
        (tmp_path / f"{_key(2)}.pkl").write_bytes(b"torn write")
        report = store.verify()
        assert report.ok == 1
        assert report.corrupt == [_key(2)]
        assert not (tmp_path / f"{_key(2)}.pkl").exists()


def _program_result():
    return SerialExecutor().map([RunRequest("g721dec", l0_config(8), FAST)])[0]


def _compiled_loop():
    return compile_uncached(make_saxpy(), l0_config(8))


def _fuzz_entry():
    return execute_job(FuzzJob("edge:tiny", "unified", ("certify",)))


def _view(value):
    """What a round trip must preserve, in a form ``==`` compares (a
    ``CompiledLoop``'s DDG compares by identity)."""
    if isinstance(value, CompiledLoop):
        return (render(value.schedule), value.unroll_factor, value.policy_name)
    return value


class TestOneFormat:
    @pytest.mark.parametrize(
        "make", [_program_result, _compiled_loop, _fuzz_entry], ids=lambda f: f.__name__
    )
    def test_round_trip_through_a_reopened_directory(self, tmp_path, make):
        """Results, compile artifacts and plain data (a fuzz verdict) share
        one format: a ``<key>.pkl`` file a fresh cache on the directory
        serves."""
        value = make()
        KeyedCache(tmp_path).put(_key(1), value)
        assert [file.name for file in tmp_path.iterdir()] == [f"{_key(1)}.pkl"]
        reopened = KeyedCache(tmp_path)
        copy = reopened.get(_key(1))
        assert copy is not value
        assert _view(copy) == _view(value)
        assert (reopened.stats.hits, reopened.stats.disk_hits) == (1, 1)
        assert reopened.stats.misses == 0

    def test_old_format_entry_is_counted_dropped_and_evicted(
        self, tmp_path, capsys, monkeypatch
    ):
        """A ``<key>.json`` left by an older version is never loaded, but
        it is an entry to ``repro.cache``: ``stats`` counts it, ``verify``
        drops it (exit 1) and ``gc`` unlinks it from disk."""
        result_dir = tmp_path / "results"
        KeyedCache(result_dir).put(_key(1), {"v": 1})
        current = result_dir / f"{_key(1)}.pkl"
        old = result_dir / f"{_key(2)}.json"
        # The default compile directory is absent here.
        monkeypatch.chdir(tmp_path)
        argv = ["--cache-dir", str(result_dir)]

        def plant_old_entry():
            old.write_text(json.dumps({"schema": 5, "result": {}}))
            _backdate(old, 100.0)

        plant_old_entry()
        assert cache_main(argv + ["stats"]) == 0
        assert "entries: 2 " in capsys.readouterr().out
        assert KeyedCache(result_dir).get(_key(2)) is None
        assert old.exists()  # a lookup never reads or drops it

        assert cache_main(argv + ["verify"]) == 1
        assert "1 entries ok, 1 corrupt removed" in capsys.readouterr().out
        assert not old.exists() and current.exists()

        plant_old_entry()
        cap = ["--max-bytes", str(current.stat().st_size), "--min-age", "0"]
        assert cache_main(argv + ["gc", *cap]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert not old.exists() and current.exists()


    def test_verify_drops_a_key_named_file_load_never_reads(self, tmp_path):
        """Only ``<key>.pkl`` is ever loaded, so a key-named file under any
        other suffix is dead weight even if its bytes unpickle."""
        store = KeyedFileStore(tmp_path)
        stray = tmp_path / f"{_key(1)}.json"
        stray.write_bytes(_blob({"v": 1}))
        assert store.load(_key(1)) is None
        assert set(store.entries()) == {_key(1)}
        report = store.verify()
        assert (report.ok, report.corrupt) == (0, [_key(1)])
        assert not stray.exists()


class TestAnnotations:
    @pytest.mark.parametrize("cls", [KeyedFileStore, KeyedCache])
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


class TestDiskHitUnpicklesOnce:
    def test_one_pickle_load_per_hit(self, tmp_path, monkeypatch):
        """``get`` validates a disk entry by the one unpickle that serves
        it; ``load`` hands back the bytes it read."""
        KeyedCache(tmp_path).put(_key(1), {"v": 1})
        calls = []
        real_loads = pickle.loads

        def counted_loads(blob, *args, **kwargs):
            calls.append(blob)
            return real_loads(blob, *args, **kwargs)

        monkeypatch.setattr(pickle, "loads", counted_loads)
        reopened = KeyedCache(tmp_path)
        assert reopened.get(_key(1)) == {"v": 1}
        assert (len(calls), reopened.stats.disk_hits) == (1, 1)
        assert reopened.get(_key(1)) == {"v": 1}  # a memory hit
        assert (len(calls), reopened.stats.disk_hits) == (2, 1)
        assert KeyedFileStore(tmp_path).load(_key(1)) == _blob({"v": 1})
        assert len(calls) == 2

    def test_torn_entry_is_a_miss_and_is_dropped(self, tmp_path):
        file = tmp_path / f"{_key(1)}.pkl"
        KeyedFileStore(tmp_path)  # creates the directory
        file.write_bytes(b"torn write")
        assert KeyedFileStore(tmp_path).load(_key(1)) == b"torn write"
        cache = KeyedCache(tmp_path)
        assert cache.get(_key(1)) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        assert cache.stats.disk_hits == 0
        assert not file.exists()
        # A fresh value overwrites it, and a reopened cache serves that.
        cache.put(_key(1), {"v": 2})
        assert KeyedCache(tmp_path).get(_key(1)) == {"v": 2}


class TestCompileCacheDiskHits:
    def test_disk_hits_counted_separately_and_touch_recency(self, tmp_path):
        config = l0_config(8)
        warm = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=warm)
        key = compile_key(make_saxpy(), config, CompileOptions())
        _backdate(tmp_path / f"{key}.pkl", 100.0)

        reopened = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.hits == 1
        assert reopened.stats.disk_hits == 1
        assert reopened.stats.memory_hits == 0
        # A repeat is served from memory: no new disk hit.
        compile_cached(make_saxpy(), config, cache=reopened)
        assert reopened.stats.hits == 2
        assert reopened.stats.disk_hits == 1
        assert reopened.stats.memory_hits == 1
        # The disk hit refreshed the entry's mtime, the LRU signal.
        assert reopened.store.entries()[key].st_mtime > 100.0


class TestCacheCLI:
    @pytest.fixture()
    def dirs(self, tmp_path):
        result_dir = tmp_path / "results"
        compile_dir = tmp_path / "compile"
        request = RunRequest("g721dec", l0_config(8), FAST)
        Session(options=FAST, cache=KeyedCache(result_dir)).run(request)
        compile_cached(make_saxpy(), l0_config(8), cache=KeyedCache(compile_dir))
        return result_dir, compile_dir

    def _argv(self, dirs, *rest):
        result_dir, compile_dir = dirs
        return [
            "--cache-dir",
            str(result_dir),
            "--compile-cache-dir",
            str(compile_dir),
            *rest,
        ]

    def test_stats(self, dirs, capsys):
        assert cache_main(self._argv(dirs, "stats")) == 0
        out = capsys.readouterr().out
        assert "results:" in out and "compile:" in out
        assert out.count("entries: 1 ") == 2
        assert out.count("last used: newest") == 2

    def test_gc_bounds_all_dirs(self, dirs, capsys):
        argv = self._argv(dirs, "gc", "--max-bytes", "0", "--min-age", "0")
        assert cache_main(argv) == 0
        for directory in dirs:
            assert not list(directory.glob("*.pkl"))

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
        (result_dir / f"{_key(9)}.pkl").write_bytes(b"torn write")
        assert cache_main(self._argv(dirs, "verify")) == 1
        # The corrupt entry was dropped: a second pass is clean.
        assert cache_main(self._argv(dirs, "verify")) == 0

    def test_missing_dirs_are_skipped(self, tmp_path, capsys, monkeypatch):
        # A missing directory is skipped, but with neither store there is
        # nothing to read: every command fails, and none mkdirs.
        monkeypatch.chdir(tmp_path)
        for command in (["stats"], ["verify"], ["gc", "--max-bytes", "1M"]):
            assert cache_main(command) == 1, command
            err = capsys.readouterr().err
            assert "no cache directories found (.result-cache / .compile-cache)" in err
        assert not list(tmp_path.iterdir())  # never mkdirs
        # Two stores: the fuzz store and its flag are gone.
        with pytest.raises(SystemExit) as exc:
            cache_main(["--fuzz-cache-dir", str(tmp_path), "stats"])
        assert exc.value.code == 2

    def test_named_missing_dir_fails_beside_an_existing_store(
        self, dirs, tmp_path, capsys, monkeypatch
    ):
        # A mistyped flag must not read as a clean pass over the stores
        # that do exist; the defaults, though, stay skippable.
        result_dir = dirs[0]
        monkeypatch.chdir(tmp_path)
        typo = tmp_path / "compile-typo"
        argv = ["--cache-dir", str(result_dir), "--compile-cache-dir", str(typo)]
        for command in (["stats"], ["verify"], ["gc", "--max-bytes", "1M"]):
            assert cache_main(argv + command) == 1, command
            err = capsys.readouterr().err
            assert f"--compile-cache-dir: no such directory: {typo}" in err
        assert not typo.exists()  # never mkdirs
        # Only the result store is named, and the default compile
        # directory is absent from the working directory.
        assert cache_main(["--cache-dir", str(result_dir), "verify"]) == 0
        assert "results: 1 entries ok" in capsys.readouterr().out

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
        cold = Session(options=FAST, cache=KeyedCache(result_dir))
        first = [cold.run(r) for r in requests]
        compile_cached(make_saxpy(), l0_config(8), cache=KeyedCache(compile_dir))

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

        warm = Session(options=FAST, cache=KeyedCache(result_dir))
        second = [warm.run(r) for r in requests]
        assert warm.simulations == 0
        assert second == first
        reopened = KeyedCache(compile_dir)
        compile_cached(make_saxpy(), l0_config(8), cache=reopened)
        assert reopened.stats.misses == 0


class TestWarmStart:
    def test_warm_pass_simulates_and_compiles_nothing(self, tmp_path, monkeypatch):
        """A second pass over persisted stores, starting from an empty
        in-process compile cache, reads every result and artifact from
        disk (no simulation, no compile) and reproduces the figures."""
        from repro.eval import ExperimentContext, fig5, scheduler_comparison
        from repro.pipeline import compilecache, get_compile_cache

        compile_dir = str(tmp_path / "compile")

        def one_pass():
            # Empty the process-wide registry, so this pass reads the
            # disk store rather than the previous pass's memory.
            monkeypatch.setattr(compilecache, "_CACHES", {})
            ctx = ExperimentContext(
                options=SimOptions(sim_cap=60),
                benchmarks=("g721dec",),
                cache_dir=tmp_path / "results",
                compile_cache_dir=compile_dir,
            )
            figures = (fig5(ctx), scheduler_comparison(ctx, sizes=(8,)))
            return ctx.session, get_compile_cache(compile_dir).stats, figures

        cold_session, cold_stats, cold = one_pass()
        assert cold_session.simulations > 0 and cold_stats.misses > 0
        warm_session, warm_stats, warm = one_pass()
        assert warm_session.simulations == 0
        assert warm_stats.misses == 0
        assert warm_stats.disk_hits > 0
        assert warm == cold
