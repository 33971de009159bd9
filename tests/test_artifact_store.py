"""Tests for the artifact store: a directory of ``<key>.pkl`` files, and
the one cache class over it."""

import os
import pickle
import typing

import pytest

from repro.fuzz.engine import FuzzJob, execute_job
from repro.machine import l0_config, unified_config
from repro.pipeline import (
    KeyedCache,
    KeyedFileStore,
    RunRequest,
    SerialExecutor,
    Session,
    compile_cached,
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


class TestManifest:
    """What the deleted ``manifest.json`` sidecar used to promise, now
    kept by the directory alone: a reopened or concurrent store lists
    every save with no flush, and a ``manifest.json`` left by an older
    version is never read."""

    def test_round_trip_through_a_fresh_store(self, tmp_path):
        KeyedFileStore(tmp_path).save(_key(1), _blob({"x": 1}))
        reopened = KeyedFileStore(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(1)}
        stat = (tmp_path / f"{_key(1)}.pkl").stat()
        assert entries[_key(1)].st_size == stat.st_size
        assert entries[_key(1)].st_mtime == stat.st_mtime
        assert reopened.load(_key(1)) == _blob({"x": 1})

    def test_corrupt_manifest_rebuilt_from_dir_scan(self, tmp_path):
        """A torn leftover ``manifest.json`` is not an entry: ``entries``
        sees only the ``<key>.pkl`` files, and nothing rewrites it."""
        store = KeyedFileStore(tmp_path)
        for i in range(3):
            store.save(_key(i), _blob({"i": i}))
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{torn")

        reopened = KeyedFileStore(tmp_path)
        entries = reopened.entries()
        assert set(entries) == {_key(0), _key(1), _key(2)}
        assert all(stat.st_size > 0 for stat in entries.values())
        assert manifest.read_text() == "{torn"

    def test_adversarially_corrupt_manifest_cannot_abort_a_scan(self, tmp_path):
        """Bytes that explode inside a JSON decoder (deeply nested arrays
        raise RecursionError) may sit next to the entries: nothing
        decodes them, so ``entries`` and ``clear`` run to the end and
        leave the file alone."""
        store = KeyedFileStore(tmp_path)
        store.save(_key(1), _blob({"v": 1}))
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"[" * 100_000)
        assert set(KeyedFileStore(tmp_path).entries()) == {_key(1)}
        store.clear()
        assert store.entries() == {}
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
    def test_an_entry_is_exactly_a_key_pkl_file(self, tmp_path):
        """Only ``<key>.pkl`` files are entries.  A key-named file under
        another suffix, a ``manifest.json`` and a writer's ``.tmp`` file
        are not: ``entries`` leaves them out, ``get`` misses on their
        keys, and ``clear`` leaves the foreign files in place (it sweeps
        only entries and orphaned tmp writes)."""
        cache = KeyedCache(tmp_path)
        cache.put(_key(1), {"v": 1})
        stray = tmp_path / f"{_key(2)}.json"
        stray.write_bytes(_blob({"v": 2}))  # unpickles, but is not an entry
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        tmp = tmp_path / f".{_key(3)}.{os.getpid()}.tmp"
        tmp.write_bytes(_blob({"v": 3}))

        store = KeyedFileStore(tmp_path)
        assert set(store.entries()) == {_key(1)}
        reopened = KeyedCache(tmp_path)
        assert reopened.get(_key(1)) == {"v": 1}
        assert reopened.get(_key(2)) is None
        assert reopened.get(_key(3)) is None
        assert (reopened.stats.hits, reopened.stats.misses) == (1, 2)
        assert stray.exists()  # a miss never reads or drops a foreign file

        store.clear()
        assert store.entries() == {}
        assert {f.name for f in tmp_path.iterdir()} == {stray.name, manifest.name}

    def test_public_methods(self):
        public = {name for name in vars(KeyedFileStore) if not name.startswith("_")}
        assert public == {"suffix", "load", "save", "drop", "clear", "entries"}

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
    def test_disk_hits_counted_separately(self, tmp_path):
        config = l0_config(8)
        warm = KeyedCache(tmp_path)
        compile_cached(make_saxpy(), config, cache=warm)

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
