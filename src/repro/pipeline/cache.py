"""Content-addressed caching: keys, the one cache class, its disk store.

A simulation is fully determined by ``(benchmark, MachineConfig,
SimOptions)`` — the simulator is deterministic (random access patterns
are seeded) — so results are keyed by a SHA-256 digest of a canonical
JSON rendering of those three values plus :func:`code_fingerprint`.
Experiments that share a configuration share cache entries
automatically, regardless of what display label each experiment uses.
Compile artifacts are keyed the same way.

:class:`KeyedCache` is the one cache class: the session's results and
the compile artifacts (``get_compile_cache``) each live in one
instance.  It holds pickled bytes in memory, optionally written
through to a :class:`KeyedFileStore` (one ``<key>.pkl`` file per
entry), so sweeps survive process restarts and are shared between the
CLI and the benchmark harness.  Every key mixes the code fingerprint,
so only the code that wrote an entry ever looks it up, and the entry
format needs no schema version.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import pickle
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

from ..machine.config import MachineConfig
from ..sim.runner import SimOptions


def _canonical(value):
    """Reduce a value to JSON-able primitives, deterministically.

    Dataclass fields carrying ``metadata={"no_cache_key": True}`` are
    excluded: they tune *how* a run executes (worker counts, cache
    directories) without changing *what* it computes, so two requests
    differing only there must share a cache entry.
    """
    if isinstance(value, enum.Enum):
        return value.name
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value)
            if not f.metadata.get("no_cache_key")
        }
    if isinstance(value, dict):
        items = {str(_canonical(k)): _canonical(v) for k, v in value.items()}
        return dict(sorted(items.items()))
    if isinstance(value, (frozenset, set)):
        return sorted(str(_canonical(v)) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalise {type(value).__name__} for cache keying")


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Digest of the ``repro`` package sources.

    Mixed into every cache key so a persisted ``--cache-dir`` can never
    serve results simulated by a different version of the compiler or
    simulator: "a run is fully determined by (benchmark, config,
    options)" only holds for a fixed code base.
    """
    root = Path(__file__).resolve().parents[1]  # the repro package
    digest = hashlib.sha256()
    for file in sorted(root.rglob("*.py")):
        digest.update(str(file.relative_to(root)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def content_key(payload: dict) -> str:
    """SHA-256 of ``payload`` plus :func:`code_fingerprint`, as canonical JSON.

    The one key recipe: results and compile artifacts each pass their
    own JSON-able payload, and the mixed-in fingerprint means only the
    code that wrote an entry ever looks it up.
    """
    payload = {**payload, "code": code_fingerprint()}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def cache_key(benchmark: str, config: MachineConfig, options: SimOptions) -> str:
    """Content hash identifying one (benchmark, config, options) run."""
    return content_key(
        {
            "benchmark": benchmark,
            "config": _canonical(config),
            "options": _canonical(options),
        }
    )


def _non_defaults(value, *, skip=(), structured=lambda v: "non-default") -> dict:
    """Compact field diff of a default-constructible dataclass.

    Scalar fields differing from the default are emitted verbatim;
    structured ones go through ``structured``.  Fields tagged
    ``no_cache_key`` tune *how* a run executes and are omitted,
    matching the content key.
    """
    default = type(value)()
    desc: dict = {}
    for f in fields(value):
        if f.name in skip or f.metadata.get("no_cache_key"):
            continue
        v = getattr(value, f.name)
        if v == getattr(default, f.name):
            continue
        if v is None or isinstance(v, (bool, int, float, str)):
            desc[f.name] = v
        else:
            desc[f.name] = structured(v)
    return desc


def describe_config(config: MachineConfig) -> dict:
    """Human-readable, compact rendering of a config for error records:
    the architecture plus every non-default field (structured fields —
    op_latencies — would bloat every record and are just flagged)."""
    return {"arch": config.arch.value, **_non_defaults(config, skip=("arch",))}


def describe_options(options) -> dict:
    """Non-default fields of ``SimOptions``/``CompileOptions`` for error
    records; small structured values (compile_kwargs) are rendered."""
    return _non_defaults(options, structured=lambda v: str(_canonical(v)))


def _is_key(stem: str) -> bool:
    """Whether a filename stem is one of our sha256 content keys."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


def _unlink(file: Path) -> None:
    try:
        file.unlink(missing_ok=True)
    except OSError:
        pass


class KeyedFileStore:
    """On-disk store of pickled entries: one ``path/<key>.pkl`` file each.

    The directory is the whole store, and an entry is exactly a
    ``<key>.pkl`` file: nothing else in the directory is ours.  Nothing
    is buffered, so there is nothing to flush: another store on the same
    directory, in this process or another, sees every save at once.
    Every key mixes the code fingerprint, so entries written by other
    code are never read again: a store is bounded by deleting its
    directory after a code change.

    Concurrency contract (multiple processes may share one directory):
    writes go to a per-process tmp name and are installed by atomic
    rename, so readers never see a half-written entry; a vanished entry
    is a miss, never a crash, and :class:`KeyedCache` drops (and
    misses) one that does not unpickle; ``clear()`` removes only
    entries, tolerating entries another process unlinked first.
    """

    suffix = ".pkl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _file(self, key: str) -> Path:
        return self.path / f"{key}{self.suffix}"

    def _entry_files(self) -> list[Path]:
        """The ``<key>.pkl`` files: the entries."""
        return [
            f
            for f in self.path.iterdir()
            if f.suffix == self.suffix and _is_key(f.stem)
        ]

    def load(self, key: str) -> bytes | None:
        """The entry's bytes as read, or None if it is absent.  The
        caller unpickles them, and :meth:`drop`s an entry that fails."""
        try:
            return self._file(key).read_bytes()
        except OSError:  # absent, or removed by a concurrent clear
            return None

    def save(self, key: str, blob: bytes) -> None:
        # Persistence is best-effort: callers already serve the value
        # from memory, so a disk failure must not abort the sweep.
        tmp = self.path / f".{key}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(blob)
            tmp.replace(self._file(key))
        except OSError:
            _unlink(tmp)

    def drop(self, key: str) -> None:
        """Remove one entry (a no-op if it is already gone)."""
        _unlink(self._file(key))

    def clear(self) -> None:
        """Remove all entries — never the directory's other contents."""
        for file in self._entry_files():
            file.unlink(missing_ok=True)
        # Orphaned tmp files from writers killed mid-save.
        for tmp in self.path.glob(".*.tmp"):
            if _is_key(tmp.name[1:].split(".")[0]):
                tmp.unlink(missing_ok=True)

    def entries(self) -> dict[str, os.stat_result]:
        """``{key: stat}`` for every entry, from one directory scan
        (``st_size`` is the entry's size)."""
        out = {}
        for file in self._entry_files():
            try:
                out[file.stem] = file.stat()
            except OSError:  # vanished under us (concurrent clear)
                continue
        return out


@dataclass
class KeyedCacheStats:
    """Lookup counters of one :class:`KeyedCache`."""

    hits: int = 0
    misses: int = 0
    #: Subset of ``hits`` served from the on-disk store.
    disk_hits: int = 0

    @property
    def memory_hits(self) -> int:
        """Hits served without touching the disk store."""
        return self.hits - self.disk_hits

    # Read-only views kept for perfbench/layers.py, which reports the
    # compile cache's counters under these names: every miss runs the
    # whole compile, frontend included, and no compile is a frontend hit.
    @property
    def full_misses(self) -> int:
        return self.misses

    @property
    def frontend_hits(self) -> int:
        return 0

    @property
    def frontend_misses(self) -> int:
        return self.misses


class KeyedCache:
    """Content-addressed cache of pickled values, memory first, with an
    optional :class:`KeyedFileStore` it writes through to.

    Memory and disk both hold pickled bytes, so every hit deserialises
    a private copy: callers may mutate what they get back (the
    certifier's mutation tests corrupt schedules on purpose) without
    poisoning the cache.  A disk hit unpickles once: bytes that fail to
    unpickle (a torn or corrupt entry) are dropped from disk and the
    lookup is a miss, so a fresh value can overwrite them.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._memory: dict[str, bytes] = {}
        self.stats = KeyedCacheStats()
        self.store = KeyedFileStore(path) if path is not None else None

    def get(self, key: str):
        blob = self._memory.get(key)
        if blob is not None:
            self.stats.hits += 1
            return pickle.loads(blob)
        blob = self.store.load(key) if self.store is not None else None
        if blob is not None:
            try:
                value = pickle.loads(blob)
            except Exception:
                self.store.drop(key)
            else:
                self._memory[key] = blob
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: str, value) -> None:
        blob = pickle.dumps(value)
        self._memory[key] = blob
        if self.store is not None:
            self.store.save(key, blob)

    def clear(self) -> None:
        """Drop all entries — only entry files on disk."""
        self._memory.clear()
        if self.store is not None:
            self.store.clear()
