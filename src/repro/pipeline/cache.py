"""Content-addressed caching: keys, the one cache class, its disk store.

A simulation is fully determined by ``(benchmark, MachineConfig,
SimOptions)`` — the simulator is deterministic (random access patterns
are seeded) — so results are keyed by a SHA-256 digest of a canonical
JSON rendering of those three values plus :func:`code_fingerprint`.
Experiments that share a configuration share cache entries
automatically, regardless of what display label each experiment uses.
Compile artifacts and fuzz jobs are keyed the same way.

:class:`KeyedCache` is the one cache class: the session's results, the
compile artifacts (``get_compile_cache``) and the fuzz jobs each live in
one instance.  It holds pickled bytes in memory, optionally written
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
import time
from dataclasses import dataclass, field, fields, is_dataclass
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

    The one key recipe: results, compile artifacts and fuzz jobs each
    pass their own JSON-able payload, and the mixed-in fingerprint means
    only the code that wrote an entry ever looks it up.
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


@dataclass
class GCReport:
    """What one :meth:`KeyedFileStore.gc` call found and removed."""

    entries_before: int = 0
    bytes_before: int = 0
    entries_after: int = 0
    bytes_after: int = 0
    #: keys removed by the size cap, oldest mtime first
    evicted: list[str] = field(default_factory=list)


@dataclass
class VerifyReport:
    """What one :meth:`KeyedFileStore.verify` pass found."""

    ok: int = 0
    #: keys whose file was not a ``<key>.pkl`` that unpickles, and was dropped
    corrupt: list[str] = field(default_factory=list)


def _key_of(file: Path) -> str:
    """The key a store file is named for: its name up to the first dot."""
    return file.name.partition(".")[0]


def _is_key(stem: str) -> bool:
    """Whether a filename stem is one of our sha256 content keys."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


def _unpickles(blob: bytes) -> bool:
    try:
        pickle.loads(blob)
    except Exception:
        return False
    return True


def _unlink(file: Path) -> None:
    try:
        file.unlink(missing_ok=True)
    except OSError:
        pass


class KeyedFileStore:
    """On-disk store of pickled entries: one ``path/<key>.pkl`` file each.

    The directory is the whole store.  A file's size is the entry's
    size and its mtime the entry's recency: a save writes the file and
    a disk hit refreshes its mtime, so :meth:`gc` can evict least
    recently used entries from one directory scan.  Nothing is
    buffered, so there is nothing to flush: another store on the same
    directory, in this process or another, sees every save at once.

    Every key-named file is an entry, whatever its suffix: one left in
    an older format (``<key>.json``) is never loaded, but the scan
    counts it, :meth:`verify` drops it and :meth:`gc` evicts it.

    Concurrency contract (multiple processes may share one directory):
    writes go to a per-process tmp name and are installed by atomic
    rename, so readers never see a half-written entry; a torn, corrupt
    or vanished entry is a miss (and is dropped), never a crash;
    ``clear()`` removes only key-named files, tolerating entries
    another process unlinked first.
    """

    suffix = ".pkl"

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)

    def _file(self, key: str) -> Path:
        return self.path / f"{key}{self.suffix}"

    def _entry_files(self) -> list[Path]:
        """The key-named files: the entries (nothing else is ours)."""
        return [f for f in self.path.iterdir() if _is_key(_key_of(f))]

    def _scan(self) -> list[tuple[Path, os.stat_result]]:
        out = []
        for file in self._entry_files():
            try:
                out.append((file, file.stat()))
            except OSError:  # vanished under us (concurrent clear/gc)
                continue
        return out

    def load(self, key: str) -> bytes | None:
        """The entry's bytes, or None.  An entry that does not unpickle
        is a miss and is dropped, so a fresh value can overwrite it."""
        file = self._file(key)
        try:
            blob = file.read_bytes()
        except OSError:  # absent, or removed by a concurrent clear/gc
            return None
        if not _unpickles(blob):
            _unlink(file)
            return None
        try:
            os.utime(file)  # the hit makes the entry recent (the LRU signal)
        except OSError:
            pass  # removed since the read (concurrent gc/clear): still a hit
        return blob

    def peek(self, key: str) -> bytes | None:
        """Read an entry as :meth:`verify` does, leaving it untouched:
        no mtime refresh, and a torn, corrupt or vanished entry is left
        in place and read as None."""
        try:
            blob = self._file(key).read_bytes()
        except OSError:
            return None
        return blob if _unpickles(blob) else None

    def save(self, key: str, blob: bytes) -> None:
        # Persistence is best-effort: callers already serve the value
        # from memory, so a disk failure must not abort the sweep.
        tmp = self.path / f".{key}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(blob)
            tmp.replace(self._file(key))
        except OSError:
            _unlink(tmp)

    def clear(self) -> None:
        """Remove all entries — only key-named files, never the
        directory's unrelated contents."""
        for file in self._entry_files():
            file.unlink(missing_ok=True)
        # Orphaned tmp files from writers killed mid-save.
        for tmp in self.path.glob(".*.tmp"):
            if _is_key(tmp.name[1:].split(".")[0]):
                tmp.unlink(missing_ok=True)

    # -- introspection and maintenance ----------------------------------

    def entries(self) -> dict[str, os.stat_result]:
        """``{key: stat}`` for every entry, from one directory scan:
        ``st_size`` is the entry's size and ``st_mtime`` its recency
        (when it was written or last hit)."""
        return {_key_of(file): stat for file, stat in self._scan()}

    def gc(self, *, max_bytes: int, min_age_s: float = 0.0) -> GCReport:
        """Evict least recently used entries until the store fits
        ``max_bytes``; returns what was removed.

        Entries go oldest mtime first.  Entries written or hit within
        the last ``min_age_s`` seconds are spared (a grace period for
        concurrent writers), so the cap is a target, not a guarantee.

        Concurrent safety: eviction unlinks only *installed* files;
        in-flight ``.tmp`` writes are never touched, and a concurrent
        writer's atomic rename simply reinstalls its entry.
        """
        scanned = self._scan()
        total = sum(stat.st_size for _, stat in scanned)
        report = GCReport(entries_before=len(scanned), bytes_before=total)
        now = time.time()
        for file, stat in sorted(scanned, key=lambda e: (e[1].st_mtime, e[0].name)):
            if total <= max_bytes:
                break
            if now - stat.st_mtime < min_age_s:
                continue
            try:
                file.unlink(missing_ok=True)
            except OSError:
                continue
            report.evicted.append(_key_of(file))
            total -= stat.st_size
        report.entries_after = len(scanned) - len(report.evicted)
        report.bytes_after = total
        return report

    def verify(self) -> VerifyReport:
        """Check that every entry is a ``<key>.pkl`` file that unpickles;
        drop the rest."""
        report = VerifyReport()
        for file in sorted(self._entry_files()):
            key = _key_of(file)
            try:
                sound = file == self._file(key) and _unpickles(file.read_bytes())
            except OSError:  # vanished under a concurrent clear/gc
                continue
            if sound:
                report.ok += 1
            else:
                _unlink(file)
                report.corrupt.append(key)
        return report


@dataclass
class KeyedCacheStats:
    """Lookup counters of one :class:`KeyedCache`."""

    hits: int = 0
    misses: int = 0
    #: Subset of ``hits`` served from the on-disk store (a disk hit
    #: also refreshes the entry file's mtime, the LRU signal).
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
    poisoning the cache.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._memory: dict[str, bytes] = {}
        self.stats = KeyedCacheStats()
        self.store = KeyedFileStore(path) if path is not None else None

    def get(self, key: str):
        blob = self._memory.get(key)
        if blob is None and self.store is not None:
            blob = self.store.load(key)  # refreshes the entry's mtime
            if blob is not None:
                self._memory[key] = blob
                self.stats.disk_hits += 1
        if blob is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return pickle.loads(blob)

    def put(self, key: str, value) -> None:
        blob = pickle.dumps(value)
        self._memory[key] = blob
        if self.store is not None:
            self.store.save(key, blob)

    def clear(self) -> None:
        """Drop all entries — only key-named files on disk."""
        self._memory.clear()
        if self.store is not None:
            self.store.clear()

    # -- maintenance (no-ops for a memory-only cache) --------------------

    def gc(self, **kwargs) -> GCReport:
        if self.store is None:
            return GCReport()
        return self.store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        """Unpickle-check every disk entry, dropping the corrupt."""
        if self.store is None:
            return VerifyReport()
        return self.store.verify()
