"""Content-addressed cache of simulation results.

A run is fully determined by ``(benchmark, MachineConfig, SimOptions)``
— the simulator is deterministic (random access patterns are seeded) —
so results are keyed by a SHA-256 digest of a canonical JSON rendering
of those three values.  Experiments that share a configuration share
cache entries automatically, regardless of what display label each
experiment uses.

The cache is in-memory first with an optional on-disk JSON store
(one file per key), so sweeps can survive process restarts and be
shared between the CLI and the benchmark harness.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from ..machine.config import MachineConfig
from ..sim.runner import SimOptions
from ..sim.stats import ProgramResult


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


def cache_key(benchmark: str, config: MachineConfig, options: SimOptions) -> str:
    """Content hash identifying one (benchmark, config, options) run."""
    payload = {
        "benchmark": benchmark,
        "code": code_fingerprint(),
        "config": _canonical(config),
        "options": _canonical(options),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# ProgramResult <-> JSON
# ----------------------------------------------------------------------


def _result_classes() -> dict[str, type]:
    from ..memory.bus import BusStats
    from ..memory.hierarchy import MemoryStats
    from ..memory.interleaved import InterleavedStats
    from ..memory.l0buffer import L0Stats
    from ..memory.l1cache import CacheStats
    from ..memory.multivliw import MSIStats
    from ..sim.stats import LoopResult, LoopRunResult

    classes = (
        ProgramResult,
        LoopResult,
        LoopRunResult,
        MemoryStats,
        L0Stats,
        CacheStats,
        BusStats,
        InterleavedStats,
        MSIStats,
    )
    return {cls.__name__: cls for cls in classes}


def encode_result(value):
    """Encode a result record (nested dataclasses of scalars) as JSON data;
    each dataclass becomes a dict tagged with its ``__type__``."""
    if is_dataclass(value) and not isinstance(value, type):
        data = {f.name: encode_result(getattr(value, f.name)) for f in fields(value)}
        data["__type__"] = type(value).__name__
        return data
    if isinstance(value, (list, tuple)):
        return [encode_result(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} into the result store")


def decode_result(data):
    if isinstance(data, dict):
        name = data.get("__type__")
        cls = _result_classes().get(name)
        if cls is None:
            raise ValueError(f"result store references unknown type {name!r}")
        kwargs = {k: decode_result(v) for k, v in data.items() if k != "__type__"}
        return cls(**kwargs)
    if isinstance(data, list):
        return [decode_result(v) for v in data]
    return data


def result_fingerprint(result: ProgramResult) -> str:
    """Canonical byte string of one result row (executor-parity checks)."""
    return json.dumps(encode_result(result), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Result-store schema
# ----------------------------------------------------------------------

#: Version of the on-disk result-entry layout.  Entries are stored in a
#: versioned JSON envelope (schema + writer fingerprint + the explicit
#: per-dataclass stat fields), so a persisted directory stays
#: introspectable and decodable across code-fingerprint bumps as long
#: as the *schema* is unchanged.  Bump this whenever a stat dataclass
#: gains, loses or renames a field — the pinned
#: :func:`result_schema_digest` test will insist.
RESULT_SCHEMA_VERSION = 5  # v5: ProgramResult.meta removed

#: Expected value of :func:`result_schema_digest` for
#: :data:`RESULT_SCHEMA_VERSION`.  A test recomputes the digest from
#: the live dataclasses; if they drift without a version bump it fails.
RESULT_SCHEMA_DIGEST = "c59ecb2af5ce0c2d"


def result_schema_digest() -> str:
    """Digest of the result schema: every stat class and its fields."""
    spec = {
        name: [f.name for f in fields(cls)]
        for name, cls in sorted(_result_classes().items())
    }
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
    #: keys whose file failed to decode and was dropped
    corrupt: list[str] = field(default_factory=list)


def _is_key(stem: str) -> bool:
    """Whether a filename stem is one of our sha256 content keys."""
    return len(stem) == 64 and all(c in "0123456789abcdef" for c in stem)


class KeyedFileStore:
    """On-disk store of content-keyed entries, shared by the result,
    compile and fuzz caches: one ``path/<key><suffix>`` file per entry.

    The directory is the whole store.  A file's size is the entry's
    size and its mtime the entry's recency: a save writes the file and
    a disk hit refreshes its mtime, so :meth:`gc` can evict least
    recently used entries from one directory scan.  Nothing is
    buffered, so there is nothing to flush: another store on the same
    directory, in this process or another, sees every save at once.

    Concurrency contract (multiple processes may share one directory):
    writes go to a per-process tmp name and are installed by atomic
    rename, so readers never see a half-written entry; a torn, corrupt
    or vanished entry decodes as a miss (and is dropped), never a
    crash; ``clear()`` removes only key-named files this store could
    have written, tolerating entries another process unlinked first.
    """

    def __init__(self, path: str | Path, suffix: str, encode, decode) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.suffix = suffix
        self._encode = encode  # value -> bytes
        self._decode = decode  # bytes -> value (raises on corruption)

    def _file(self, key: str) -> Path:
        return self.path / f"{key}{self.suffix}"

    def _entry_files(self) -> list[Path]:
        """The key-named files: the entries (nothing else is ours)."""
        return [f for f in self.path.glob(f"*{self.suffix}") if _is_key(f.stem)]

    def load(self, key: str):
        file = self._file(key)
        if not file.exists():
            return None
        try:
            value = self._decode(file.read_bytes())
        except Exception:
            # Treat as a miss and drop the entry so a fresh value can
            # overwrite it (OSError covers races with concurrent clear()).
            try:
                file.unlink(missing_ok=True)
            except OSError:
                pass
            return None
        try:
            os.utime(file)  # the hit makes the entry recent (the LRU signal)
        except OSError:
            pass  # removed since the read (concurrent gc/clear): still a hit
        return value

    def save(self, key: str, value) -> None:
        # Persistence is best-effort: callers already serve the value
        # from memory, so a disk failure must not abort the sweep.
        tmp = self.path / f".{key}.{os.getpid()}.tmp"
        try:
            tmp.write_bytes(self._encode(value))
            tmp.replace(self._file(key))
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def clear(self) -> None:
        """Remove all entries — only files this store wrote, never the
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
        out: dict[str, os.stat_result] = {}
        for file in self._entry_files():
            try:
                out[file.stem] = file.stat()
            except OSError:  # vanished under us (concurrent clear/gc)
                continue
        return out

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
        entries = self.entries()
        total = sum(stat.st_size for stat in entries.values())
        report = GCReport(entries_before=len(entries), bytes_before=total)
        now = time.time()
        by_lru = sorted(entries.items(), key=lambda item: (item[1].st_mtime, item[0]))
        for key, stat in by_lru:
            if total <= max_bytes:
                break
            if now - stat.st_mtime < min_age_s:
                continue
            try:
                self._file(key).unlink(missing_ok=True)
            except OSError:
                continue
            report.evicted.append(key)
            total -= stat.st_size
        report.entries_after = len(entries) - len(report.evicted)
        report.bytes_after = total
        return report

    def verify(self) -> VerifyReport:
        """Decode every entry; drop the corrupt."""
        report = VerifyReport()
        for file in sorted(self._entry_files()):
            try:
                data = file.read_bytes()
            except OSError:  # vanished under a concurrent clear/gc
                continue
            try:
                self._decode(data)
            except Exception:
                try:
                    file.unlink(missing_ok=True)
                except OSError:
                    pass
                report.corrupt.append(file.stem)
            else:
                report.ok += 1
        return report


def _encode_result_bytes(result: ProgramResult) -> bytes:
    """The versioned envelope around the stat fields."""
    envelope = {
        "schema": RESULT_SCHEMA_VERSION,
        "fingerprint": code_fingerprint(),
        "result": encode_result(result),
    }
    return json.dumps(envelope, sort_keys=True).encode()


def _decode_result_bytes(data: bytes) -> ProgramResult:
    """Decode one envelope; any other layout or schema raises (a miss)."""
    payload = json.loads(data.decode())
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"result entry has schema {schema!r}, this code reads "
            f"{RESULT_SCHEMA_VERSION}"
        )
    decoded = decode_result(payload["result"])
    if not isinstance(decoded, ProgramResult):
        raise ValueError("result entry does not decode to a ProgramResult")
    return decoded


class ResultCache:
    """In-memory result cache with an optional on-disk JSON store."""

    def __init__(self, path: str | Path | None = None) -> None:
        self._memory: dict[str, ProgramResult] = {}
        self.path = Path(path) if path is not None else None
        self._store = None
        if path is not None:
            self._store = KeyedFileStore(
                path, ".json", _encode_result_bytes, _decode_result_bytes
            )

    @property
    def store(self) -> KeyedFileStore | None:
        return self._store

    def get(self, key: str) -> ProgramResult | None:
        result = self._memory.get(key)
        if result is None and self._store is not None:
            result = self._store.load(key)
            if result is not None:
                self._memory[key] = result
        return result

    def put(self, key: str, result: ProgramResult) -> None:
        self._memory[key] = result
        if self._store is not None:
            self._store.save(key, result)

    def clear(self) -> None:
        """Drop all entries — only files this cache wrote."""
        self._memory.clear()
        if self._store is not None:
            self._store.clear()

    # -- maintenance (no-ops for the memory-only cache) ------------------

    def gc(self, **kwargs) -> GCReport:
        if self._store is None:
            return GCReport()
        return self._store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        """Decode-check every disk entry, dropping the corrupt."""
        if self._store is None:
            return VerifyReport()
        return self._store.verify()
