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
from dataclasses import fields, is_dataclass
from pathlib import Path

from ..machine.config import MachineConfig
from ..sim.runner import SimOptions
from ..sim.stats import ProgramResult
from .manifest import GCReport, ManifestEntry, StoreManifest, VerifyReport, _is_key


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
    """Encode a result record (nested dataclasses of scalars) as JSON data.

    Plain dicts (``ProgramResult.meta``) are allowed with string keys;
    ``__type__`` is reserved as the dataclass tag."""
    if is_dataclass(value) and not isinstance(value, type):
        data = {f.name: encode_result(getattr(value, f.name)) for f in fields(value)}
        data["__type__"] = type(value).__name__
        return data
    if isinstance(value, dict):
        if "__type__" in value:
            raise TypeError("result dicts must not carry a __type__ key")
        return {str(k): encode_result(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_result(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} into the result store")


def decode_result(data):
    if isinstance(data, dict):
        name = data.get("__type__")
        if name is None:
            # A plain mapping (e.g. ProgramResult.meta); the top-level
            # envelope decode still insists on a ProgramResult, so a
            # tag-stripped entry is caught there as corruption.
            return {k: decode_result(v) for k, v in data.items()}
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
RESULT_SCHEMA_VERSION = 4  # v4: ProgramResult.meta provenance annotations

#: Expected value of :func:`result_schema_digest` for
#: :data:`RESULT_SCHEMA_VERSION`.  A test recomputes the digest from
#: the live dataclasses; if they drift without a version bump it fails.
RESULT_SCHEMA_DIGEST = "983bd4da05394927"


def result_schema_digest() -> str:
    """Digest of the result schema: every stat class and its fields."""
    spec = {
        name: [f.name for f in fields(cls)]
        for name, cls in sorted(_result_classes().items())
    }
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _non_defaults(value, *, skip=(), structured=lambda v: "non-default") -> dict:
    """Manifest-compact field diff of a default-constructible dataclass.

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
    """Human-readable, compact rendering of a config for the manifest:
    the architecture plus every non-default field (structured fields —
    op_latencies — would bloat every row and are just flagged)."""
    return {"arch": config.arch.value, **_non_defaults(config, skip=("arch",))}


def describe_options(options) -> dict:
    """Non-default fields of ``SimOptions``/``CompileOptions`` for the
    manifest; small structured values (compile_kwargs) are rendered."""
    return _non_defaults(options, structured=lambda v: str(_canonical(v)))


#: Shard-prefix widths a store may use (1 hex char = 16 shards, 2 = 256).
SHARD_WIDTHS = (1, 2)


def _is_shard_name(name: str, width: int) -> bool:
    return len(name) == width and all(c in "0123456789abcdef" for c in name)


def detect_shard_width(path: str | Path) -> int:
    """Shard-prefix width of an existing store directory; 0 if flat or new.

    A sharded store is recognised by its hex-prefix subdirectories
    (``0``..``f`` or ``00``..``ff``); a flat store has none.
    """
    path = Path(path)
    if path.is_dir():
        names = sorted(child.name for child in path.iterdir() if child.is_dir())
        for width in SHARD_WIDTHS:
            if any(_is_shard_name(name, width) for name in names):
                return width
    return 0


class KeyedFileStore:
    """On-disk store of content-keyed entries, shared by the result,
    compile and fuzz caches: one ``<key><suffix>`` file per entry.

    ``shard_width`` picks the layout.  0 is flat: every entry lives at
    ``path/<key><suffix>`` under one sidecar manifest.  1 or 2 partition
    by key prefix: entry ``<key>`` lives in
    ``path/<key[:width]>/<key><suffix>`` and every shard directory keeps
    its *own* manifest, so N workers writing results land on different
    shards with probability ``1 - 1/16**width`` and their read-merge-
    write manifest flushes (and GC passes) stop contending on one file.
    A flat store is simply the one-shard case rooted at ``path``.
    ``None`` (the default) opens an existing directory in the layout it
    was written in, and a new one flat.  Only ``save`` creates a shard
    directory; reads and maintenance skip missing shards.

    Concurrency contract (multiple processes may share one directory):
    writes go to a per-process tmp name and are installed by atomic
    rename, so readers never see a half-written entry; a torn, corrupt
    or vanished entry decodes as a miss (and is dropped), never a
    crash; ``clear()`` removes only key-named files this store could
    have written, tolerating entries another process unlinked first.
    """

    def __init__(
        self,
        path: str | Path,
        suffix: str,
        encode,
        decode,
        *,
        shard_width: int | None = None,
    ) -> None:
        self.path = Path(path)
        if shard_width is None:
            shard_width = detect_shard_width(self.path)
        if shard_width and shard_width not in SHARD_WIDTHS:
            raise ValueError(
                f"shard width must be 0 or one of {SHARD_WIDTHS}: {shard_width}"
            )
        self.path.mkdir(parents=True, exist_ok=True)
        self.suffix = suffix
        self.shard_width = shard_width
        self._encode = encode  # value -> bytes
        self._decode = decode  # bytes -> value (raises on corruption)
        self._manifests: dict[str, StoreManifest] = {}  # shard name -> manifest

    def _manifest(self, shard: str) -> StoreManifest:
        manifest = self._manifests.get(shard)
        if manifest is None:
            manifest = StoreManifest(self.path / shard, self.suffix)
            self._manifests[shard] = manifest
        return manifest

    @property
    def manifest(self) -> StoreManifest:
        """A flat store's manifest (a sharded one keeps one per shard)."""
        return self._manifest("")

    def shards(self) -> list[str]:
        """Names of the existing shard directories; ``[""]`` when flat."""
        if not self.shard_width:
            return [""]
        return [
            child.name
            for child in sorted(self.path.iterdir())
            if child.is_dir() and _is_shard_name(child.name, self.shard_width)
        ]

    def _file(self, key: str) -> Path:
        return self.path / key[: self.shard_width] / f"{key}{self.suffix}"

    def load(self, key: str):
        file = self._file(key)
        if not file.exists():
            return None
        manifest = self._manifest(key[: self.shard_width])
        try:
            value = self._decode(file.read_bytes())
        except Exception:
            # Treat as a miss and drop the entry so a fresh value can
            # overwrite it (OSError covers races with concurrent clear()).
            try:
                file.unlink(missing_ok=True)
            except OSError:
                pass
            manifest.forget(key)
            manifest.flush()
            return None
        manifest.touch(key)
        return value

    def save(self, key: str, value, *, description: dict | None = None) -> None:
        # Persistence is best-effort: callers already serve the value
        # from memory, so a disk failure must not abort the sweep.
        shard = key[: self.shard_width]
        directory = self.path / shard
        tmp = directory / f".{key}.{os.getpid()}.tmp"
        try:
            blob = self._encode(value)
            directory.mkdir(exist_ok=True)
            tmp.write_bytes(blob)
            tmp.replace(self._file(key))
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        self._manifest(shard).record(
            key,
            size=len(blob),
            fingerprint=code_fingerprint(),
            description=description,
        )

    def clear(self) -> None:
        """Remove all entries — only files this store wrote, never the
        directory's unrelated contents."""
        for shard in self.shards():
            directory = self.path / shard
            for file in directory.glob(f"*{self.suffix}"):
                if _is_key(file.stem):
                    file.unlink(missing_ok=True)
            # Orphaned tmp files from writers killed mid-save.
            for tmp in directory.glob(".*.tmp"):
                if _is_key(tmp.name[1:].split(".")[0]):
                    tmp.unlink(missing_ok=True)
            self._manifest(shard).reset()

    # -- introspection and maintenance ----------------------------------

    def flush(self) -> None:
        """Persist buffered manifest updates (recency hits, new rows)."""
        for manifest in self._manifests.values():
            manifest.flush()

    def entries(self) -> dict[str, ManifestEntry]:
        """Manifest view reconciled against the directory (see
        :meth:`StoreManifest.entries`), over every shard."""
        out: dict[str, ManifestEntry] = {}
        for shard in self.shards():
            out.update(self._manifest(shard).entries())
        return out

    def total_bytes(self) -> int:
        return sum(e.size for e in self.entries().values())

    def gc(
        self,
        *,
        max_bytes: int | None = None,
        keep_fingerprints=None,
        min_age_s: float = 0.0,
    ) -> GCReport:
        """Garbage-collect the directory; returns what was removed.

        Two policies, both opt-in per call:

        * **Orphan sweep** — with ``keep_fingerprints`` (an iterable of
          code fingerprints, usually ``{code_fingerprint()}``), entries
          *known* to have been written by any other fingerprint are
          removed: their keys mix the writer's fingerprint, so no
          current run can ever hit them again.  Entries with an
          *unknown* fingerprint (pre-manifest files, rebuilt manifests)
          are conservatively kept — only the size cap can reclaim them.
        * **LRU size cap** — with ``max_bytes``, least-recently-hit
          entries are evicted until the directory fits.  Entries
          younger than ``min_age_s`` are skipped (grace period for
          concurrent writers), so the cap is a target, not a guarantee.

        Shards are collected one by one, with the size cap split evenly
        across the existing ones: content keys are uniform sha256, so an
        even split is a global cap in expectation, and independent
        shards are what let many workers collect without a store-wide
        lock.

        Concurrent safety: eviction unlinks only *installed* files;
        in-flight ``.tmp`` writes are never touched, and a concurrent
        writer's atomic rename simply reinstalls its entry.
        """
        shards = self.shards()
        cap = None if max_bytes is None else max_bytes // max(1, len(shards))
        keep = None if keep_fingerprints is None else set(keep_fingerprints)
        report = GCReport(path=str(self.path))
        for shard in shards:
            self._gc_shard(shard, cap, keep, min_age_s, report)
        return report

    def _gc_shard(
        self,
        shard: str,
        max_bytes: int | None,
        keep: set | None,
        min_age_s: float,
        report: GCReport,
    ) -> None:
        manifest = self._manifest(shard)
        manifest.flush()
        entries = manifest.entries()
        report.entries_before += len(entries)
        report.bytes_before += sum(e.size for e in entries.values())

        def _drop(key: str) -> bool:
            try:
                self._file(key).unlink(missing_ok=True)
            except OSError:
                return False
            manifest.forget(key)
            return True

        if keep is not None:
            for key, entry in list(entries.items()):
                known_foreign = (
                    entry.fingerprint is not None and entry.fingerprint not in keep
                )
                if known_foreign and _drop(key):
                    report.orphans.append(key)
                    del entries[key]

        if max_bytes is not None:
            total = sum(e.size for e in entries.values())
            now = time.time()
            by_lru = sorted(
                entries.values(), key=lambda e: (e.last_hit, e.created, e.key)
            )
            for entry in by_lru:
                if total <= max_bytes:
                    break
                if now - entry.created < min_age_s:
                    continue
                if _drop(entry.key):
                    report.evicted.append(entry.key)
                    total -= entry.size

        manifest.rewrite()
        remaining = manifest.entries()
        report.entries_after += len(remaining)
        report.bytes_after += sum(e.size for e in remaining.values())

    def verify(self) -> VerifyReport:
        """Decode every entry; drop the corrupt."""
        report = VerifyReport(path=str(self.path))
        for shard in self.shards():
            manifest = self._manifest(shard)
            for file in sorted((self.path / shard).glob(f"*{self.suffix}")):
                if not _is_key(file.stem):
                    continue
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
                    manifest.forget(file.stem)
                    report.corrupt.append(file.stem)
                else:
                    report.ok += 1
            manifest.rewrite()
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
    """In-memory result cache with an optional on-disk JSON store.

    ``shard_width`` is the store's (see :class:`KeyedFileStore`): by
    default an existing directory opens in the layout it was written
    in; 0 forces flat; 1 or 2 a sharded layout — the sweep service's
    many-writer mode.
    """

    def __init__(
        self, path: str | Path | None = None, *, shard_width: int | None = None
    ) -> None:
        self._memory: dict[str, ProgramResult] = {}
        self.path = Path(path) if path is not None else None
        self._store = None
        if path is not None:
            self._store = KeyedFileStore(
                path,
                ".json",
                _encode_result_bytes,
                _decode_result_bytes,
                shard_width=shard_width,
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

    def put(
        self,
        key: str,
        result: ProgramResult,
        *,
        description: dict | None = None,
        persist: bool = True,
    ) -> None:
        """Record a result.  ``persist=False`` keeps it memory-only —
        used when another process (a sweep-service worker) already wrote
        the disk entry, so the server must not write it a second time."""
        self._memory[key] = result
        if persist and self._store is not None:
            self._store.save(key, result, description=description)

    def clear(self) -> None:
        """Drop all entries — only files this cache wrote."""
        self._memory.clear()
        if self._store is not None:
            self._store.clear()

    # -- maintenance (no-ops for the memory-only cache) ------------------

    def flush(self) -> None:
        """Persist any buffered manifest updates (recency hits)."""
        if self._store is not None:
            self._store.flush()

    def gc(self, **kwargs) -> GCReport:
        if self._store is None:
            return GCReport()
        return self._store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        """Decode-check every disk entry, dropping the corrupt."""
        if self._store is None:
            return VerifyReport()
        return self._store.verify()
