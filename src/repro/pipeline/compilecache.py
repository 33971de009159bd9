"""Content-addressed cache of compile artifacts.

Compilation is deterministic: one ``(loop, MachineConfig,
CompileOptions)`` triple always produces the same ``CompiledLoop``.
Multi-architecture sweeps and repeated runs therefore recompile
identical inputs many times.  This module memoises each full artifact
under a content hash of the whole triple (plus the code fingerprint),
with the same in-memory + optional on-disk layout as
:class:`~repro.pipeline.cache.ResultCache` (one file per key, atomic
writes, corrupt entry == miss, a disk hit refreshes the file's mtime).
The disk store uses pickle: a ``CompiledLoop`` is a closed graph of
plain dataclasses and round-trips exactly.  Nothing bounds the store
but ``python -m repro.cache gc``, which evicts oldest mtime first.

A miss runs the scheduler's whole pass pipeline, the
architecture-neutral unroll/memdep/DDG frontend included, even though
configs that differ only in the memory system (Figure 5's L0 sizes)
yield the same frontend products.  Sharing those is not worth a second
cache layer: on a cold serial Figure-5 sweep (2-core Linux box, Python
3.11) the 46 distinct frontend runs take 0.065 s and all 230 take
0.35 s, so sharing saves ~0.3 s (about 2%) of a ~17 s run.

Entries are *pickled bytes*, not live objects: every hit deserialises a
private object graph, so callers may freely mutate what they get back
(the schedule-validation tests deliberately corrupt schedules) without
poisoning the cache.  A round-trip costs a fraction of a backend
schedule.  ``cache.stats`` counts hits and misses so tests can assert
"a repeated sweep recompiles nothing".
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass
from pathlib import Path

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .artifact import CompileOptions
from .cache import GCReport, KeyedFileStore, VerifyReport, _canonical, code_fingerprint
from .passes import PassManager, scheduler_pipeline


def loop_fingerprint(loop: Loop) -> dict:
    """Canonical (JSON-able) rendering of a loop's full content."""
    return _canonical(loop)


def _digest(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def compile_key(loop: Loop, config: MachineConfig, options: CompileOptions) -> str:
    """Content hash identifying one full compilation."""
    return _digest(
        {
            "code": code_fingerprint(),
            "loop": loop_fingerprint(loop),
            "config": _canonical(config),
            "options": _canonical(options),
        }
    )


@dataclass
class CompileCacheStats:
    """Hit/miss counters of the compile cache."""

    full_hits: int = 0
    full_misses: int = 0
    #: Subset of ``full_hits`` served from the on-disk store (a disk hit
    #: also refreshes the entry file's mtime — the LRU signal).
    full_disk_hits: int = 0

    @property
    def full_memory_hits(self) -> int:
        """Full hits served without touching the disk store."""
        return self.full_hits - self.full_disk_hits

    @property
    def compilations(self) -> int:
        """Compilations performed (== full misses)."""
        return self.full_misses

    # Read-only views kept for perfbench/layers.py, whose traced runs
    # report them: nothing shares frontend products any more, so every
    # miss runs the frontend and no compile is a frontend hit.
    @property
    def frontend_hits(self) -> int:
        return 0

    @property
    def frontend_misses(self) -> int:
        return self.full_misses


def _probed_pickle(data: bytes) -> bytes:
    """Disk decode for the artifact store: probe, then keep the bytes.

    The in-memory map stores pickled bytes (each hit deserialises a
    private copy), so disk entries stay as bytes too; the probe load
    makes a torn write raise — and therefore count as a miss — at read
    time instead of at first use.
    """
    pickle.loads(data)
    return data


class CompiledLoopCache:
    """In-memory compile-artifact cache with an optional pickle store.

    Mirrors :class:`~repro.pipeline.cache.ResultCache`'s layout (via the
    shared :class:`~repro.pipeline.cache.KeyedFileStore`): memory first,
    one ``<key>.pkl`` file per full artifact under ``path``, atomic
    per-process tmp writes, and a torn/corrupt/vanished entry is a
    miss, never a crash.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._artifacts: dict[str, bytes] = {}
        self.stats = CompileCacheStats()
        self.path = Path(path) if path is not None else None
        self._store = (
            KeyedFileStore(path, ".pkl", lambda blob: blob, _probed_pickle)
            if path is not None
            else None
        )

    def get(self, key: str):
        blob = self._artifacts.get(key)
        if blob is None and self._store is not None:
            blob = self._store.load(key)  # refreshes the entry's mtime
            if blob is not None:
                self._artifacts[key] = blob
                self.stats.full_disk_hits += 1
        if blob is None:
            return None
        return pickle.loads(blob)

    def put(self, key: str, compiled) -> None:
        blob = pickle.dumps(compiled)
        self._artifacts[key] = blob
        if self._store is not None:
            self._store.save(key, blob)

    # -- maintenance ----------------------------------------------------

    @property
    def store(self) -> KeyedFileStore | None:
        return self._store

    def clear(self) -> None:
        """Drop all entries — only files this cache wrote."""
        self._artifacts.clear()
        if self._store is not None:
            self._store.clear()

    def gc(self, **kwargs) -> GCReport:
        if self._store is None:
            return GCReport()
        return self._store.gc(**kwargs)

    def verify(self) -> VerifyReport:
        if self._store is None:
            return VerifyReport()
        return self._store.verify()


def compile_cached(
    loop: Loop,
    config: MachineConfig,
    options: CompileOptions | None = None,
    *,
    cache: CompiledLoopCache | None = None,
):
    """Compile a loop through the cache (the hot compile path).

    A hit deserialises the stored artifact; a miss runs the full pass
    pipeline of ``options.scheduler`` and stores the result.  Returns
    the ``CompiledLoop``.
    """
    options = options or CompileOptions()
    passes = scheduler_pipeline(options.scheduler)  # raises for unknown schedulers
    cache = cache if cache is not None else get_compile_cache(None)

    key = compile_key(loop, config, options)
    compiled = cache.get(key)
    if compiled is not None:
        cache.stats.full_hits += 1
        return compiled
    cache.stats.full_misses += 1

    compiled = PassManager(passes).run(loop, config, options).compiled()
    # Flatten the simulator's fast-path event trace now so it rides the
    # cached (and persisted) artifact: warm runs — in-memory or from
    # disk — skip both scheduling *and* trace compilation.
    from ..sim.trace import static_trace

    static_trace(compiled)
    if options.analyze:
        # Certify before the artifact is persisted so the meta verdict
        # (and any proved_optimal downgrade) rides every future hit.
        from ..analysis.certify import certify_compiled

        certify_compiled(compiled, artifact_key=key)
    cache.put(key, compiled)
    return compiled


#: Process-wide cache instances, one per directory (None == memory-only).
#: Worker processes build their own registry lazily, so parallel sweeps
#: sharing a directory share the disk layer while keeping private memory.
_CACHES: dict[str | None, CompiledLoopCache] = {}


def get_compile_cache(path: str | Path | None = None) -> CompiledLoopCache:
    """The shared compile cache for ``path`` (created on first use)."""
    key = str(path) if path is not None else None
    cache = _CACHES.get(key)
    if cache is None:
        cache = CompiledLoopCache(path)
        _CACHES[key] = cache
    return cache


def drop_compile_cache(path: str | Path | None = None) -> None:
    """Forget the process-wide instance for ``path``.

    The next :func:`get_compile_cache` starts with empty memory, so a
    warm consumer genuinely re-reads the disk store — what the cibench
    perf lane needs to measure cross-process warm starts in-process.
    """
    _CACHES.pop(str(path) if path is not None else None, None)
