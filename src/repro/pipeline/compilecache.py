"""Content-addressed cache of compile artifacts.

Compilation is deterministic: one ``(loop, MachineConfig,
CompileOptions)`` triple always produces the same ``CompiledLoop``.
Multi-architecture sweeps and repeated runs therefore recompile
identical inputs many times.  This module memoises each full artifact
under a content hash of the whole triple (plus the code fingerprint) in
a :class:`~repro.pipeline.cache.KeyedCache`, the same class that holds
simulation results: memory first, an optional directory of one
``<key>.pkl`` file per artifact (atomic writes, corrupt entry == miss,
a disk hit refreshes the file's mtime).  A ``CompiledLoop`` is a closed
graph of plain dataclasses and round-trips exactly through pickle.
Nothing bounds the store but ``python -m repro.cache gc``, which evicts
oldest mtime first.

A miss runs :func:`~repro.pipeline.passes.compile_uncached`, the one
compile function: all six steps in their fixed order, the
architecture-neutral unroll/memdep/DDG frontend included, even though
configs that differ only in the memory system (Figure 5's L0 sizes)
yield the same frontend products.  Sharing those is not worth a second
cache layer: on a cold serial Figure-5 sweep (2-core Linux box, Python
3.11) the 46 distinct frontend runs take 0.065 s and all 230 take
0.35 s, so sharing saves ~0.3 s (about 2%) of a ~17 s run.

Every hit deserialises a private object graph, so callers may freely
mutate what they get back without poisoning the cache; a round-trip
costs a fraction of a backend schedule.  ``cache.stats`` counts hits
and misses so tests can assert "a repeated sweep recompiles nothing".
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .cache import KeyedCache, _canonical, code_fingerprint
from .passes import CompileOptions, compile_uncached


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


def compile_cached(
    loop: Loop,
    config: MachineConfig,
    options: CompileOptions | None = None,
    *,
    cache: KeyedCache | None = None,
):
    """Compile a loop through the cache (the hot compile path).

    A hit deserialises the stored artifact; a miss runs
    :func:`~repro.pipeline.passes.compile_uncached`, flattens the
    simulator's trace, certifies when ``options.analyze`` asks, and
    stores the result.  Returns the ``CompiledLoop``.
    """
    options = options or CompileOptions()
    cache = cache if cache is not None else get_compile_cache(None)

    key = compile_key(loop, config, options)
    compiled = cache.get(key)
    if compiled is not None:
        return compiled

    compiled = compile_uncached(loop, config, options)
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
_CACHES: dict[str | None, KeyedCache] = {}


def get_compile_cache(path: str | Path | None = None) -> KeyedCache:
    """The shared compile cache for ``path`` (created on first use)."""
    key = str(path) if path is not None else None
    cache = _CACHES.get(key)
    if cache is None:
        cache = KeyedCache(path)
        _CACHES[key] = cache
    return cache


def drop_compile_cache(path: str | Path | None = None) -> None:
    """Forget the process-wide instance for ``path``.

    The next :func:`get_compile_cache` starts with empty memory, so a
    warm consumer genuinely re-reads the disk store — what the cibench
    perf lane needs to measure cross-process warm starts in-process.
    """
    _CACHES.pop(str(path) if path is not None else None, None)
