"""Content-addressed cache of compile artifacts.

Compilation is deterministic: one ``(loop, MachineConfig,
CompileOptions)`` triple always produces the same ``CompiledLoop``.
Multi-architecture sweeps and repeated runs therefore recompile
identical inputs many times.  This module memoises each full artifact
under a content hash of the whole triple (plus the code fingerprint) in
a :class:`~repro.pipeline.cache.KeyedCache`, the same class that holds
simulation results: memory first, an optional directory of one
``<key>.pkl`` file per artifact (atomic writes, corrupt entry == miss).
A ``CompiledLoop`` is a closed graph of plain dataclasses and
round-trips exactly through pickle.  Every key mixes the code
fingerprint, so a store is bounded by deleting its directory after a
code change.

A miss runs :func:`~repro.pipeline.passes.compile_uncached`, the one
compile function: all six steps in their fixed order, the
architecture-neutral unroll/memdep/DDG frontend included, even though
configs that differ only in the memory system (Figure 5's L0 sizes)
yield the same frontend products.  Sharing those is not worth a second
cache layer: on a traced cold serial Figure-5 sweep (``perfbench/run.py
--workload fig5-serial --trace 1``, 2-core x86 box, Python 3.11) all
230 frontend runs take 0.24 calibrated seconds, the 46 distinct loops'
share about 0.05 s, so sharing would save under 0.2 s (about 2.5%) of
a ~7.5 s run.

Every miss is certified before it is stored: the independent checkers
of :mod:`repro.analysis` run over the artifact and its trace, and a
blocking finding raises instead of caching a schedule the simulator
must not run.  Certifying the 552 artifacts of the paper's
configurations takes 0.23 s, against 3.1 s to compile them (2-core x86
box, Python 3.11).

Every hit deserialises a private object graph, so callers may freely
mutate what they get back without poisoning the cache; a round-trip
costs a fraction of a backend schedule.  ``cache.stats`` counts hits
and misses so tests can assert "a repeated sweep recompiles nothing".
"""

from __future__ import annotations

from pathlib import Path

from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .cache import KeyedCache, _canonical, content_key
from .passes import CompileOptions, compile_uncached


def loop_fingerprint(loop: Loop) -> dict:
    """Canonical (JSON-able) rendering of a loop's full content."""
    return _canonical(loop)


def compile_key(loop: Loop, config: MachineConfig, options: CompileOptions) -> str:
    """Content hash identifying one full compilation."""
    return content_key(
        {
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
    simulator's trace, certifies the result and stores it.  Returns the
    ``CompiledLoop``.

    This is the one place a compile is certified.  A blocking finding
    raises :class:`~repro.analysis.CertificationError` and stores
    nothing, so every stored artifact (and so every artifact the
    simulator runs) carries ``meta["analysis"]["verdict"] ==
    "certified"``.
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
    # Certify before the artifact is stored, so the meta verdict (and
    # any proved_optimal downgrade) rides every future hit.  Imported
    # here: loading the pipeline loads no checker.
    from ..analysis import CertificationError, blocking, certify_compiled

    blockers = blocking(certify_compiled(compiled, artifact_key=key))
    if blockers:
        raise CertificationError(compiled.schedule.loop_name, blockers)
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
