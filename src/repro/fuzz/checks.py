"""The pluggable check registry: what "correct" means per fuzz job.

Each check is a function ``(loop, config, cache) -> list[mismatch]``
over one (kernel, config) pair; an empty list means the pair is clean
under that oracle.  ``cache`` is the compile cache the check compiles
through.  Mismatch records are plain dicts (``{"check", "kind",
"detail"}``) so they pickle back from a worker and go straight into the
CI summary and a repro file.

:func:`run_checks` is the one check loop: a sweep's job, a repro's
replay and each shrink attempt all get their verdict from it.

Every compile goes through ``compile_cached`` (the exact ones under
:data:`EXACT_NODE_BUDGET`), which certifies the artifact and raises
:class:`~repro.analysis.CertificationError` on a blocking finding.

Checks:

* ``fast_vs_ref`` — the differential oracle: the precompiled-trace
  :class:`~repro.sim.trace.TraceExecutor` must match the reference
  interpreter byte for byte (cycles, stall history, every memory-stats
  counter).
* ``exact_vs_sms`` — the scheduler oracle: ``MII <= II(exact) <=
  II(SMS)``, both compiles certified, and the exact backend's meta
  claims internally consistent.
* ``certify`` — the independent static certifier reports zero blocking
  diagnostics on the SMS artifact: one mismatch per diagnostic code.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable

from ..analysis import CertificationError
from ..ir.loop import Loop
from ..isa.memory_access import MemoryLayout
from ..machine.config import MachineConfig
from ..pipeline.cache import KeyedCache
from ..pipeline.passes import CompileOptions
from ..pipeline.compilecache import compile_cached
from ..sim.executor import LoopExecutor
from ..sim.runner import make_memory
from ..sim.trace import TraceExecutor
from ..workloads.generator import KernelGenotype

#: Node budget of every exact compile the checks make (a third of
#: ``CompileOptions``' default).
EXACT_NODE_BUDGET = 20_000


def _mismatch(check: str, kind: str, detail: str) -> dict:
    return {"check": check, "kind": kind, "detail": detail}


def _compile(loop: Loop, config: MachineConfig, scheduler: str, cache: KeyedCache):
    """Compile through ``cache`` with one canonical option set, so the
    checks of one job share compile work."""
    return compile_cached(
        copy.deepcopy(loop),
        config,
        CompileOptions(scheduler=scheduler, exact_node_budget=EXACT_NODE_BUDGET),
        cache=cache,
    )


def check_fast_vs_ref(
    loop: Loop, config: MachineConfig, cache: KeyedCache
) -> list[dict]:
    """TraceExecutor vs reference interpreter: byte-identical results."""
    compiled = _compile(loop, config, "sms", cache)
    n = compiled.loop.trip_count
    ref_mem, fast_mem = make_memory(config), make_memory(config)
    ref = LoopExecutor(compiled, ref_mem, MemoryLayout(align=config.l1_block))
    fast = TraceExecutor(compiled, fast_mem, MemoryLayout(align=config.l1_block))
    ref_result = ref.run(n)
    fast_result = fast.run(n)

    mismatches: list[dict] = []
    for field in ("iterations", "compute_cycles", "stall_cycles", "late_loads"):
        got, want = getattr(fast_result, field), getattr(ref_result, field)
        if got != want:
            mismatches.append(
                _mismatch(
                    "fast_vs_ref",
                    field,
                    f"fast {field}={got}, reference {field}={want}",
                )
            )
    if ref.last_stall_by_iteration != fast.last_stall_by_iteration:
        mismatches.append(
            _mismatch(
                "fast_vs_ref",
                "stall_history",
                "per-iteration stall histories differ",
            )
        )
    if ref_mem.stats != fast_mem.stats:
        mismatches.append(
            _mismatch(
                "fast_vs_ref",
                "memory_stats",
                f"memory statistics differ: fast {fast_mem.stats} "
                f"!= reference {ref_mem.stats}",
            )
        )
    return mismatches


def check_exact_vs_sms(
    loop: Loop, config: MachineConfig, cache: KeyedCache
) -> list[dict]:
    """The scheduler oracle: II chain and meta consistency (both
    compiles are certified on their way through the cache)."""
    sms = _compile(loop, config, "sms", cache)
    exact = _compile(loop, config, "exact", cache)
    meta = exact.schedule.meta
    mismatches: list[dict] = []

    if meta.get("ii_sms") != sms.ii:
        mismatches.append(
            _mismatch(
                "exact_vs_sms",
                "sms_baseline",
                f"exact backend's SMS baseline II={meta.get('ii_sms')} "
                f"!= SMS backend II={sms.ii}",
            )
        )
    if not (meta.get("mii", 0) <= exact.ii <= sms.ii):
        mismatches.append(
            _mismatch(
                "exact_vs_sms",
                "ii_chain",
                f"violated MII={meta.get('mii')} <= II(exact)={exact.ii} "
                f"<= II(SMS)={sms.ii}",
            )
        )
    if exact.ii < sms.ii and not (meta.get("improved") and not meta.get("fallback")):
        mismatches.append(
            _mismatch(
                "exact_vs_sms",
                "meta_improved",
                f"II {sms.ii}->{exact.ii} but meta says improved="
                f"{meta.get('improved')} fallback={meta.get('fallback')}",
            )
        )
    if meta.get("fallback") and meta.get("proved_optimal") is True:
        mismatches.append(
            _mismatch(
                "exact_vs_sms",
                "meta_fallback",
                "budget-exhausted fallback schedule claims proved_optimal",
            )
        )
    return mismatches


def check_certify(loop: Loop, config: MachineConfig, cache: KeyedCache) -> list[dict]:
    """The independent certifier finds zero blocking diagnostics.

    ``compile_cached`` raises :class:`CertificationError` on a blocked
    compile.  The check catches it and returns mismatches: the shrinker
    counts an exception as a different finding, so only mismatches keep
    the finding shrinkable.
    """
    try:
        _compile(loop, config, "sms", cache)
    except CertificationError as exc:
        by_code: dict[str, list[str]] = {}
        for d in exc.diagnostics:
            by_code.setdefault(d.code, []).append(d.render())
        return [
            _mismatch("certify", code, "; ".join(renders))
            for code, renders in sorted(by_code.items())
        ]
    return []


#: The pluggable registry: check name -> callable.
CHECKS = {
    "fast_vs_ref": check_fast_vs_ref,
    "exact_vs_sms": check_exact_vs_sms,
    "certify": check_certify,
}


def run_check(
    name: str, loop: Loop, config: MachineConfig, cache: KeyedCache | None = None
) -> list[dict]:
    """Run one check, compiling through ``cache`` (a fresh one when
    ``None``): never through the process-wide compile cache, which keeps
    every artifact for the life of the process."""
    try:
        check = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r} (known: {sorted(CHECKS)})") from None
    return check(loop, config, KeyedCache() if cache is None else cache)


def run_checks(
    genotype: KernelGenotype, config: MachineConfig, checks: Iterable[str]
) -> list[dict]:
    """The one check loop: run ``checks`` in order over ``genotype`` on
    ``config`` and return every mismatch.

    Each check gets a freshly built loop.  All of them compile through
    one fresh cache, so they share compiles and the process-wide cache
    (which keeps every artifact for the life of the process) sees none.
    An exception a check raises becomes an ``error`` mismatch.
    """
    cache = KeyedCache()
    mismatches: list[dict] = []
    for name in checks:
        try:
            loop = genotype.build()
            mismatches.extend(run_check(name, loop, config, cache))
        except Exception as exc:  # a crash is a finding, not an abort
            detail = f"{type(exc).__name__}: {exc}"
            mismatches.append(_mismatch(name, "error", detail))
    return mismatches
