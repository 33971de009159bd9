"""The pluggable check registry: what "correct" means per fuzz job.

Each check is a function ``(loop, config, options, cache) ->
list[mismatch]`` over one (kernel, config) pair; an empty list means the
pair is clean under that oracle.  ``cache`` is the compile cache the
check compiles through.  Mismatch records are plain dicts (``{"check",
"kind", "detail"}``) so they pickle straight into the fuzz store's entry
and the CI summary.

:func:`run_checks` is the one check loop: a sweep's job, a repro's
replay and each shrink attempt all get their verdict from it.

Every compile goes through ``compile_cached``, which certifies the
artifact and raises :class:`~repro.analysis.CertificationError` on a
blocking finding.

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

Fault injection (``FuzzOptions.fault``) deterministically corrupts the
compiled artifact's static trace *on a private copy* before the fast
path runs — the shrinker's tests and CI's acceptance drill use it to
prove a real fast-path divergence would be caught and shrunk.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable
from dataclasses import dataclass

from ..analysis import CertificationError
from ..ir.loop import Loop
from ..isa.memory_access import MemoryLayout
from ..machine.config import MachineConfig
from ..pipeline.cache import KeyedCache
from ..pipeline.passes import CompileOptions
from ..pipeline.compilecache import compile_cached
from ..sim.executor import LoopExecutor
from ..sim.runner import make_memory
from ..sim.trace import EV_CHECK, EV_LOAD, TraceExecutor, static_trace
from ..workloads.generator import KernelGenotype


@dataclass(frozen=True)
class FuzzOptions:
    """Knobs shared by every check of one fuzz run.

    They participate in the store key: a run with a different budget or
    an injected fault must never be served a clean entry recorded under
    other settings.
    """

    exact_node_budget: int = 20_000
    #: Named deterministic corruption of the fast path's static trace
    #: (``None`` fuzzes the real code).  See :data:`FAULTS`.
    fault: str | None = None

    def to_json(self) -> dict:
        return {"exact_node_budget": self.exact_node_budget, "fault": self.fault}


def _mismatch(check: str, kind: str, detail: str, **extra) -> dict:
    record = {"check": check, "kind": kind, "detail": detail}
    record.update(extra)
    return record


def _compile(
    loop: Loop,
    config: MachineConfig,
    scheduler: str,
    options: FuzzOptions,
    cache: KeyedCache,
):
    """Compile through ``cache`` with one canonical option set, so the
    checks of one job share compile work."""
    return compile_cached(
        copy.deepcopy(loop),
        config,
        CompileOptions(
            scheduler=scheduler, exact_node_budget=options.exact_node_budget
        ),
        cache=cache,
    )


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------


def _fault_drop_check_deps(trace) -> int:
    """Erase the interlock dependences: the fast path stops seeing the
    stalls late loads impose on their consumers."""
    touched = 0
    for event in trace.events:
        if event.kind == EV_CHECK and event.deps:
            event.deps = ()
            touched += 1
    return touched


def _fault_late_load(trace) -> int:
    """Overstate the first load's producer latency by one cycle: its
    consumers appear to stall when the reference says they do not."""
    for event in trace.events:
        if event.kind == EV_LOAD:
            event.latency += 1
            return 1
    return 0


#: Registry of named deterministic trace corruptions.
FAULTS = {
    "drop-check-deps": _fault_drop_check_deps,
    "late-load": _fault_late_load,
}


def _faulted_copy(compiled, fault: str):
    """A private copy of the artifact with ``fault`` applied to its
    trace.  The shared compile cache keeps the pristine original."""
    mutator = FAULTS.get(fault)
    if mutator is None:
        raise ValueError(f"unknown fault {fault!r} (known: {sorted(FAULTS)})")
    static_trace(compiled)  # ensure the trace exists before copying
    faulted = copy.deepcopy(compiled)
    mutator(faulted.static_trace)
    return faulted


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_fast_vs_ref(
    loop: Loop, config: MachineConfig, options: FuzzOptions, cache: KeyedCache
) -> list[dict]:
    """TraceExecutor vs reference interpreter: byte-identical results."""
    compiled = _compile(loop, config, "sms", options, cache)
    if options.fault is not None:
        compiled = _faulted_copy(compiled, options.fault)
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
    loop: Loop, config: MachineConfig, options: FuzzOptions, cache: KeyedCache
) -> list[dict]:
    """The scheduler oracle: II chain and meta consistency (both
    compiles are certified on their way through the cache)."""
    sms = _compile(loop, config, "sms", options, cache)
    exact = _compile(loop, config, "exact", options, cache)
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


def check_certify(
    loop: Loop, config: MachineConfig, options: FuzzOptions, cache: KeyedCache
) -> list[dict]:
    """The independent certifier finds zero blocking diagnostics.

    ``compile_cached`` raises :class:`CertificationError` on a blocked
    compile.  The check catches it and returns mismatches: the shrinker
    counts an exception as a different finding, so only mismatches keep
    the finding shrinkable.
    """
    try:
        _compile(loop, config, "sms", options, cache)
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
    name: str,
    loop: Loop,
    config: MachineConfig,
    options: FuzzOptions,
    cache: KeyedCache | None = None,
) -> list[dict]:
    """Run one check, compiling through ``cache`` (a fresh one when
    ``None``): never through the process-wide compile cache, which keeps
    every artifact for the life of the process."""
    try:
        check = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r} (known: {sorted(CHECKS)})") from None
    return check(loop, config, options, KeyedCache() if cache is None else cache)


def run_checks(
    genotype: KernelGenotype,
    config: MachineConfig,
    checks: Iterable[str],
    options: FuzzOptions,
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
            mismatches.extend(run_check(name, loop, config, options, cache))
        except Exception as exc:  # a crash is a finding, not an abort
            detail = f"{type(exc).__name__}: {exc}"
            mismatches.append(_mismatch(name, "error", detail))
    return mismatches
