"""The pluggable check registry: what "correct" means per fuzz job.

Each check is a function ``(loop, config, options) -> list[mismatch]``
over one (kernel, config) pair; an empty list means the pair is clean
under that oracle.  A check may raise :class:`CheckSkipped` to record
that the job is out of its scope.  Mismatch records are plain dicts
(``{"check", "kind", "detail"}``) so they serialise straight into the
schema-1 fuzz-store entry and the CI summary.

Checks:

* ``fast_vs_ref`` — the PR-5 differential oracle: the precompiled-trace
  :class:`~repro.sim.trace.TraceExecutor` must match the reference
  interpreter byte for byte (cycles, stall history, every memory-stats
  counter).
* ``exact_vs_sms`` — the PR-3 scheduler oracle:
  ``MII <= II(exact) <= II(SMS)``, both schedules validate, and the
  exact backend's meta claims are internally consistent.
* ``certify`` — the PR-6 independent static certifier reports zero
  blocking diagnostics on the compiled artifact.

Fault injection (``FuzzOptions.fault``) deterministically corrupts the
compiled artifact's static trace *on a private copy* before the fast
path runs — the shrinker's tests and CI's acceptance drill use it to
prove a real fast-path divergence would be caught and shrunk.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from ..analysis.certify import certify_compiled
from ..analysis.diagnostics import blocking
from ..ir.loop import Loop
from ..isa.memory_access import MemoryLayout
from ..machine.config import MachineConfig
from ..pipeline.passes import CompileOptions
from ..pipeline.compilecache import compile_cached
from ..sim.executor import LoopExecutor
from ..sim.runner import make_memory
from ..sim.trace import EV_CHECK, EV_LOAD, TraceExecutor, static_trace


class CheckSkipped(Exception):
    """A check declaring the job out of scope (recorded, not failed)."""


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


def _compile(loop: Loop, config: MachineConfig, scheduler: str, options: FuzzOptions):
    """Compile through the artifact cache with one canonical option set,
    so the checks of one job share compile work."""
    return compile_cached(
        copy.deepcopy(loop),
        config,
        CompileOptions(
            scheduler=scheduler, exact_node_budget=options.exact_node_budget
        ),
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
    loop: Loop, config: MachineConfig, options: FuzzOptions
) -> list[dict]:
    """TraceExecutor vs reference interpreter: byte-identical results."""
    compiled = _compile(loop, config, "sms", options)
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
    loop: Loop, config: MachineConfig, options: FuzzOptions
) -> list[dict]:
    """The scheduler oracle: II chain, validity and meta consistency."""
    sms = _compile(loop, config, "sms", options)
    exact = _compile(loop, config, "exact", options)
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
    for label, compiled in (("sms", sms), ("exact", exact)):
        problems = compiled.schedule.validate(compiled.ddg)
        if problems:
            mismatches.append(
                _mismatch(
                    "exact_vs_sms",
                    "validate",
                    f"{label} schedule fails validation: "
                    f"{[str(p) for p in problems[:3]]}",
                )
            )
    return mismatches


def check_certify(
    loop: Loop, config: MachineConfig, options: FuzzOptions
) -> list[dict]:
    """The independent certifier finds zero blocking diagnostics."""
    compiled = _compile(loop, config, "sms", options)
    diagnostics = blocking(certify_compiled(compiled))
    return [
        _mismatch("certify", d.code, d.render()) for d in diagnostics
    ]


#: The pluggable registry: check name -> callable.
CHECKS = {
    "fast_vs_ref": check_fast_vs_ref,
    "exact_vs_sms": check_exact_vs_sms,
    "certify": check_certify,
}


def run_check(
    name: str, loop: Loop, config: MachineConfig, options: FuzzOptions
) -> list[dict]:
    try:
        check = CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r} (known: {sorted(CHECKS)})") from None
    return check(loop, config, options)
