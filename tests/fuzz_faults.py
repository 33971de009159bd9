"""Deterministic fast-path trace corruptions: the fuzzer's fault drills.

:func:`apply_fault` patches ``repro.fuzz.checks.TraceExecutor`` with a
subclass that runs on a deep copy of the compiled artifact whose static
trace one named fault has corrupted; the compile cache keeps the
pristine original, and the reference interpreter still runs it.  The
drills prove that ``fast_vs_ref`` catches a real fast-path divergence
and that the shrinker reduces it.  Only in-process (serial) sweeps see
the patch: a worker fleet forked before it runs the real executor.
"""

from __future__ import annotations

import copy

from repro.fuzz import checks
from repro.sim.trace import EV_CHECK, EV_LOAD, TraceExecutor, static_trace


def _drop_check_deps(trace) -> None:
    """Erase the interlock dependences: the fast path stops seeing the
    stalls late loads impose on their consumers."""
    for event in trace.events:
        if event.kind == EV_CHECK:
            event.deps = ()


def _late_load(trace) -> None:
    """Overstate the first load's producer latency by one cycle: its
    consumers appear to stall when the reference says they do not."""
    for event in trace.events:
        if event.kind == EV_LOAD:
            event.latency += 1
            return


#: The named drills; each committed drill repro's ``note`` names one.
FAULTS = {"drop-check-deps": _drop_check_deps, "late-load": _late_load}


def apply_fault(monkeypatch, fault: str) -> None:
    """Make every ``fast_vs_ref`` check run the fast path on a trace
    corrupted by ``fault`` until ``monkeypatch`` undoes it."""
    corrupt = FAULTS[fault]

    class FaultedTraceExecutor(TraceExecutor):
        def __init__(self, compiled, memory, layout) -> None:
            static_trace(compiled)  # build it before copying
            compiled = copy.deepcopy(compiled)
            corrupt(compiled.static_trace)
            super().__init__(compiled, memory, layout)

    monkeypatch.setattr(checks, "TraceExecutor", FaultedTraceExecutor)
