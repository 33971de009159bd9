"""The certifier: run every checker over an artifact, record a verdict.

``certify_compiled`` is the single entry point.  ``compile_cached``
calls it on every artifact it compiles, before storing it, and raises
:class:`~repro.analysis.diagnostics.CertificationError` on a blocking
finding; the tests call it on artifacts they corrupt.  It runs the
independent checkers (dependences, register lifetimes, L0 occupancy,
trace audit), reviews the schedule's optimality claim, stamps the
verdict into ``schedule.meta`` and returns the findings with
provenance attached.

Optimality review: the exact scheduler proves ``proved_optimal`` two
ways.  A schedule at the MII lower bound stays proven — the bound is
bus-blind but valid.  A search proof (``ii > mii``) rests on refuting
every smaller II with the same greedy-earliest bus placement the
heuristic engine uses, which is only a complete refutation while bus
slots are never binding; when the certifier finds fully occupied bus
rows it downgrades the claim to ``"unverified"`` and notes A014.
"""

from __future__ import annotations

from ..scheduler.schedule import ModuloSchedule
from .dependence import bus_binding_rows, check_schedule
from .diagnostics import Diagnostic, blocking
from .l0check import check_l0
from .lifetimes import check_register_pressure
from .traceaudit import audit_trace


def _optimality_review(schedule: ModuloSchedule) -> list[Diagnostic]:
    """A014 + the ``proved_optimal`` downgrade (see module docstring)."""
    meta = schedule.meta
    claimed = meta.get("proved_optimal")
    if claimed is not True and claimed != "unverified":
        return []
    mii = meta.get("mii")
    if mii is None or schedule.ii <= mii:
        return []  # lower-bound proof: survives bus saturation
    rows = bus_binding_rows(schedule)
    if not rows:
        return []
    meta["proved_optimal"] = "unverified"
    return [
        Diagnostic.new(
            "A014",
            f"II={schedule.ii} > MII={mii}: the optimality proof refutes "
            f"smaller IIs under greedy bus placement, but kernel rows "
            f"{rows} are bus-binding; claim downgraded to 'unverified'",
        )
    ]


def certify_compiled(compiled, *, artifact_key: str | None = None) -> list[Diagnostic]:
    """Certify a compiled artifact, its cached trace included.

    Stamps provenance on every finding and the verdict into
    ``schedule.meta["analysis"]``; returns the findings.
    """
    schedule = compiled.schedule
    diagnostics = check_schedule(schedule, compiled.ddg)
    diagnostics += check_register_pressure(schedule, compiled.ddg)
    diagnostics += check_l0(schedule)
    diagnostics += audit_trace(compiled)
    diagnostics += _optimality_review(schedule)
    diagnostics = [
        d.with_provenance(loop=schedule.loop_name, origin=artifact_key)
        for d in diagnostics
    ]
    schedule.meta["analysis"] = {
        "verdict": "flagged" if blocking(diagnostics) else "certified",
        "codes": sorted({d.code for d in diagnostics}),
        "bus_binding_rows": bus_binding_rows(schedule),
    }
    return diagnostics
