"""Typed diagnostics shared by the certifier, the linter and ``validate()``.

Every finding any ``repro.analysis`` checker (or the legacy
``ModuloSchedule.validate``) produces is a :class:`Diagnostic`: a stable
machine-readable code, a severity, a human message and provenance
(which loop / artifact / source line).  Codes are append-only — tests
and CI gates key on them, so a code is never renumbered or reused.

This module is a *leaf*: it imports nothing from the rest of the
package, so the scheduler can emit typed diagnostics without creating
an import cycle with the checkers (which import the scheduler's data
types).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace


class Severity(enum.Enum):
    """How a diagnostic gates an artifact.

    ``ERROR`` and ``WARNING`` are *blocking*: the artifact fails
    certification (CLI exit 1, ``verdict: "flagged"``).  ``NOTE`` is
    advisory — a sound schedule about which the certifier still has
    something to say (e.g. an optimality claim it cannot re-prove).
    """

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"


#: The stable diagnostic registry: code -> (default severity, title).
#: Append-only; never renumber.  A001-A0xx are certifier codes, A1xx
#: are lint codes.  docs/architecture.md renders this table.
CODES: dict[str, tuple[Severity, str]] = {
    # -- schedule legality (independent re-derivation of validate()) ----
    "A001": (Severity.ERROR, "edge or comm references an unplaced instruction"),
    "A002": (Severity.ERROR, "dependence violated: value ready after consumer issue"),
    "A003": (Severity.ERROR, "cross-cluster value has no communication"),
    "A004": (Severity.ERROR, "comm starts before its value is produced"),
    "A005": (Severity.ERROR, "comm source cluster mismatch"),
    "A006": (Severity.ERROR, "functional unit oversubscribed in a kernel row"),
    "A007": (Severity.ERROR, "bus slots oversubscribed in a kernel row"),
    # -- register lifetimes ---------------------------------------------
    "A008": (Severity.ERROR, "register pressure exceeds the cluster register file"),
    # -- L0 buffer occupancy / consistency ------------------------------
    "A009": (Severity.ERROR, "resident L0 streams exceed the cluster's L0 capacity"),
    "A010": (Severity.ERROR, "load latency inconsistent with its L0 access hints"),
    "A011": (Severity.ERROR, "missing L0 flush before a conflicting loop"),
    # -- trace-pruning audit --------------------------------------------
    "A012": (Severity.ERROR, "trace pruned an event whose static slack is positive"),
    "A013": (Severity.ERROR, "trace disagrees with the schedule it was built from"),
    # -- advisory -------------------------------------------------------
    "A014": (
        Severity.NOTE,
        "bus-binding kernel rows: greedy bus placement cannot support the "
        "schedule's optimality proof",
    ),
    # -- custom lint ----------------------------------------------------
    "A101": (Severity.ERROR, "unseeded random number generation in a hot path"),
    "A102": (Severity.ERROR, "wall-clock read in a hot path"),
    "A103": (
        Severity.ERROR,
        "iteration over an unordered set feeding schedules or cache keys",
    ),
    # Retired with the pass config-field declarations; never reuse.
    "A104": (
        Severity.ERROR,
        "undeclared MachineConfig field read in a declared pass body",
    ),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding, with a stable code and artifact provenance.

    ``str(diagnostic)`` returns the bare message — the shim that keeps
    pre-migration consumers of ``ModuloSchedule.validate()`` (which
    matched on message substrings) working unchanged.
    """

    code: str
    message: str
    severity: Severity = field(default=Severity.ERROR)
    #: Loop the finding is about (schedule/artifact checkers).
    loop: str | None = None
    #: Where the finding came from: a compile-cache key, or a
    #: ``path:line`` location for lint findings.
    origin: str | None = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @classmethod
    def new(cls, code: str, message: str, **kwargs) -> "Diagnostic":
        """Build a diagnostic with the code's registered default severity."""
        if code not in CODES:
            raise ValueError(f"unknown diagnostic code {code!r}")
        severity, _title = CODES[code]
        kwargs.setdefault("severity", severity)
        return cls(code=code, message=message, **kwargs)

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    @property
    def blocking(self) -> bool:
        """Whether this finding fails certification (NOTE does not)."""
        return self.severity is not Severity.NOTE

    def with_provenance(
        self, *, loop: str | None = None, origin: str | None = None
    ) -> "Diagnostic":
        """A copy with provenance filled in where it was missing."""
        return replace(
            self, loop=self.loop or loop, origin=self.origin or origin
        )

    def __str__(self) -> str:
        return self.message

    def render(self) -> str:
        """Full one-line rendering: code, severity, provenance, message."""
        where = []
        if self.loop:
            where.append(f"loop={self.loop}")
        if self.origin:
            where.append(self.origin)
        prefix = f"{self.code} [{self.severity.value}]"
        if where:
            prefix += " (" + ", ".join(where) + ")"
        return f"{prefix}: {self.message}"


def blocking(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """The subset of findings that fail certification."""
    return [d for d in diagnostics if d.blocking]
