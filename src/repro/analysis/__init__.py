"""Independent static certifier and artifact sanitizer.

``repro.analysis`` re-derives, from first principles and sharing no
code with the schedulers, everything the compile pipeline claims about
an artifact: schedule legality (dependences, comms, reservation
tables), register lifetimes under modulo variable expansion, L0 buffer
occupancy and hint consistency, and the fast-path trace's event
prunings.  Its checkers are the project's only implementation of those
rules, and ``compile_cached`` is the one place they run on a compile:
it certifies every artifact it stores and raises
:class:`CertificationError` on a blocking finding.  The package also
hosts the project's AST lint.  All findings are typed
:class:`Diagnostic` records with stable codes.
"""

from .certify import certify_compiled
from .dependence import check_schedule
from .diagnostics import CODES, CertificationError, Diagnostic, Severity, blocking
from .lint import lint_paths

__all__ = [
    "CODES",
    "CertificationError",
    "Diagnostic",
    "Severity",
    "blocking",
    "certify_compiled",
    "check_schedule",
    "lint_paths",
]
