"""Independent static certifier and artifact sanitizer.

``repro.analysis`` re-derives, from first principles and sharing no
code with the schedulers, everything the compile pipeline claims about
an artifact: schedule legality (dependences, comms, reservation
tables), register lifetimes under modulo variable expansion, L0 buffer
occupancy and flush coverage, and the fast-path trace's event
prunings.  Its checkers are the project's only implementation of those
rules: the exact scheduler re-checks an improved schedule with
:func:`check_schedule` before returning it.  It also hosts the
project's AST lint.  All findings are typed :class:`Diagnostic`
records with stable codes.
"""

from .certify import certify_compiled
from .dependence import check_schedule
from .diagnostics import CODES, Diagnostic, Severity, blocking
from .lint import lint_paths

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "blocking",
    "certify_compiled",
    "check_schedule",
    "lint_paths",
]
