"""The custom AST lint (A101-A103): fixtures + repo self-lint.

Each fixture is a minimal source string exercising one rule — the
violation, the clean counterpart, and the waiver syntax.  The final
test lints the real source tree: the repository must stay clean under
its own lint (waivers included), which is what the CI analysis lane
asserts.
"""

from __future__ import annotations

from pathlib import Path

import textwrap

from repro.analysis.lint import lint_paths, lint_source


def _codes(source, path="sim/x.py", **kwargs):
    return [d.code for d in lint_source(textwrap.dedent(source), path, **kwargs)]


# ----------------------------------------------------------------------
# A101: unseeded randomness
# ----------------------------------------------------------------------


def test_a101_unseeded_random_flagged():
    src = """
    import random

    def jitter():
        return random.random() + random.randint(0, 3)
    """
    assert _codes(src) == ["A101", "A101"]


def test_a101_seeded_random_allowed():
    src = """
    import random

    def rng(seed):
        random.seed(seed)
        return random.Random(1234)
    """
    assert _codes(src) == []


def test_a101_only_in_timing_sensitive_dirs():
    src = "import random\nx = random.random()\n"
    assert _codes(src, path="workloads/gen.py") == []
    assert _codes(src, path="scheduler/sub/deep.py") == ["A101"]


# ----------------------------------------------------------------------
# A102: wall-clock reads
# ----------------------------------------------------------------------


def test_a102_clock_reads_flagged():
    src = """
    import time
    import datetime

    def stamp():
        return time.monotonic(), time.perf_counter_ns(), datetime.now()
    """
    assert _codes(src) == ["A102", "A102", "A102"]


def test_a102_waiver_suppresses():
    src = """
    import time

    def deadline(budget):
        return time.monotonic() + budget  # analysis: allow(A102)
    """
    assert _codes(src) == []


def test_waiver_lists_multiple_codes():
    src = """
    import time
    import random

    def f():
        return time.time() + random.random()  # analysis: allow(A101, A102)
    """
    assert _codes(src) == []


# ----------------------------------------------------------------------
# A103: unordered-set iteration
# ----------------------------------------------------------------------


def test_a103_set_literal_and_annotation():
    src = """
    ready = {1, 2, 3}

    def order(pending: set[int]):
        out = []
        for uid in ready:
            out.append(uid)
        return out + [u for u in pending]
    """
    assert _codes(src) == ["A103", "A103"]


def test_a103_sorted_iteration_clean():
    src = """
    ready = {1, 2, 3}

    def order(pending: set[int]):
        return [u for u in sorted(ready)] + list(sorted(pending))
    """
    assert _codes(src) == []


def test_a103_self_attribute_binding():
    src = """
    class Policy:
        def __init__(self):
            self.planned: set[int] = set()

        def walk(self):
            return [u for u in self.planned]
    """
    assert _codes(src) == ["A103"]


def test_a103_scoped_to_order_sensitive_dirs():
    src = "s = {1, 2}\nout = [x for x in s]\n"
    assert _codes(src, path="pipeline/keys.py") == ["A103"]
    assert _codes(src, path="workloads/gen.py") == []


# ----------------------------------------------------------------------
# Self-lint: the repository stays clean under its own rules
# ----------------------------------------------------------------------


def test_repository_self_lint_clean():
    package = Path(__file__).resolve().parents[1] / "src" / "repro"
    findings = lint_paths([package])
    assert findings == [], [d.render() for d in findings]


def test_lint_findings_carry_location():
    src = "import time\nx = time.time()\n"
    (d,) = lint_source(src, "sim/clock.py")
    assert d.origin == "sim/clock.py:2"
    assert d.code == "A102"
