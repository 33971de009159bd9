"""Shared setup for the paper-shape checks.

Every check regenerates one of the paper's tables/figures (or an
ablation the evaluation text describes) on a reduced but representative
setup: a subset of the 13 programs and a lower simulation cap, so
`pytest benchmarks/` stays in the seconds range and asserts the
figures' shape, not the program's speed (``perfbench/`` times the
program).  `python -m repro.eval <experiment>` reproduces the full-size
versions.
"""

from __future__ import annotations

import pytest

from repro.eval import ExperimentContext
from repro.sim import SimOptions

#: Subset spanning the behaviour classes: recurrence-dominated winners
#: (g721dec), prefetch-pathological (jpegdec), stall-bound low-L1-hit
#: (pegwitdec), other-stride heavy (mpeg2dec) and FP small-II (rasta).
QUICK_BENCHMARKS = ("g721dec", "jpegdec", "pegwitdec", "mpeg2dec", "rasta")

QUICK_CAP = 400


@pytest.fixture(scope="session")
def ctx() -> ExperimentContext:
    """One serial pipeline session shared by every check, so configs
    the figures share are simulated once."""
    return ExperimentContext(
        options=SimOptions(sim_cap=QUICK_CAP), benchmarks=QUICK_BENCHMARKS
    )
