"""Output oracle: every figure cell against the committed reference.

``reference.json`` holds the ``total`` and ``stall`` of every Figure 5
and Figure 7 bar (AMEAN included) at the default sim cap.  The
``measured`` field is left out on purpose: it is interpretation
metadata that convergence work may legitimately move, and the traced
run reports it as ``sim.interpreted_frac``.  For ``schedcompare`` the
check is the scheduler invariant ``MII <= II_exact <= II_SMS`` on every
row.  One checked cell or row is one operation.

Regenerate the reference (only when a change is meant to move the
figures) with::

    PYTHONPATH=src python3 -m perfbench.oracle --write
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

#: Relative tolerance for a figure cell.  Cells are ratios of cycle
#: counts near 1e5..1e7, so one cycle moves a cell by far more than this;
#: the slack only absorbs the summation order of the AMEAN row, which
#: follows the (seed-permuted) program order.
REL_TOL = 1e-12

#: (loop, config) pairs ``scheduler_comparison`` compiles over the suite.
SCHEDCOMPARE_ROWS = 184


def figure_cells(series) -> dict:
    """``{label: {benchmark: [total, stall]}}`` of a fig5/fig7 result."""
    return {
        label: {row.benchmark: [row.total, row.stall] for row in rows}
        for label, rows in series.items()
    }


def check_figure(series, reference: dict) -> tuple[int, list[str]]:
    """Compare a figure to its reference; returns (cells checked, mismatches).

    A cell missing from either side counts as a mismatch.
    """
    got = figure_cells(series)
    mismatches: list[str] = []
    attempted = 0
    for label in sorted(set(got) | set(reference)):
        have = got.get(label, {})
        want = reference.get(label, {})
        for bench in sorted(set(have) | set(want)):
            attempted += 1
            a, b = have.get(bench), want.get(bench)
            if a is None or b is None:
                mismatches.append(f"{label}/{bench}: got {a}, want {b}")
            elif not all(
                math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0) for x, y in zip(a, b)
            ):
                mismatches.append(f"{label}/{bench}: got {a}, want {b}")
    return attempted, mismatches


def check_schedcompare(rows) -> tuple[int, list[str]]:
    """``MII <= II_exact <= II_SMS`` on every row; a missing row fails."""
    mismatches = [
        f"{r['benchmark']}/{r['loop']}/{r['config']}: "
        f"mii={r['mii']} ii_exact={r['ii_exact']} ii_sms={r['ii_sms']}"
        for r in rows
        if not r["mii"] <= r["ii_exact"] <= r["ii_sms"]
    ]
    missing = SCHEDCOMPARE_ROWS - len(rows)
    if missing > 0:
        mismatches.append(f"{missing} rows missing")
    return max(len(rows), SCHEDCOMPARE_ROWS), mismatches


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write",
        action="store_true",
        help="rerun fig5 and fig7 and rewrite the reference",
    )
    args = parser.parse_args()
    if not args.write:
        parser.error("nothing to do: pass --write")
    from repro.eval.experiments import ExperimentContext, fig5, fig7
    from repro.sim.runner import SimOptions

    ctx = ExperimentContext()
    reference = {
        "sim_cap": SimOptions().sim_cap,
        "fig5": figure_cells(fig5(ctx)),
        "fig7": figure_cells(fig7(ctx)),
    }
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
