"""Unit tests for the benchmark's own logic (no simulation runs).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import layers, oracle, probe  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_arithmetic_on_synthetic_spans():
    clock = FakeClock()
    rec = layers.Recorder(clock=clock)
    # root 0..10: compile 1..4 (frontend 2..3), sim.run 5..9 (memory 6..8
    # with l0 6.5..7 inside, and a nested memory call 7..7.5).
    clock.now = 1.0
    compile_ = rec.enter("compile", keep=True)
    clock.now = 2.0
    front = rec.enter("frontend", keep=True)
    clock.now = 3.0
    rec.exit(front)
    clock.now = 4.0
    rec.exit(compile_)
    clock.now = 5.0
    run = rec.enter("sim.run", keep=True)
    clock.now = 6.0
    mem = rec.enter("memory.unified")
    clock.now = 6.5
    l0 = rec.enter("l0")
    clock.now = 7.0
    rec.exit(l0)
    inner = rec.enter("memory.unified")
    clock.now = 7.5
    rec.exit(inner)
    clock.now = 8.0
    rec.exit(mem)
    clock.now = 9.0
    rec.exit(run)
    clock.now = 10.0
    assert rec.close_root() == pytest.approx(10.0)

    own = rec.self_times()
    assert own["compile"] == pytest.approx(2.0)
    assert own["frontend"] == pytest.approx(1.0)
    assert own["sim.run"] == pytest.approx(2.0)
    assert own["memory.unified"] == pytest.approx(1.5)
    assert own["l0"] == pytest.approx(0.5)
    assert own["other"] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(10.0)

    # A memory call nested in a memory call adds self time, not a second
    # inclusive interval or an outer call.
    calls, inclusive, _, all_calls = rec.totals["memory.unified"]
    assert (calls, all_calls) == (1, 2)
    assert inclusive == pytest.approx(2.0)

    # Kept span records give the same self times by their own arithmetic.
    from_records = layers.self_times(rec.spans)
    assert from_records["compile"] == pytest.approx(2.0)
    assert from_records["frontend"] == pytest.approx(1.0)
    assert set(from_records) == {"compile", "frontend", "sim.run"}


def test_recorder_merge_and_reset():
    clock = FakeClock()
    a, b = layers.Recorder(clock=clock), layers.Recorder(clock=clock)
    for rec in (a, b):
        frame = rec.enter("compile")
        clock.now += 1.0
        rec.exit(frame)
        rec.count("sim.runs", 3)
    a.merge(b.snapshot())
    assert a.totals["compile"][:2] == [2, pytest.approx(2.0)]
    assert a.counters["sim.runs"] == 6
    a.reset()
    assert a.totals["compile"] == [0, 0.0, 0.0, 0]
    assert a.counters == {} and a.spans == []


def _series(cells: dict) -> dict:
    return {
        label: [
            SimpleNamespace(benchmark=bench, total=total, stall=stall)
            for bench, (total, stall) in rows.items()
        ]
        for label, rows in cells.items()
    }


REFERENCE = {
    "4 entries": {
        "g721dec": [0.75, 0.02],
        "epicdec": [1.25, 0.31],
        "AMEAN": [1.0, 0.165],
    },
    "unbounded": {
        "g721dec": [0.7, 0.01],
        "epicdec": [1.1, 0.2],
        "AMEAN": [0.9, 0.105],
    },
}


def test_oracle_accepts_the_reference():
    attempted, mismatches = oracle.check_figure(_series(REFERENCE), REFERENCE)
    assert attempted == 6
    assert mismatches == []


def test_oracle_catches_one_perturbed_cell():
    cells = {
        label: {bench: list(cell) for bench, cell in rows.items()}
        for label, rows in REFERENCE.items()
    }
    cells["unbounded"]["epicdec"][1] *= 1 + 1e-9
    attempted, mismatches = oracle.check_figure(_series(cells), REFERENCE)
    assert attempted == 6
    assert len(mismatches) == 1
    assert mismatches[0].startswith("unbounded/epicdec")


def test_oracle_counts_a_missing_cell():
    cells = {label: dict(rows) for label, rows in REFERENCE.items()}
    del cells["4 entries"]["g721dec"]
    attempted, mismatches = oracle.check_figure(_series(cells), REFERENCE)
    assert attempted == 6
    assert len(mismatches) == 1


def _row(mii, ii_exact, ii_sms):
    return {
        "benchmark": "gsmenc",
        "loop": "l",
        "config": "4 entries",
        "mii": mii,
        "ii_exact": ii_exact,
        "ii_sms": ii_sms,
    }


def test_schedcompare_invariant():
    rows = [_row(2, 2, 3)] * oracle.SCHEDCOMPARE_ROWS
    assert oracle.check_schedcompare(rows) == (oracle.SCHEDCOMPARE_ROWS, [])
    for bad in (_row(3, 2, 3), _row(2, 4, 3)):
        attempted, mismatches = oracle.check_schedcompare(rows[1:] + [bad])
        assert attempted == oracle.SCHEDCOMPARE_ROWS
        assert len(mismatches) == 1


def test_schedcompare_missing_rows_fail():
    attempted, mismatches = oracle.check_schedcompare([_row(2, 2, 2)] * 180)
    assert attempted == oracle.SCHEDCOMPARE_ROWS
    assert mismatches == ["4 rows missing"]


def test_probe_scale():
    assert probe.scale([]) == 1.0
    slow = [2 * probe.REFERENCE_S] * 3
    assert probe.scale(slow) == pytest.approx(0.5)
