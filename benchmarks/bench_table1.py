"""Table 1: benchmark stride statistics (S / SG / SO percentages)."""

from repro.eval import render_table1, table1


def test_table1():
    rows = table1()
    assert len(rows) == 13
    for row in rows:
        # The synthetic suite tracks the paper's published profile.
        assert abs(row["S"] - row["paper_S"]) <= 12
    print()
    print(render_table1(rows))
