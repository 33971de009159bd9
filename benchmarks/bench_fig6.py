"""Figure 6: mapping mix, L0 hit rate and average unroll factor."""

from repro.eval import fig6, render_fig6


def test_fig6(ctx):
    rows = fig6(ctx)
    print()
    print(render_fig6(rows))
    for row in rows:
        # Hit rates are high (the paper: mostly above 95%; epicdec,
        # mpeg2dec, pegwit and rasta dip below).
        assert row["l0_hit_rate"] > 0.90
        assert 1.0 <= row["avg_unroll"] <= 4.0
        assert abs(row["linear_ratio"] + row["interleaved_ratio"] - 1.0) < 1e-9
    # Both mapping modes are exercised across the suite, and interleaved
    # mapping appears only where it can (the paper: it requires the
    # loop to be unrolled N times).
    assert any(r["interleaved_ratio"] > 0.5 for r in rows)
    assert any(r["linear_ratio"] > 0.3 for r in rows)
    for row in rows:
        if row["avg_unroll"] < 1.05:
            assert row["interleaved_ratio"] < 0.05
