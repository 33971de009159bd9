"""Text rendering of experiment results in the paper's row/series shape."""

from __future__ import annotations

from .experiments import NormalizedTime


def _rule(width: int = 78) -> str:
    return "-" * width


def render_table1(rows: list[dict]) -> str:
    lines = [
        "Table 1: benchmark stride statistics (measured vs paper)",
        _rule(),
        f"{'benchmark':<12} {'S%':>6} {'SG%':>6} {'SO%':>6}   "
        f"{'paper S':>8} {'paper SG':>9} {'paper SO':>9}",
        _rule(),
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<12} {row['S']:>6.0f} {row['SG']:>6.0f} "
            f"{row['SO']:>6.0f}   {row['paper_S']:>8} {row['paper_SG']:>9} "
            f"{row['paper_SO']:>9}"
        )
    return "\n".join(lines)


def render_table2(rows: list[tuple[str, str]]) -> str:
    lines = ["Table 2: configuration parameters", _rule()]
    for name, value in rows:
        lines.append(f"{name:<24} {value}")
    return "\n".join(lines)


def _measured_row(series: dict[str, list[NormalizedTime]]) -> str:
    """Bottom table row: per-series measured (interpreted) fraction.

    The simulator reports how much of every bar was interpreted cycle by
    cycle versus covered by statistical scaling
    (``LoopResult.simulated_iterations``); the arithmetic mean over the
    column's benchmarks lands here so figure tables carry the honesty
    metadata next to the numbers it qualifies.
    """
    cells = []
    for rows in series.values():
        mean = sum(r.measured for r in rows) / len(rows)
        cells.append(f"{mean:>20.1%}")
    return f"{'measured':<12}" + " ".join(cells)


def _render_series(
    title: list[str],
    series: dict[str, list[NormalizedTime]],
    *,
    cell_header: bool = False,
) -> str:
    """A normalized-time figure: one column per series, a ``total
    (stall)`` cell per benchmark, and the ``measured`` row.  With
    ``cell_header``, a sub-header row names the cell format."""
    lines = [*title, _rule()]
    lines.append(f"{'benchmark':<12}" + "".join(f" {label:>20}" for label in series))
    if cell_header:
        lines.append(f"{'':<12}" + " ".join(f"{'total (stall)':>20}" for _ in series))
    lines.append(_rule())
    for rows in zip(*series.values()):
        cells = [f"{row.total:>12.3f} ({row.stall:.3f})" for row in rows]
        lines.append(f"{rows[0].benchmark:<12}" + " ".join(f"{c:>20}" for c in cells))
    lines.append(_rule())
    lines.append(_measured_row(series))
    return "\n".join(lines)


def render_fig5(series: dict[str, list[NormalizedTime]]) -> str:
    title = [
        "Figure 5: normalized execution time vs L0 buffer size",
        "(1.00 = clustered VLIW with unified L1, no L0 buffers; "
        "stall column included in total)",
    ]
    return _render_series(title, series, cell_header=True)


def render_fig6(rows: list[dict]) -> str:
    lines = [
        "Figure 6: subblock mapping mix, L0 hit rate, average unroll factor",
        _rule(),
        f"{'benchmark':<12} {'linear':>8} {'interleaved':>12} "
        f"{'L0 hit rate':>12} {'avg unroll':>11}",
        _rule(),
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<12} {row['linear_ratio']:>8.2f} "
            f"{row['interleaved_ratio']:>12.2f} {row['l0_hit_rate']:>12.3f} "
            f"{row['avg_unroll']:>11.1f}"
        )
    return "\n".join(lines)


def render_fig7(series: dict[str, list[NormalizedTime]]) -> str:
    title = [
        "Figure 7: L0 buffers vs MultiVLIW vs word-interleaved cache",
        "(normalized to unified L1 without L0 buffers)",
    ]
    return _render_series(title, series)


def render_sched_compare(rows: list[dict]) -> str:
    """The scheduler-oracle table: per-loop II(SMS) / II(exact) / MII."""
    lines = [
        "Scheduler comparison: II(SMS) vs II(exact) vs MII per loop",
        "(exact = branch-and-bound with SMS fallback; Figure-5 L0 configs)",
        _rule(),
        f"{'benchmark':<12} {'loop':<18} {'config':<12} "
        f"{'MII':>4} {'SMS':>4} {'exact':>6}  verdict",
        _rule(),
    ]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<12} {row['loop']:<18} {row['config']:<12} "
            f"{row['mii']:>4} {row['ii_sms']:>4} {row['ii_exact']:>6}  "
            f"{row['verdict']}"
        )
    lines.append(_rule())
    improved = [r for r in rows if r["ii_exact"] < r["ii_sms"]]
    exhausted = [r for r in rows if r["verdict"] == "budget exhausted"]
    at_mii = [r for r in rows if r["ii_sms"] <= r["mii"]]
    lines.append(
        f"{len(rows)} loop/config pairs: exact beat SMS on {len(improved)}, "
        f"SMS already at MII on {len(at_mii)}, budget exhausted on "
        f"{len(exhausted)}"
    )
    if improved:
        worst = max(improved, key=lambda r: r["ii_sms"] - r["ii_exact"])
        lines.append(
            "largest gap: "
            f"{worst['benchmark']}/{worst['loop']} ({worst['config']}) "
            f"II {worst['ii_sms']} -> {worst['ii_exact']} (MII {worst['mii']})"
        )
    elif all(r["verdict"].startswith("SMS optimal") for r in rows):
        lines.append("SMS proved optimal on every loop/config pair")
    return "\n".join(lines)


def render_ablation(rows: list[dict], title: str, a: str, b: str) -> str:
    lines = [title, _rule(), f"{'benchmark':<12} {a:>16} {b:>16} {'ratio':>8}", _rule()]
    for row in rows:
        lines.append(
            f"{row['benchmark']:<12} {row[a]:>16.0f} {row[b]:>16.0f} "
            f"{row['ratio']:>8.3f}"
        )
    return "\n".join(lines)
