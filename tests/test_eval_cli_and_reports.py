"""Tests for the evaluation CLI, report rendering, and normalization."""

import pytest

from repro.eval import (
    ExperimentContext,
    NormalizedTime,
    fig5,
    render_ablation,
    render_fig5,
    render_fig6,
    render_fig7,
    render_table1,
    render_table2,
    table1,
    table2,
)
from repro.eval.__main__ import main
from repro.sim import SimOptions


class TestCLI:
    def test_table2_runs(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "lock-step" in out

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "g721dec" in out

    def test_fig5_with_benchmark_subset(self, capsys):
        assert main(["fig5", "--benchmarks", "g721dec", "--sim-cap", "150"]) == 0
        out = capsys.readouterr().out
        assert "AMEAN" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("budget", ["0", "-3", "many"])
    def test_exact_budget_below_one_is_a_usage_error(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["schedcompare", "--benchmarks", "gsmenc", "--exact-budget", budget])
        assert exc.value.code == 2
        assert "argument --exact-budget" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3", "many"])
    def test_sim_cap_below_one_is_a_usage_error(self, cap, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--benchmarks", "g721dec", "--sim-cap", cap])
        assert exc.value.code == 2
        assert "argument --sim-cap" in capsys.readouterr().err


class TestRenderers:
    def _rows(self, labels, benchmarks=("x", "AMEAN")):
        return {
            label: [
                NormalizedTime(benchmark=b, label=label, total=0.9, stall=0.1)
                for b in benchmarks
            ]
            for label in labels
        }

    def test_fig5_renderer_includes_all_columns(self):
        text = render_fig5(self._rows(["4 entries", "8 entries"]))
        assert "4 entries" in text and "8 entries" in text
        assert "0.900 (0.100)" in text

    def test_fig7_renderer(self):
        text = render_fig7(self._rows(["8-entry L0 buffers", "MultiVLIW"]))
        assert "MultiVLIW" in text

    def test_fig6_renderer(self):
        text = render_fig6(
            [
                {
                    "benchmark": "x",
                    "linear_ratio": 0.25,
                    "interleaved_ratio": 0.75,
                    "l0_hit_rate": 0.99,
                    "avg_unroll": 2.5,
                }
            ]
        )
        assert "0.25" in text and "0.75" in text

    def test_ablation_renderer(self):
        text = render_ablation(
            [{"benchmark": "x", "a": 100.0, "b": 110.0, "ratio": 1.1}],
            "title",
            "a",
            "b",
        )
        assert "1.100" in text

    def test_table_renderers(self):
        assert "benchmark" in render_table1(table1())
        assert "L0 buffers" in render_table2(table2())


class TestNormalization:
    def test_scalar_residue_damps_ratio(self):
        """With loop_fraction = 0.8, a loop-level 2x win becomes < 2x at
        program level (the 20% scalar residue is unchanged)."""
        ctx = ExperimentContext(
            options=SimOptions(sim_cap=150), benchmarks=("g721dec",)
        )
        from repro.machine import l0_config, unified_config

        row = fig5(ctx, sizes=(8,))["8 entries"][0]
        assert row.benchmark == "g721dec"
        result = ctx.session.run(ctx.request("g721dec", l0_config(8)))
        base = ctx.session.run(ctx.request("g721dec", unified_config()))
        loop_ratio = result.total_cycles / base.total_cycles
        assert loop_ratio < row.total < 1.0

    def test_normalized_compute_plus_stall(self):
        row = NormalizedTime(benchmark="x", label="l", total=0.8, stall=0.3)
        assert row.compute == pytest.approx(0.5)
