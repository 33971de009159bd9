"""Tests for the synthetic Mediabench suite and the experiment harness."""

import pytest

from repro.eval import (
    ExperimentContext,
    fig5,
    fig6,
    render_fig5,
    render_table1,
    render_table2,
    table1,
    table2,
)
from repro.ir import build_ddg
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import SimOptions
from repro.workloads import (
    BENCHMARK_NAMES,
    PAPER_TABLE1,
    build,
    random_loop,
    suite,
)


class TestSuiteDefinitions:
    def test_all_thirteen_benchmarks(self):
        assert len(BENCHMARK_NAMES) == 13
        assert set(BENCHMARK_NAMES) == set(PAPER_TABLE1)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build("quake3")

    def test_benchmarks_are_rebuildable(self):
        a, b = build("gsmdec"), build("gsmdec")
        assert [s.loop.name for s in a.loops] == [s.loop.name for s in b.loops]

    def test_loop_fraction_sane(self):
        for bench in suite():
            assert 0.5 <= bench.loop_fraction < 1.0

    def test_every_loop_compiles_on_every_arch(self):
        """Broad sweep: all suite loops schedule validly for key configs."""
        for bench in suite(("g721dec", "jpegdec", "rasta")):
            for spec in bench.loops:
                for config in (unified_config(), l0_config(8)):
                    compiled = compile_loop(spec.loop, config)
                    assert compiled.schedule.validate(compiled.ddg) == []


class TestRandomLoops:
    def test_reproducible(self):
        a = random_loop(7)
        b = random_loop(7)
        assert [i.opcode for i in a.body] == [i.opcode for i in b.body]

    def test_always_has_memory_op(self):
        for seed in range(30):
            assert any(i.is_memory for i in random_loop(seed).body)

    def test_builds_valid_ddg(self):
        for seed in range(20):
            build_ddg(random_loop(seed), unified_config())


class TestTable1:
    def test_measured_close_to_paper(self):
        rows = table1()
        for row in rows:
            assert abs(row["S"] - row["paper_S"]) <= 12, row["benchmark"]
            assert abs(row["SG"] - row["paper_SG"]) <= 12, row["benchmark"]
            assert abs(row["SO"] - row["paper_SO"]) <= 12, row["benchmark"]

    def test_percentages_consistent(self):
        for row in table1():
            assert row["S"] == pytest.approx(row["SG"] + row["SO"], abs=0.1)
            assert 0 <= row["S"] <= 100

    def test_render(self):
        text = render_table1(table1())
        assert "g721dec" in text and "paper S" in text


class TestTable2:
    def test_paper_parameters_present(self):
        rows = dict(table2())
        assert "4 clusters" in rows["Number of clusters"]
        assert "8-byte subblocks" in rows["L0 buffers"]
        assert "6 cycles latency" in rows["L1 cache"]
        assert "always hits" in rows["L2 cache"]
        assert render_table2(table2())


@pytest.fixture(scope="module")
def quick_ctx():
    return ExperimentContext(
        options=SimOptions(sim_cap=250),
        benchmarks=("g721dec", "jpegdec"),
    )


class TestFigures:
    def test_fig5_structure_and_normalization(self, quick_ctx):
        series = fig5(quick_ctx, sizes=(8,))
        rows = series["8 entries"]
        names = [r.benchmark for r in rows]
        assert names == ["g721dec", "jpegdec", "AMEAN"]
        for row in rows:
            assert 0.3 < row.total < 3.0
            assert 0 <= row.stall <= row.total
        render_fig5(series)

    def test_fig5_recurrence_benchmark_wins(self, quick_ctx):
        series = fig5(quick_ctx, sizes=(8,))
        g721 = next(r for r in series["8 entries"] if r.benchmark == "g721dec")
        assert g721.total < 0.9

    def test_fig6_rates(self, quick_ctx):
        rows = fig6(quick_ctx)
        for row in rows:
            assert row["linear_ratio"] + row["interleaved_ratio"] == pytest.approx(1.0)
            assert 0.8 <= row["l0_hit_rate"] <= 1.0
            assert 1.0 <= row["avg_unroll"] <= 4.0

    def test_context_caches_runs(self, quick_ctx):
        fig5(quick_ctx, sizes=(8,))
        before = quick_ctx.session.simulations
        fig5(quick_ctx, sizes=(8,))  # re-run: pure cache hits
        assert quick_ctx.session.simulations == before
