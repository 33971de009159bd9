"""Differential scheduler-oracle suite: exact vs SMS on the kernel zoo.

For every kernel builder in ``repro.workloads.kernels`` crossed with a
small machine-config matrix, the exact scheduler must act as an oracle
for the SMS heuristic:

* ``MII <= II(exact) <= II(SMS)`` (the deepening loop's contract);
* both schedules pass the certifier's ``check_schedule(schedule, ddg)``;
* simulating both yields consistent statistics (the exact compute-cycle
  identity ``(n - 1) * II + span`` and deterministic stall counts).

The fast subset runs in the default ``-m "not slow"`` lane; the full
kernels x Figure-5-sizes cross product carries the ``slow`` marker and
runs in CI's scheduled lane, where ``REPRO_COMPILE_CACHE_DIR`` persists
the compile artifacts between runs.
"""

import os

import pytest

from repro.analysis import check_schedule
from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.pipeline import CompileOptions, compile_cached, get_compile_cache
from repro.sim import LoopExecutor, make_memory
from repro.workloads import kernels

#: Shared across the module so repeated (kernel, config, scheduler)
#: compiles are cache hits; CI's slow lane points this at a persisted
#: directory.
CACHE = get_compile_cache(os.environ.get("REPRO_COMPILE_CACHE_DIR"))

#: Trials the exact search may spend per compile in these tests.  Small
#: enough that a budget-bound kernel (e.g. the unrolled bignum carry
#: chain on the L0 machine) falls back quickly, large enough that the
#: improvable kernels are actually improved.
TEST_BUDGET = 20_000


def _kernel_suite() -> dict[str, object]:
    """One small instance of every kernel shape in ``workloads.kernels``."""
    return {
        "saxpy": kernels.make_saxpy(trip=32),
        "dpcm": kernels.make_dpcm(trip=32),
        "column": kernels.make_column(trip=32),
        "stream_map": kernels.stream_map("k_stream", trip=32, n=256),
        "multi_stream": kernels.multi_stream("k_multi", trip=32, n=256),
        "feedback": kernels.feedback("k_fb", trip=32, n=256),
        "reduction": kernels.reduction("k_red", trip=32, n=256),
        "column_walk": kernels.column_walk("k_cw", trip=32, n=256),
        "table_mix": kernels.table_mix("k_tm", trip=32, n_stream=256, n_table=64),
        "bignum": kernels.bignum("k_bn", trip=32, n=256),
        "fp_filter": kernels.fp_filter("k_fpf", trip=32, n=256),
        "fp_feedback": kernels.fp_feedback("k_fpfb", trip=32, n=256),
    }


KERNELS = _kernel_suite()

FAST_CONFIGS = {
    "unified": unified_config(),
    "l0-4": l0_config(4),
    "l0-unbounded": l0_config(None),
}

SLOW_CONFIGS = {
    "l0-8": l0_config(8),
    "l0-16": l0_config(16),
    "l0-4-2cl": l0_config(4, n_clusters=2),
    "unified-2cl": unified_config(n_clusters=2),
}


def _compile(loop, config, scheduler: str):
    options = CompileOptions(scheduler=scheduler, exact_node_budget=TEST_BUDGET)
    return compile_cached(loop, config, options, cache=CACHE)


def _simulate(compiled, config):
    memory = make_memory(config)
    layout = MemoryLayout(align=config.l1_block)
    executor = LoopExecutor(compiled, memory, layout)
    return executor.run(compiled.loop.trip_count)


def _check_oracle(loop, config):
    sms = _compile(loop, config, "sms")
    exact = _compile(loop, config, "exact")
    meta = exact.schedule.meta

    assert sms.schedule.meta.get("scheduler") == "sms"
    assert meta["scheduler"] == "exact"
    # The exact backend's internal SMS baseline must agree with the SMS
    # backend proper — both run the same engine over the same artifacts.
    assert meta["ii_sms"] == sms.ii
    # The oracle inequality chain.
    assert meta["mii"] <= exact.ii <= sms.ii
    # One of the three outcomes must hold, and be internally consistent.
    if exact.ii < sms.ii:
        assert meta["improved"] and not meta["fallback"]
    elif meta["fallback"]:
        assert not meta["proved_optimal"]
    elif meta["search_exact"] or sms.ii <= meta["mii"]:
        # Complete refutation (stateless policy) or the airtight MII bound.
        assert meta["proved_optimal"]
    else:
        # The stateful L0 protocol cannot certify refutations.
        assert not meta["proved_optimal"]

    # Both schedules satisfy every dependence/resource constraint.
    assert check_schedule(sms.schedule, sms.ddg) == []
    assert check_schedule(exact.schedule, exact.ddg) == []

    # Both schedules drive the simulator to consistent statistics.
    for compiled in (sms, exact):
        result = _simulate(compiled, config)
        trip = compiled.loop.trip_count
        assert result.iterations == trip
        assert (
            result.compute_cycles == (trip - 1) * compiled.ii + compiled.schedule.span
        )
        assert result.stall_cycles >= 0
        again = _simulate(compiled, config)
        assert (again.compute_cycles, again.stall_cycles, again.late_loads) == (
            result.compute_cycles,
            result.stall_cycles,
            result.late_loads,
        )
    return sms, exact


@pytest.mark.parametrize("config_name", sorted(FAST_CONFIGS))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_oracle_fast_matrix(kernel_name, config_name):
    _check_oracle(KERNELS[kernel_name], FAST_CONFIGS[config_name])


@pytest.mark.slow
@pytest.mark.parametrize("config_name", sorted(SLOW_CONFIGS))
@pytest.mark.parametrize("kernel_name", sorted(KERNELS))
def test_oracle_full_matrix(kernel_name, config_name):
    _check_oracle(KERNELS[kernel_name], SLOW_CONFIGS[config_name])


def test_exact_improves_at_least_one_kernel():
    """The acceptance demonstration: somewhere in the fast matrix the
    exact scheduler must either beat SMS's II outright or prove SMS
    optimal on every single kernel/config pair."""
    improved = []
    proved = []
    for kernel_name, loop in KERNELS.items():
        for config_name, config in FAST_CONFIGS.items():
            exact = _compile(loop, config, "exact")
            meta = exact.schedule.meta
            if meta["improved"]:
                improved.append((kernel_name, config_name))
            elif meta["proved_optimal"]:
                proved.append((kernel_name, config_name))
    assert improved or len(proved) == len(KERNELS) * len(FAST_CONFIGS)
    # With the current engine the reduction/feedback kernels have a
    # known II gap, so the strong arm should hold; keep the assertion
    # message informative if the heuristic ever catches up.
    assert improved, f"SMS proved optimal everywhere: {len(proved)} pairs"


def test_scheduler_spellings_share_result_cache_key():
    """The scheduler knob has one spelling, ``SimOptions(scheduler=...)``,
    and it keys the result cache; a ``scheduler`` entry in
    ``compile_kwargs`` is refused when the options are built."""
    from repro.pipeline import cache_key
    from repro.sim.runner import SimOptions

    with pytest.raises(TypeError, match="scheduler"):
        SimOptions(compile_kwargs={"scheduler": "exact"})
    config = l0_config(8)
    assert cache_key("g721dec", config, SimOptions()) != cache_key(
        "g721dec", config, SimOptions(scheduler="exact")
    )


def test_schedcompare_experiment_reports_oracle():
    """The eval comparison mode surfaces the same oracle per loop."""
    from repro.eval import ExperimentContext, render_sched_compare, scheduler_comparison
    from repro.sim.runner import SimOptions

    options = SimOptions(compile_kwargs={"exact_node_budget": TEST_BUDGET})
    ctx = ExperimentContext(options=options, benchmarks=("gsmenc",))
    rows = scheduler_comparison(ctx, sizes=(4, None))
    assert rows
    for row in rows:
        assert row["mii"] <= row["ii_exact"] <= row["ii_sms"]
    text = render_sched_compare(rows)
    assert "II(SMS) vs II(exact) vs MII" in text
    assert "exact beat SMS" in text


def test_schedcompare_reads_the_exact_budget_from_the_context():
    """A budget-1 context starves every search that does not finish at
    once: no row reads "exact beats SMS", and some read "budget
    exhausted"."""
    from repro.eval import ExperimentContext, scheduler_comparison
    from repro.sim.runner import SimOptions

    options = SimOptions(compile_kwargs={"exact_node_budget": 1})
    ctx = ExperimentContext(options=options, benchmarks=("gsmenc", "pgpdec"))
    verdicts = [row["verdict"] for row in scheduler_comparison(ctx, sizes=(8,))]
    assert "exact beats SMS" not in verdicts
    assert "budget exhausted" in verdicts
