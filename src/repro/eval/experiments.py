"""Experiment definitions: one entry per table/figure in the paper.

Every experiment returns plain data (dicts/lists of rows) so the report
module can format it and tests can assert on it.  Normalisation follows
the paper: execution time relative to the clustered VLIW with a unified
L1 and no L0 buffers.  Because only ~80% of the dynamic stream is
modulo-scheduled loop code (``Benchmark.loop_fraction``), every
configuration's loop cycles are extended with an architecture-
independent scalar residue sized from the baseline run before the ratio
is taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..ir import stride
from ..machine.config import (
    MachineConfig,
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from ..pipeline.cache import KeyedCache
from ..pipeline.executor import RunRequest
from ..pipeline.session import Session
from ..sim.runner import SimOptions
from ..sim.stats import ProgramResult
from ..workloads.mediabench import PAPER_TABLE1, build

AMEAN = "AMEAN"


@dataclass
class NormalizedTime:
    """One bar of Figures 5/7: total + stall portion, normalised."""

    benchmark: str
    label: str
    total: float
    stall: float
    #: Cycle-weighted fraction of the bar that was actually interpreted
    #: cycle by cycle (the rest was statistical sim-cap scaling) —
    #: honesty metadata for the figure tables.
    measured: float = 1.0

    @property
    def compute(self) -> float:
        return self.total - self.stall


@dataclass
class ExperimentContext:
    """The experiments' handle on the pipeline session.

    All simulation goes through :class:`repro.pipeline.Session`:
    results are content-addressed by ``(benchmark, config, options)``
    (experiments sharing a configuration share cache entries), batches
    fan out across ``workers`` processes, and ``cache_dir`` persists
    results on disk across invocations.
    """

    options: SimOptions | None = None  # defaults to SimOptions() post-init
    benchmarks: tuple[str, ...] | None = None
    workers: int | None = None  # None/0/1 serial, N processes, -1 all cores
    cache_dir: str | Path | None = None
    compile_cache_dir: str | Path | None = None
    session: Session = field(init=False)

    def __post_init__(self) -> None:
        if self.options is None:
            self.options = SimOptions()
        if self.compile_cache_dir is not None:
            # Rides inside the options (excluded from cache keys) so
            # worker processes inherit it through pickled requests.
            self.options = replace(
                self.options, compile_cache_dir=str(self.compile_cache_dir)
            )
        self.session = Session(
            options=self.options,
            cache=KeyedCache(self.cache_dir),
            workers=self.workers,
        )

    def names(self) -> tuple[str, ...]:
        if self.benchmarks is not None:
            return self.benchmarks
        return tuple(PAPER_TABLE1)

    def options_with(self, **compile_kwargs) -> SimOptions:
        """The context's options with extra ``compile_kwargs`` merged in.

        Every other knob (sim cap, scheduler, future fields) stays
        identical to the context's options, so derived runs remain
        content-addressed alongside the context's own.
        """
        return replace(
            self.options,
            compile_kwargs={**self.options.compile_kwargs, **compile_kwargs},
        )

    def request(
        self,
        bench_name: str,
        config: MachineConfig,
        options: SimOptions | None = None,
    ) -> RunRequest:
        return self.session.request(bench_name, config, options)


def _scalar_cycles(bench_name: str, base: ProgramResult) -> float:
    """Architecture-independent (non-loop) cycles, sized from the baseline."""
    f = build(bench_name).loop_fraction
    return base.total_cycles * (1.0 - f) / f


def _with_baselines(
    ctx: ExperimentContext, names, requests: list[RunRequest]
) -> tuple[list[ProgramResult], list[ProgramResult]]:
    """Each program's baseline result, then the ``requests``' results,
    from one ``run_many`` batch (the parallel fan-out point)."""
    results = ctx.session.run_many(
        [ctx.request(name, unified_config()) for name in names] + requests
    )
    return results[: len(names)], results[len(names) :]


def _normalized_series(
    ctx: ExperimentContext,
    series: dict[str, tuple[MachineConfig, SimOptions | None]],
) -> dict[str, list[NormalizedTime]]:
    """Figure 5/7 bars: each program under each labelled (config,
    options), normalised to its baseline, plus the AMEAN row."""
    names = ctx.names()
    requests = [
        ctx.request(name, config, options)
        for config, options in series.values()
        for name in names
    ]
    bases, results = _with_baselines(ctx, names, requests)
    scalars = [_scalar_cycles(name, base) for name, base in zip(names, bases)]
    n = len(names)
    out: dict[str, list[NormalizedTime]] = {}
    for k, label in enumerate(series):
        rows: list[NormalizedTime] = []
        row_results = results[k * n : (k + 1) * n]
        for name, base, scalar, result in zip(names, bases, scalars, row_results):
            denom = base.total_cycles + scalar
            rows.append(
                NormalizedTime(
                    benchmark=name,
                    label=label,
                    total=(result.total_cycles + scalar) / denom,
                    stall=result.stall_cycles / denom,
                    measured=result.measured_fraction,
                )
            )
        rows.append(_amean(rows, label))
        out[label] = rows
    return out


def _amean(rows: list[NormalizedTime], label: str) -> NormalizedTime:
    n = len(rows)
    return NormalizedTime(
        benchmark=AMEAN,
        label=label,
        total=sum(r.total for r in rows) / n,
        stall=sum(r.stall for r in rows) / n,
        measured=sum(r.measured for r in rows) / n,
    )


# ----------------------------------------------------------------------
# Table 1 — benchmark stride statistics
# ----------------------------------------------------------------------


def table1(ctx: ExperimentContext | None = None) -> list[dict]:
    """Dynamic stride percentages (S / SG / SO) per benchmark."""
    names = ctx.names() if ctx is not None else tuple(PAPER_TABLE1)
    rows: list[dict] = []
    for name in names:
        bench = build(name)
        total = strided = good = other = 0
        for spec in bench.loops:
            weight = spec.loop.trip_count * spec.invocations
            s, g, o = stride.dynamic_stride_stats(spec.loop)
            m = stride.total_memory_ops(spec.loop)
            total += m * weight
            strided += s * weight
            good += g * weight
            other += o * weight
        paper = PAPER_TABLE1[name]
        rows.append(
            {
                "benchmark": name,
                "S": 100.0 * strided / total if total else 0.0,
                "SG": 100.0 * good / total if total else 0.0,
                "SO": 100.0 * other / total if total else 0.0,
                "paper_S": paper[0],
                "paper_SG": paper[1],
                "paper_SO": paper[2],
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — configuration parameters
# ----------------------------------------------------------------------


def table2() -> list[tuple[str, str]]:
    cfg = l0_config(8)
    return [
        ("Number of clusters", f"{cfg.n_clusters} clusters working in lock-step mode"),
        (
            "Functional units",
            f"({cfg.int_units_per_cluster} integer + {cfg.mem_units_per_cluster} "
            f"memory + {cfg.fp_units_per_cluster} FP) per cluster",
        ),
        (
            "L0 buffers",
            # The paper's port count; the model does not limit L0 ports.
            f"{cfg.l0_latency} cycle latency + fully associative + "
            f"{cfg.subblock_bytes}-byte subblocks + 2 read/write ports",
        ),
        (
            "L1 cache",
            f"{cfg.l1_latency} cycles latency, {cfg.l1_assoc}-way set-associative "
            f"{cfg.l1_size // 1024}KB, {cfg.l1_block}-byte blocks, "
            f"{cfg.interleave_penalty} extra cycle for shift/interleave logic",
        ),
        ("L2 cache", f"{cfg.l2_latency} cycle latency, always hits"),
        (
            "Register buses",
            f"{cfg.n_buses} buses with {cfg.bus_latency}-cycle latency",
        ),
    ]


# ----------------------------------------------------------------------
# Figure 5 — execution time vs number of L0 entries
# ----------------------------------------------------------------------

FIG5_SIZES: tuple[int | None, ...] = (4, 8, 16, None)


def _size_label(entries: int | None) -> str:
    return f"{entries} entries" if entries is not None else "unbounded"


def fig5(
    ctx: ExperimentContext, sizes: tuple[int | None, ...] = FIG5_SIZES
) -> dict[str, list[NormalizedTime]]:
    """Normalized execution time for each L0 size (None = unbounded)."""
    return _normalized_series(
        ctx, {_size_label(entries): (l0_config(entries), None) for entries in sizes}
    )


# ----------------------------------------------------------------------
# Figure 6 — mapping mix, L0 hit rate, average unroll factor
# ----------------------------------------------------------------------


def fig6(ctx: ExperimentContext) -> list[dict]:
    names = ctx.names()
    results = ctx.session.run_many([ctx.request(name, l0_config(8)) for name in names])
    rows: list[dict] = []
    for name, result in zip(names, results):
        stats = result.memory_stats
        fills = stats.l0.linear_fills + stats.l0.interleaved_fills
        rows.append(
            {
                "benchmark": name,
                "linear_ratio": stats.l0.linear_fills / fills if fills else 1.0,
                "interleaved_ratio": (
                    stats.l0.interleaved_fills / fills if fills else 0.0
                ),
                "l0_hit_rate": stats.l0.hit_rate,
                "avg_unroll": result.average_unroll_factor,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 7 — L0 vs MultiVLIW vs word-interleaved
# ----------------------------------------------------------------------


def fig7(ctx: ExperimentContext) -> dict[str, list[NormalizedTime]]:
    interleaved = interleaved_config()
    return _normalized_series(
        ctx,
        {
            "8-entry L0 buffers": (l0_config(8), None),
            "MultiVLIW": (multivliw_config(), None),
            "Interleaved 1": (interleaved, ctx.options_with(interleaved_heuristic=1)),
            "Interleaved 2": (interleaved, ctx.options_with(interleaved_heuristic=2)),
        },
    )


# ----------------------------------------------------------------------
# Section 5.2 text experiments (ablations)
# ----------------------------------------------------------------------


def _ablation(
    ctx: ExperimentContext,
    names,
    config: MachineConfig,
    options: SimOptions,
    columns: tuple[str, str],
) -> list[dict]:
    """Each program's cycles on ``config`` under the context's options
    and under ``options`` (scalar residue included), and their ratio."""
    n = len(names)
    bases, results = _with_baselines(
        ctx,
        names,
        [ctx.request(name, config) for name in names]
        + [ctx.request(name, config, options) for name in names],
    )
    rows: list[dict] = []
    for name, base, plain, varied in zip(names, bases, results[:n], results[n:]):
        scalar = _scalar_cycles(name, base)
        plain_cycles = plain.total_cycles + scalar
        varied_cycles = varied.total_cycles + scalar
        rows.append(
            {
                "benchmark": name,
                columns[0]: plain_cycles,
                columns[1]: varied_cycles,
                "ratio": varied_cycles / plain_cycles,
            }
        )
    return rows


def ablation_all_candidates(ctx: ExperimentContext, entries: int = 4) -> list[dict]:
    """Selective (slack-based) vs mark-all candidate assignment.

    The paper: with 4-entry buffers, marking every candidate overflows
    the buffers and costs ~6% over the selective policy.
    """
    return _ablation(
        ctx,
        ctx.names(),
        l0_config(entries),
        ctx.options_with(all_candidates=True),
        ("selective", "all_candidates"),
    )


# ----------------------------------------------------------------------
# Scheduler-oracle comparison — II(SMS) vs II(exact) vs MII
# ----------------------------------------------------------------------


def _compare_one(job: tuple) -> dict:
    """Compile one (loop, config) pair with the exact backend (picklable
    module-level worker for the scheduler-comparison fan-out)."""
    benchmark, loop, config_label, config, options, cache_dir = job
    from ..pipeline.compilecache import compile_cached, get_compile_cache

    compiled = compile_cached(
        loop, config, options, cache=get_compile_cache(cache_dir)
    )
    meta = compiled.schedule.meta
    if meta["improved"]:
        verdict = "exact beats SMS"
    elif meta["fallback"]:
        verdict = "budget exhausted"
    elif meta["ii_sms"] <= meta["mii"]:
        verdict = "SMS optimal (== MII)"
    elif meta["proved_optimal"]:
        verdict = "SMS optimal (proved)"
    else:
        # Search came up dry, but the L0 protocol's sticky decisions make
        # refutation incomplete — don't print a proof that doesn't exist.
        verdict = "SMS not improved (policy-limited)"
    return {
        "benchmark": benchmark,
        "loop": loop.name,
        "config": config_label,
        "mii": meta["mii"],
        "ii_sms": meta["ii_sms"],
        "ii_exact": compiled.ii,
        "nodes": meta["nodes_explored"],
        "verdict": verdict,
    }


def scheduler_comparison(
    ctx: ExperimentContext, sizes: tuple[int | None, ...] = FIG5_SIZES
) -> list[dict]:
    """Per-loop II achieved by each scheduler backend, against MII.

    One ``scheduler="exact"`` compile per (loop, Figure-5 config)
    delivers all three numbers at once: the exact backend runs the SMS
    engine first (its fallback and upper bound), so ``schedule.meta``
    carries ``mii`` and ``ii_sms`` alongside the exact II.  The compile
    knobs (the exact node budget among them) are the context's
    ``compile_kwargs``.  Compiles go through the shared compile cache (so
    a following ``--scheduler exact`` evaluation run reuses every
    artifact produced here) and fan out across ``ctx.workers`` processes
    like every other experiment.
    """
    from ..pipeline.passes import CompileOptions
    from ..pipeline.executor import make_executor

    options = CompileOptions(**{**ctx.options.compile_kwargs, "scheduler": "exact"})
    cache_dir = ctx.options.compile_cache_dir
    jobs: list[tuple] = []
    for name in ctx.names():
        bench = build(name)
        for spec in bench.loops:
            for entries in sizes:
                label = _size_label(entries)
                jobs.append(
                    (name, spec.loop, label, l0_config(entries), options, cache_dir)
                )
    return make_executor(ctx.workers).map(jobs, fn=_compare_one)


def ablation_prefetch_distance(
    ctx: ExperimentContext, names: tuple[str, ...] = ("epicdec", "rasta")
) -> list[dict]:
    """Prefetching two subblocks ahead (paper: epicdec -12%, rasta -4%)."""
    options = ctx.options_with(prefetch_distance=2)
    chosen = [
        name
        for name in names
        if ctx.benchmarks is None or name in ctx.benchmarks
    ]
    return _ablation(ctx, chosen, l0_config(8), options, ("distance_1", "distance_2"))
