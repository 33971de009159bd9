"""CLI: regenerate any table or figure of the paper.

Examples::

    python -m repro.eval table1
    python -m repro.eval fig5
    python -m repro.eval fig5 --benchmarks g721dec jpegdec
    python -m repro.eval fig5 --scheduler exact
    python -m repro.eval schedcompare --benchmarks gsmenc
    python -m repro.eval all
"""

from __future__ import annotations

import argparse
import sys
import time

from ..pipeline import executor as pipeline_executor
from ..pipeline.passes import CompileOptions
from ..sim.runner import SimOptions
from ..workloads.mediabench import BENCHMARK_NAMES
from . import (
    ExperimentContext,
    ablation_all_candidates,
    ablation_prefetch_distance,
    fig5,
    fig6,
    fig7,
    render_ablation,
    render_fig5,
    render_fig6,
    render_fig7,
    render_sched_compare,
    render_table1,
    render_table2,
    scheduler_comparison,
    table1,
    table2,
)

EXPERIMENTS = (
    "table1",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "ablations",
    "schedcompare",
    "all",
)


def parse_sim_cap(text: str) -> int:
    """A ``--sim-cap`` that ``SimOptions`` accepts, so a bad value is a
    usage error before anything compiles."""
    try:
        return SimOptions(sim_cap=int(text)).sim_cap
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_exact_budget(text: str) -> int:
    """An ``--exact-budget`` node budget that ``CompileOptions`` accepts,
    so a bad value is a usage error before anything compiles."""
    try:
        return CompileOptions(exact_node_budget=int(text)).exact_node_budget
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=BENCHMARK_NAMES,
        default=None,
        metavar="NAME",
        help="restrict to a subset of the 13 benchmarks "
        f"({', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--sim-cap",
        type=parse_sim_cap,
        default=SimOptions().sim_cap,
        help="max kernel iterations simulated per loop invocation",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for benchmark fan-out (default serial; -1 = "
        "all cores); a crashed or wedged worker is replaced and its job "
        "retried, and results are byte-identical to serial",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist simulation results (pickled) under this directory",
    )
    parser.add_argument(
        "--compile-cache-dir",
        default=None,
        help="persist compile artifacts (pickled CompiledLoops) under this directory",
    )
    parser.add_argument(
        "--scheduler",
        choices=("sms", "exact"),
        default="sms",
        help="scheduler every loop compiles with "
        "(exact = branch-and-bound with SMS fallback)",
    )
    parser.add_argument(
        "--exact-budget",
        type=parse_exact_budget,
        default=None,
        help="node budget (placement trials) for the exact scheduler "
        "before it falls back to SMS",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    compile_kwargs = {}
    if args.exact_budget is not None:
        compile_kwargs["exact_node_budget"] = args.exact_budget
    options = SimOptions(
        sim_cap=args.sim_cap,
        scheduler=args.scheduler,
        compile_kwargs=compile_kwargs,
    )
    ctx = ExperimentContext(
        options=options,
        benchmarks=tuple(args.benchmarks) if args.benchmarks else None,
        workers=args.workers,
        cache_dir=args.cache_dir,
        compile_cache_dir=args.compile_cache_dir,
    )

    started = time.time()
    # "all" covers the paper's tables/figures; schedcompare is its own
    # (compile-only, exact-scheduler) report and runs only when asked.
    todo = (
        tuple(e for e in EXPERIMENTS if e not in ("all", "schedcompare"))
        if args.experiment == "all"
        else (args.experiment,)
    )
    for experiment in todo:
        if experiment == "table1":
            print(render_table1(table1(ctx)))
        elif experiment == "table2":
            print(render_table2(table2()))
        elif experiment == "fig5":
            print(render_fig5(fig5(ctx)))
        elif experiment == "fig6":
            print(render_fig6(fig6(ctx)))
        elif experiment == "fig7":
            print(render_fig7(fig7(ctx)))
        elif experiment == "schedcompare":
            print(render_sched_compare(scheduler_comparison(ctx)))
        elif experiment == "ablations":
            print(
                render_ablation(
                    ablation_all_candidates(ctx),
                    "Ablation: selective vs all-candidates L0 marking (4-entry)",
                    "selective",
                    "all_candidates",
                )
            )
            print()
            print(
                render_ablation(
                    ablation_prefetch_distance(ctx),
                    "Ablation: prefetch distance 1 vs 2 (epicdec, rasta)",
                    "distance_1",
                    "distance_2",
                )
            )
        print()
    session = ctx.session
    trailer = (
        f"[{time.time() - started:.1f}s, {session.simulations} simulations, "
        f"{session.cache_hits} cache hits"
    )
    if args.workers is not None and args.workers not in (0, 1):
        # Compilation and loop simulation happened inside worker
        # processes; this process's compile-cache and loop-memo counters
        # cannot reflect them, so don't print them.
        trailer += ", compile stats in workers]"
    else:
        from ..pipeline.compilecache import get_compile_cache

        compile_stats = get_compile_cache(args.compile_cache_dir).stats
        trailer += (
            f", {compile_stats.misses} compilations "
            f"({compile_stats.hits} compile-cache hits, "
            f"{compile_stats.disk_hits} from disk), "
            f"{pipeline_executor.LOOP_MEMO.stats.hits} loop simulations shared]"
        )
    print(trailer, file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
