"""CI perf-regression bench: timed cold vs warm smoke evals.

``python -m repro.eval.cibench`` runs the smoke evaluation workload
twice against one pair of (initially empty) cache directories:

* **cold** — every result is simulated, every loop compiled; times the
  full pipeline and populates the stores;
* **warm** — a fresh session over the same directories; on an unchanged
  tree every result must come back from the disk stores with **zero**
  simulations, and the figures must be byte-identical to the cold run.

The summary — wall-clock per experiment and phase, simulation counts,
result/compile cache hit/miss counters — is written as versioned JSON
(``BENCH_ci.json``) for the CI workflow to upload as an artifact, and
the process exits non-zero if the warm run simulated anything or
reproduced different figures: that is the cache-regression tripwire.

The workload is the fig5 smoke subset plus (optionally) the
``schedcompare`` exact-scheduler oracle on one benchmark, mirroring the
CI smoke steps.

A third lane measures **simulator throughput**: the fig5 smoke loops
are precompiled, then executed cold through the reference interpreter
and the trace fast path, alternating loop by loop over a few rounds;
kernel iterations/second over each loop's fastest run for both plus
their ratio land in ``BENCH_sim.json``
(the repo-root copy is the committed baseline).  Absolute throughput
is machine-bound, so the regression gate compares *speedup ratios* —
fast-over-reference now vs the baseline's — and fails the lane when
the ratio lost more than :data:`SIM_REGRESSION_TOLERANCE` of its value.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

from ..cache import parse_sim_cap
from ..isa.memory_access import MemoryLayout
from ..machine.config import l0_config, unified_config
from ..pipeline.cache import code_fingerprint
from ..pipeline.compilecache import drop_compile_cache, get_compile_cache
from ..scheduler.driver import compile_loop
from ..sim.executor import LoopExecutor
from ..sim.runner import SimOptions, make_memory
from ..sim.trace import TraceExecutor
from ..workloads.mediabench import build
from .experiments import ExperimentContext, fig5, scheduler_comparison

#: Schema of the emitted summary; bump when the layout changes so
#: downstream tooling can detect what it is reading.
BENCH_SCHEMA_VERSION = 2  # v2: no frontend_* compile counters

#: Schema of the BENCH_sim.json throughput record.
SIM_BENCH_SCHEMA_VERSION = 1

#: Allowed loss of the fast-over-reference speedup ratio before the
#: perf lane fails (>30% throughput regression, machine-normalized).
SIM_REGRESSION_TOLERANCE = 0.30

#: Timed rounds in the throughput lane.  Each round runs every loop
#: through the reference and then the fast simulator, and each
#: (loop, simulator) pair keeps its fastest run, as ``timeit`` does: a
#: cold run takes milliseconds, so a load burst or collector pause
#: inside a single run would otherwise move the ratio by more than the
#: regression tolerance.
SIM_BENCH_ROUNDS = 5


def _compile_counters(cache_dir: str | None) -> dict:
    stats = get_compile_cache(cache_dir).stats
    return {
        "compilations": stats.misses,
        "full_hits": stats.hits,
        "full_disk_hits": stats.disk_hits,
    }


def _run_phase(
    root: Path,
    benchmarks: tuple[str, ...],
    sched_benchmarks: tuple[str, ...],
    sim_cap: int,
) -> tuple[dict, dict]:
    """One timed pass over the workload; returns (summary, figures)."""
    result_dir = str(root / "result-cache")
    compile_dir = str(root / "compile-cache")
    # Drop the process-wide instance so this phase starts with empty
    # memory: the warm pass must re-read the *disk* stores, or a broken
    # persistence layer would hide behind in-process memory hits.
    drop_compile_cache(compile_dir)
    before = _compile_counters(compile_dir)
    timings: dict[str, float] = {}
    figures: dict[str, object] = {}

    started = time.perf_counter()
    ctx = ExperimentContext(
        options=SimOptions(sim_cap=sim_cap),
        benchmarks=benchmarks,
        cache_dir=result_dir,
        compile_cache_dir=compile_dir,
    )
    t0 = time.perf_counter()
    figures["fig5"] = fig5(ctx)
    timings["fig5_s"] = time.perf_counter() - t0
    simulations = ctx.session.simulations
    cache_hits = ctx.session.cache_hits

    if sched_benchmarks:
        sched_ctx = ExperimentContext(
            options=SimOptions(sim_cap=sim_cap),
            benchmarks=sched_benchmarks,
            cache_dir=result_dir,
            compile_cache_dir=compile_dir,
        )
        t0 = time.perf_counter()
        figures["schedcompare"] = scheduler_comparison(sched_ctx)
        timings["schedcompare_s"] = time.perf_counter() - t0
        # Fold this session's counters in too: the zero-simulations
        # tripwire must cover every session the phase ran, not just
        # fig5's (schedcompare is compile-only today, but a future
        # simulating workload must not slip past the check).
        simulations += sched_ctx.session.simulations
        cache_hits += sched_ctx.session.cache_hits

    after = _compile_counters(compile_dir)
    summary = {
        "wall_s": time.perf_counter() - started,
        "timings": {k: round(v, 3) for k, v in timings.items()},
        "simulations": simulations,
        "result_cache_hits": cache_hits,
        "compile": {k: after[k] - before[k] for k in after},
    }
    return summary, figures


def _sim_bench_jobs(benchmarks: tuple[str, ...], sim_cap: int) -> list:
    """Precompiled (compiled, config, iterations) jobs for the throughput
    lane — compilation stays outside the timed region, this is a
    *simulator* metric."""
    jobs = []
    for name in benchmarks:
        bench = build(name)
        for config in (unified_config(), l0_config(8)):
            for spec in bench.loops:
                compiled = compile_loop(spec.loop, config)
                jobs.append((compiled, config, min(spec.loop.trip_count, sim_cap)))
    return jobs


def _run_seconds(job, make_exec) -> float:
    """Wall time of one cold run: fresh memory, executor and trace."""
    compiled, config, iterations = job
    compiled.static_trace = None
    started = time.perf_counter()
    memory = make_memory(config)
    executor = make_exec(compiled, memory, MemoryLayout(align=config.l1_block))
    executor.run(iterations)
    return time.perf_counter() - started


def _throughput(jobs) -> tuple[float, float, int]:
    """(reference, fast) kernel iterations per second, and iterations,
    over each job's fastest cold run per simulator."""
    ref = [float("inf")] * len(jobs)
    fast = [float("inf")] * len(jobs)
    for _ in range(SIM_BENCH_ROUNDS):
        for k, job in enumerate(jobs):
            ref[k] = min(ref[k], _run_seconds(job, LoopExecutor))
            fast[k] = min(fast[k], _run_seconds(job, TraceExecutor))
    total = sum(iterations for _, _, iterations in jobs)
    ref_s, fast_s = sum(ref), sum(fast)
    return (
        total / ref_s if ref_s else float("inf"),
        total / fast_s if fast_s else float("inf"),
        total,
    )


def run_sim_bench(
    benchmarks: tuple[str, ...],
    sim_cap: int,
    *,
    baseline_path: str | Path | None = None,
) -> dict:
    """Measure reference vs fast-path simulator throughput (cold).

    Returns the ``BENCH_sim.json`` record; ``failures`` is non-empty
    when the machine-normalized speedup regressed more than
    :data:`SIM_REGRESSION_TOLERANCE` against the recorded baseline.
    """
    jobs = _sim_bench_jobs(benchmarks, sim_cap)
    ref_ips, fast_ips, iterations = _throughput(jobs)
    speedup = fast_ips / ref_ips if ref_ips else float("inf")

    failures: list[str] = []
    baseline: dict | None = None
    if baseline_path is not None and Path(baseline_path).exists():
        try:
            candidate = json.loads(Path(baseline_path).read_text())
        except (OSError, ValueError):
            candidate = None
        if (
            isinstance(candidate, dict)
            and candidate.get("schema") == SIM_BENCH_SCHEMA_VERSION
            and candidate.get("speedup")
        ):
            # Ratios are only comparable over the same workload: a
            # baseline recorded for different benchmarks or sim cap is
            # reported but never gated against.
            same_workload = candidate.get("benchmarks") == list(
                benchmarks
            ) and candidate.get("sim_cap") == sim_cap
            baseline = {
                "speedup": candidate["speedup"],
                "fast_iters_per_s": candidate.get("fast_iters_per_s"),
                "code_fingerprint": candidate.get("code_fingerprint"),
                "workload_match": same_workload,
            }
            floor = candidate["speedup"] * (1.0 - SIM_REGRESSION_TOLERANCE)
            if same_workload and speedup < floor:
                failures.append(
                    f"simulator throughput regressed: fast path is {speedup:.2f}x "
                    f"the reference interpreter, below {floor:.2f}x (baseline "
                    f"{candidate['speedup']:.2f}x - {SIM_REGRESSION_TOLERANCE:.0%})"
                )

    return {
        "schema": SIM_BENCH_SCHEMA_VERSION,
        "code_fingerprint": code_fingerprint(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": list(benchmarks),
        "sim_cap": sim_cap,
        "iterations": iterations,
        "reference_iters_per_s": round(ref_ips, 1),
        "fast_iters_per_s": round(fast_ips, 1),
        "speedup": round(speedup, 3),
        "baseline": baseline,
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.cibench",
        description="Timed cold/warm smoke evals; fails on warm-run "
        "simulations or figure drift.",
    )
    parser.add_argument("--output", default="BENCH_ci.json")
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=["g721dec", "jpegdec"],
        help="fig5 smoke subset",
    )
    parser.add_argument(
        "--sched-benchmarks",
        nargs="*",
        default=["gsmenc"],
        help="schedcompare subset (empty list disables the oracle pass)",
    )
    parser.add_argument("--sim-cap", type=parse_sim_cap, default=150)
    parser.add_argument(
        "--root",
        default=None,
        help="cache-directory root (default: a fresh temp dir, deleted "
        "afterwards, so the cold pass is genuinely cold)",
    )
    parser.add_argument(
        "--sim-output",
        default="BENCH_sim.json",
        help="simulator-throughput record (also read as the regression "
        "baseline before being overwritten; empty string disables the "
        "throughput lane)",
    )
    args = parser.parse_args(argv)

    owns_root = args.root is None
    root = Path(args.root) if args.root else Path(tempfile.mkdtemp(prefix="cibench-"))
    root.mkdir(parents=True, exist_ok=True)
    try:
        phases: dict[str, dict] = {}
        all_figures: dict[str, dict] = {}
        for phase in ("cold", "warm"):
            summary, figures = _run_phase(
                root,
                tuple(args.benchmarks),
                tuple(args.sched_benchmarks),
                args.sim_cap,
            )
            phases[phase] = summary
            all_figures[phase] = figures
            print(
                f"[{phase}: {summary['wall_s']:.1f}s, "
                f"{summary['simulations']} simulations, "
                f"{summary['result_cache_hits']} result-cache hits, "
                f"{summary['compile']['compilations']} compilations]",
                file=sys.stderr,
            )

        sim_bench: dict | None = None
        if args.sim_output:
            sim_bench = run_sim_bench(
                tuple(args.benchmarks), args.sim_cap, baseline_path=args.sim_output
            )
            Path(args.sim_output).write_text(json.dumps(sim_bench, indent=2) + "\n")
            print(
                f"[sim bench: reference {sim_bench['reference_iters_per_s']:,.0f} "
                f"it/s, fast {sim_bench['fast_iters_per_s']:,.0f} it/s, "
                f"speedup {sim_bench['speedup']:.2f}x -> {args.sim_output}]",
                file=sys.stderr,
            )

        figures_identical = all_figures["cold"] == all_figures["warm"]
        failures = []
        if sim_bench is not None:
            failures.extend(sim_bench["failures"])
        if phases["warm"]["simulations"]:
            failures.append(
                f"warm run simulated {phases['warm']['simulations']} requests "
                "(expected 0: every result must come from the store)"
            )
        if phases["warm"]["compile"]["compilations"]:
            failures.append(
                f"warm run compiled {phases['warm']['compile']['compilations']} "
                "loops (expected 0: every artifact must come from the store)"
            )
        if not figures_identical:
            failures.append("warm-run figures differ from the cold run")

        report = {
            "schema": BENCH_SCHEMA_VERSION,
            "code_fingerprint": code_fingerprint(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "benchmarks": args.benchmarks,
            "sched_benchmarks": args.sched_benchmarks,
            "sim_cap": args.sim_cap,
            "phases": phases,
            "figures_identical": figures_identical,
            "sim_bench": sim_bench,
            "failures": failures,
        }
        Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
        print(f"[summary written to {args.output}]", file=sys.stderr)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
