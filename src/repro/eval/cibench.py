"""CI simulator-throughput gate: fast path vs reference interpreter.

``python -m repro.eval.cibench`` precompiles the fig5 smoke loops, then
executes them cold through the reference interpreter and the trace fast
path, alternating loop by loop over a few rounds.  Kernel
iterations/second over each loop's fastest run for both, plus their
ratio, land in ``BENCH_sim.json`` (the repo-root copy is the committed
baseline).  Absolute throughput is machine-bound, so the gate compares
*speedup ratios* and fails when the ratio lost more than
:data:`SIM_REGRESSION_TOLERANCE` of the baseline's.  It fails closed: a
baseline that is missing, unreadable, of another schema or recorded for
another workload fails too.  The new record is written either way.
(``perfbench/`` measures the paper's sweeps; this gate only the ratio.)
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from ..cache import parse_sim_cap
from ..isa.memory_access import MemoryLayout
from ..machine.config import l0_config, unified_config
from ..pipeline.cache import code_fingerprint
from ..scheduler.driver import compile_loop
from ..sim.executor import LoopExecutor
from ..sim.runner import make_memory
from ..sim.trace import TraceExecutor
from ..workloads.mediabench import BENCHMARK_NAMES, build

#: Schema of the BENCH_sim.json throughput record.
SIM_BENCH_SCHEMA_VERSION = 1

#: Allowed loss of the fast-over-reference speedup ratio before the
#: gate fails (>30% throughput regression, machine-normalized).
SIM_REGRESSION_TOLERANCE = 0.30

#: Timed rounds.  Each round runs every loop through the reference and
#: then the fast simulator, and each (loop, simulator) pair keeps its
#: fastest run, as ``timeit`` does: a cold run takes milliseconds, so a
#: load burst or collector pause inside a single run would otherwise
#: move the ratio by more than the regression tolerance.
SIM_BENCH_ROUNDS = 5


def _sim_bench_jobs(benchmarks: tuple[str, ...], sim_cap: int) -> list:
    """Precompiled (compiled, config, iterations) jobs — compilation
    stays outside the timed region, this is a *simulator* metric."""
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


def _load_baseline(
    path: Path, benchmarks: tuple[str, ...], sim_cap: int
) -> tuple[dict | None, str | None]:
    """The baseline record at ``path``, or why it cannot gate this run
    (ratios are only comparable over the same workload)."""
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        return None, f"no readable baseline at {path}"
    if not isinstance(record, dict):
        record = {}
    speedup = record.get("speedup")
    if (
        record.get("schema") != SIM_BENCH_SCHEMA_VERSION
        or not isinstance(speedup, (int, float))
        or not 0 < speedup < float("inf")  # NaN fails too
    ):
        return None, (
            f"baseline {path} is not a schema-{SIM_BENCH_SCHEMA_VERSION} record "
            "with a finite positive speedup"
        )
    if record.get("benchmarks") != list(benchmarks) or record.get("sim_cap") != sim_cap:
        return None, (
            f"baseline {path} was recorded for {record.get('benchmarks')} at sim "
            f"cap {record.get('sim_cap')}, not {list(benchmarks)} at {sim_cap}"
        )
    return record, None


def run_sim_bench(
    benchmarks: tuple[str, ...],
    sim_cap: int,
    *,
    baseline_path: str | Path,
) -> dict:
    """Measure reference vs fast-path simulator throughput (cold).

    Returns the ``BENCH_sim.json`` record.  ``failures`` is non-empty
    when the baseline at ``baseline_path`` cannot gate this run, or
    when the machine-normalized speedup regressed more than
    :data:`SIM_REGRESSION_TOLERANCE` against it.
    """
    baseline, refusal = _load_baseline(Path(baseline_path), benchmarks, sim_cap)
    ref_ips, fast_ips, iterations = _throughput(_sim_bench_jobs(benchmarks, sim_cap))
    speedup = fast_ips / ref_ips if ref_ips else float("inf")

    failures = [refusal] if refusal else []
    if baseline is not None:
        floor = baseline["speedup"] * (1.0 - SIM_REGRESSION_TOLERANCE)
        if speedup < floor:
            failures.append(
                f"simulator throughput regressed: fast path is {speedup:.2f}x "
                f"the reference interpreter, below {floor:.2f}x (baseline "
                f"{baseline['speedup']:.2f}x - {SIM_REGRESSION_TOLERANCE:.0%})"
            )
        baseline = {
            key: baseline.get(key)
            for key in ("speedup", "fast_iters_per_s", "code_fingerprint")
        }

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
        description="Fast-path vs reference simulator throughput; fails on a "
        "speedup regression or a baseline that cannot gate.",
    )
    parser.add_argument(
        "--sim-output",
        default="BENCH_sim.json",
        help="throughput record (read as the regression baseline, then "
        "overwritten with this run's record)",
    )
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        choices=BENCHMARK_NAMES,
        default=["g721dec", "jpegdec"],
        metavar="NAME",
        help=f"fig5 smoke subset, from {', '.join(BENCHMARK_NAMES)}",
    )
    parser.add_argument("--sim-cap", type=parse_sim_cap, default=150)
    args = parser.parse_args(argv)

    record = run_sim_bench(
        tuple(args.benchmarks), args.sim_cap, baseline_path=args.sim_output
    )
    Path(args.sim_output).write_text(json.dumps(record, indent=2) + "\n")
    print(
        f"[sim bench: reference {record['reference_iters_per_s']:,.0f} it/s, "
        f"fast {record['fast_iters_per_s']:,.0f} it/s, "
        f"speedup {record['speedup']:.2f}x -> {args.sim_output}]",
        file=sys.stderr,
    )
    for failure in record["failures"]:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if record["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
