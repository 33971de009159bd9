"""One cold iteration of a workload, in a fresh process.

Run by ``perfbench/run.py``, never by hand::

    PYTHONPATH=.:src python3 -m perfbench.cold --workload fig5-serial \
        --seed 1 --spawned <CLOCK_MONOTONIC at spawn> --tmp DIR

Cold means: a new interpreter, an empty process-wide compile cache, and
empty result and compile stores under ``--tmp``.  The last line of
standard output is one JSON object with the iteration's measurements
and the oracle's verdict.
"""

from __future__ import annotations

from perfbench import probe

#: Started first thing, so set-up is probed too (densely: it is short).
PROBE = probe.Probe()
PROBE.start(0.01)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import layers, oracle  # noqa: E402

#: Probe interval while the experiment runs.
RUN_PROBE_S = 0.05

#: Workload -> (experiment, ExperimentContext.workers).
_SPEC = {
    "fig5-serial": ("fig5", None),
    "fig7-serial": ("fig7", None),
    "schedcompare": ("schedcompare", None),
    "fig5-workers2": ("fig5", 2),
}


def program_order(seed: int) -> tuple[str, ...]:
    """The paper's 13 programs in a seed-chosen order.

    The suite is fixed; the seed only permutes the order in which the
    programs are requested (and so the order of store writes and of
    pool dispatch).  Every figure cell is content-addressed, so the
    order cannot change an output.
    """
    from repro.workloads.mediabench import PAPER_TABLE1

    names = list(PAPER_TABLE1)
    random.Random(seed).shuffle(names)
    return tuple(names)


def _vm_hwm_mb(pid: int | str) -> float:
    """Peak resident set of a live process, from ``/proc``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def schedule_quality(rows) -> dict:
    """``ii_excess`` and ``budget_fallbacks`` of schedcompare rows."""
    return {
        "ii_excess": sum(r["ii_exact"] - r["mii"] for r in rows),
        "budget_fallbacks": sum(r["verdict"] == "budget exhausted" for r in rows),
    }


def _results(ctx) -> list:
    """Every ProgramResult the run stored (served from session memory)."""
    cache = ctx.session.cache
    return [cache.get(key) for key in sorted(cache.store.entries())]


def layer_metrics(rec: layers.Recorder, workers: layers.Recorder, extra: dict) -> dict:
    """The per-layer metrics of a traced iteration.

    ``rec`` holds this process's spans, ``workers`` the pool workers'
    (empty for serial workloads); times and counts are summed over both.
    ``extra`` carries what the spans do not: the iteration's wall time,
    the set-up build time, and the run's results and schedcompare rows.
    """
    both = layers.Recorder()
    both.merge(rec.snapshot())
    both.merge(workers.snapshot())
    totals, counters = both.totals, both.counters

    def calls(name):
        return totals.get(name, [0])[0]

    def incl(name):
        return totals.get(name, [0, 0.0])[1]

    def own(name):
        return totals.get(name, [0, 0.0, 0.0])[2]

    mem = ("memory.unified", "memory.multivliw", "memory.interleaved")
    memory_calls = sum(calls(n) for n in mem)
    memory_s = sum(incl(n) for n in mem)
    results = extra["results"]
    rows = extra["rows"]
    modelled = sum(loop.total_iterations for r in results for loop in r.loops)
    interpreted = sum(loop.simulated_iterations for r in results for loop in r.loops)
    runs = calls("sim.run")
    frontend_passes = list(layers.PASS_LAYERS.values()).count("frontend")
    map_s = incl("executor.map")
    worker_cpu = counters.get("executor.worker_cpu_s", 0.0)
    n_workers = counters.get("executor.workers", 0)
    wall = extra["wall_s"]
    l0_stats = [r.memory_stats.l0 for r in results if hasattr(r.memory_stats, "l0")]
    return {
        "workloads.build_s": extra["build_s"],
        "compile.calls": calls("compile"),
        "compile.s": incl("compile"),
        "compile.full_misses": counters.get("compile.full_misses", 0),
        "compile.frontend_hits": counters.get("compile.frontend_hits", 0),
        "compile.frontend_misses": counters.get("compile.frontend_misses", 0),
        "frontend.runs": calls("frontend") // frontend_passes,
        "frontend.s": incl("frontend"),
        "scheduler.policy_s": incl("scheduler.policy"),
        "scheduler.sms_s": incl("scheduler.sms"),
        "scheduler.exact_s": incl("scheduler.exact"),
        "scheduler.exact_nodes": sum(r["nodes"] for r in rows),
        **schedule_quality(rows),
        "sim.plan_s": incl("sim.plan"),
        "sim.trace_build_s": incl("sim.trace_build"),
        "sim.stitch_s": incl("sim.stitch"),
        "sim.runs": runs,
        "sim.run_s": incl("sim.run"),
        "sim.run_self_s": own("sim.run"),
        "sim.iters_modelled": modelled,
        "sim.iters_interpreted": interpreted,
        "sim.interpreted_frac": interpreted / modelled if modelled else 0.0,
        "sim.converged_frac": (
            counters.get("sim.converged_runs", 0) / runs if runs else 0.0
        ),
        "sim.us_per_iter": 1e6 * incl("sim.run") / interpreted if interpreted else 0.0,
        "memory.calls": memory_calls,
        "memory.s": memory_s,
        "memory.self_s": sum(own(n) for n in mem),
        "memory.ns_per_call": 1e9 * memory_s / memory_calls if memory_calls else 0.0,
        "memory.unified_s": incl("memory.unified"),
        "memory.multivliw_s": incl("memory.multivliw"),
        "memory.interleaved_s": incl("memory.interleaved"),
        "l0.calls": calls("l0"),
        "l0.s": incl("l0"),
        "l1.s": incl("l1"),
        "bus.s": incl("bus"),
        "bus.grants": calls("bus"),
        "l0.hits": sum(s.hits for s in l0_stats),
        "l0.misses": sum(s.misses for s in l0_stats),
        "model.stall_cycles": sum(r.stall_cycles for r in results),
        "store.saves": calls("store.save"),
        "store.save_s": incl("store.save"),
        "store.loads": calls("store.load"),
        "store.load_s": incl("store.load"),
        "store.bytes": counters.get("store.bytes", 0),
        "executor.jobs": counters.get("executor.jobs", 0),
        "executor.map_s": map_s,
        "executor.worker_cpu_s": worker_cpu,
        "executor.utilization": (
            worker_cpu / (n_workers * map_s) if n_workers and map_s else 0.0
        ),
        "other_s": own(layers.Recorder.ROOT),
        "trace.wall_s": wall,
        "trace.self_sum_frac": sum(rec.self_times().values()) / wall,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="one cold benchmark iteration")
    parser.add_argument("--workload", choices=sorted(_SPEC), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    experiment, n_workers = _SPEC[args.workload]

    rec = layers.Recorder()
    workers = layers.Recorder()
    undo = layers.install(rec, workers) if args.trace else []

    from repro.eval.experiments import (
        ExperimentContext,
        fig5,
        fig7,
        scheduler_comparison,
    )
    from repro.workloads import mediabench

    names = program_order(args.seed)
    for name in names:
        mediabench.build(name)
    compile_dir = args.tmp / "compile"
    ctx = ExperimentContext(
        benchmarks=names,
        workers=n_workers,
        cache_dir=args.tmp / "results",
        compile_cache_dir=compile_dir,
    )
    host_setup_s = time.monotonic() - args.spawned
    setup_probes = PROBE.take()
    out = {
        "setup_s": host_setup_s * probe.scale(setup_probes),
        "host_setup_s": host_setup_s,
        "setup_probes": len(setup_probes),
    }
    if args.setup_only:
        PROBE.stop()
        print(json.dumps(out))
        return

    build_s = rec.totals.get("workloads.build", [0, 0.0])[1]
    PROBE.start(RUN_PROBE_S)
    if n_workers:
        PROBE.follow_forks(args.tmp, RUN_PROBE_S)
    rec.reset()
    cpu0 = _cpu_s()
    stats0 = layers.compile_stats(compile_dir)
    run = {"fig5": fig5, "fig7": fig7, "schedcompare": scheduler_comparison}[experiment]
    t0 = time.perf_counter()
    figures = run(ctx)
    host_wall_s = time.perf_counter() - t0
    if args.trace:
        rec.close_root()
        layers.uninstall(undo)
    PROBE.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    peak_mb += sum(_vm_hwm_mb(p.pid) for p in multiprocessing.active_children())
    shutdown = getattr(ctx.session.executor, "shutdown", None)
    if shutdown is not None:
        shutdown()  # reap pool workers so their CPU time is counted
    host_cpu_s = _cpu_s() - cpu0
    ctx.session.close()
    # With a pool, the work (and so the speed that matters) is the workers'.
    run_probes = probe.forked_samples(args.tmp) if n_workers else []
    run_probes = run_probes or PROBE.take()
    speed = probe.scale(run_probes)

    if experiment == "schedcompare":
        rows = figures
        attempted, mismatches = oracle.check_schedcompare(rows)
        results = []
    else:
        rows = []
        attempted, mismatches = oracle.check_figure(
            figures, oracle.load_reference()[experiment]
        )
        results = _results(ctx)

    out.update(
        wall_s=host_wall_s * speed,
        cpu_s=host_cpu_s * speed,
        peak_rss_mb=peak_mb,
        host_wall_s=host_wall_s,
        host_cpu_s=host_cpu_s,
        run_probes=len(run_probes),
        attempted=attempted,
        failed=len(mismatches),
        mismatches=mismatches[:20],
        **schedule_quality(rows),
    )
    if args.trace:
        stats1 = layers.compile_stats(compile_dir)
        for name, value in stats1.items():
            rec.count(name, value - stats0[name])
        out["layers"] = layer_metrics(
            rec,
            workers,
            {
                "wall_s": host_wall_s,
                "build_s": build_s,
                "results": results,
                "rows": rows,
            },
        )
        if args.trace_out is not None:
            args.trace_out.write_text(
                json.dumps(
                    {
                        "workload": args.workload,
                        "seed": args.seed,
                        "host_wall_s": host_wall_s,
                        "self_s": rec.self_times(),
                        "worker_self_s": workers.self_times(),
                        "spans": rec.spans,
                    }
                )
            )
    print(json.dumps(out))


if __name__ == "__main__":
    sys.exit(main())
