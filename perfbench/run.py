"""Cold-sweep benchmark: one command, every metric, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 25 --trace 0

``--trace 0`` runs cold iterations of the workload back to back, each in
a fresh process with empty stores, while the next one is expected to end
within ``--seconds`` (always at least one), plus several set-up-only
processes.  It reports the end-to-end metrics as medians.  ``--trace 1``
runs one untraced and one traced iteration and reports the per-layer
metrics of the traced one, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every iteration ran and the output oracle found no mismatch.
See ``perfbench/BENCHMARK.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import probe  # noqa: E402

TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"

#: Workloads and metrics, by name and unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Timed set-up-only processes per untraced run (after one untimed
#: process that warms the bytecode cache).
SETUP_SAMPLES = 5

#: Every run ends within this many seconds of its start.
DEADLINE_S = 170.0


class IterationFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def machine_context() -> dict:
    """Where the numbers came from (context, not a metric)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
        # 2M multiply-adds, the same loop the speed probe times.
        "calibration_s": sum(probe.loop() for _ in range(400)),
    }


def _child(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Run one fresh benchmark process; returns its JSON result line."""
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    cmd = [
        sys.executable,
        "-m",
        "perfbench.cold",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--tmp",
        str(tmp),
        *flags,
        "--spawned",
    ]
    try:
        # The spawn timestamp is taken last, right before the fork.
        cmd.append(repr(time.monotonic()))
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
        )
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
            proc.communicate()
            raise IterationFailed(f"{workload}: iteration timed out") from None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
            except ProcessLookupError:
                pass
        lines = stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise IterationFailed(f"{workload}: iteration exited {proc.returncode}")
        return json.loads(lines[-1])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run_untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple:
    setups = []
    _child(workload, seed, deadline, "--setup-only")  # warms the bytecode cache
    for _ in range(SETUP_SAMPLES):
        setups.append(_child(workload, seed, deadline, "--setup-only")["setup_s"])
    start = time.monotonic()
    iterations = []
    while True:
        t0 = time.monotonic()
        iterations.append(_child(workload, seed, deadline))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            break
    setups += [it["setup_s"] for it in iterations]
    metrics = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = setups if name == "setup_s" else [it[name] for it in iterations]
        metrics[name] = (statistics.median(values), metric["unit"])
    return iterations, metrics


def run_traced(workload: str, seed: int, deadline: float) -> tuple:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    plain = _child(workload, seed, deadline)
    traced = _child(workload, seed, deadline, "--trace", "--trace-out", str(trace_file))
    layer = dict(traced["layers"])
    layer["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return [plain, traced], {
        m["name"]: (layer[m["name"]], m["unit"]) for m in SPEC["per_layer"]
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="cold-sweep benchmark")
    workloads = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no program source under src/repro", file=sys.stderr)
        return 2
    context = machine_context()
    try:
        if args.trace:
            iterations, metrics = run_traced(args.workload, args.seed, deadline)
        else:
            iterations, metrics = run_untraced(
                args.workload, args.seed, args.seconds, deadline
            )
    except IterationFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    for it in iterations:
        for line in it["mismatches"]:
            print(f"mismatch: {line}")
    print(f"machine: {json.dumps(context)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(iterations)} iterations")
    for k, it in enumerate(iterations):
        print(
            f"  iteration {k}: wall_s={it['wall_s']:.4f} "
            f"(host {it['host_wall_s']:.4f}) setup_s={it['setup_s']:.4f} "
            f"(host {it['host_setup_s']:.4f}) "
            f"cpu_s={it['cpu_s']:.4f} peak_rss_mb={it['peak_rss_mb']:.1f} "
            f"ii_excess={it['ii_excess']} budget_fallbacks={it['budget_fallbacks']}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": context,
        "iterations": iterations,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
