"""Chaos drill: prove the sweep service's fault-tolerance claims.

The drill is an executable argument, not a demo.  It runs the same
request grid three ways and asserts the service's contract end to end:

* **Phase 0 (baseline)** — every request simulated serially in-process,
  no store, no faults.  The canonical fingerprints of these results are
  the ground truth everything else must match byte for byte.
* **Phase 1 (chaos)** — N concurrent clients sweep overlapping
  orderings of the grid through one service with a seeded
  :class:`FaultPlan`: at least one worker SIGKILLed mid-job, one wedged
  (silent hang), one store write torn.  Asserts: every client converges
  to the baseline fingerprints, zero duplicate simulations, coalescing
  actually occurred, each fault kind both fired and was recovered from.
  Then a store ``verify`` must find exactly the torn entries, and a
  fresh no-fault re-sweep must re-execute exactly those keys (a corrupt
  entry is a miss, never a crash or a stale read).
* **Phase 2 (resume)** — a child server process is hard-killed
  (``os._exit``) after K completions mid-sweep; the parent reloads the
  journaled checkpoint, rebuilds the request list from its spec, and
  re-runs: only the jobs missing from the store execute, duplicates
  stay zero, and the union still matches the baseline.

Determinism: faults are planned from a seed, backoff jitter is
key-derived, and the simulator itself is deterministic — so a red drill
reproduces under the same seed.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import tempfile
import time
from pathlib import Path

from ..pipeline.cache import ResultCache, result_fingerprint
from ..pipeline.executor import execute_request
from .checkpoint import SweepCheckpoint
from .faults import FaultPlan
from .retry import RetryPolicy
from .server import SweepService, requests_from_spec, run_sweep, sweep_spec

#: Retry/heartbeat tuning for drills: fast heartbeats so a wedged
#: worker is caught in ~a second, generous per-attempt deadline so a
#: legitimate compile+simulate never trips it, quick backoff.
DRILL_POLICY = RetryPolicy(
    max_attempts=4,
    timeout_s=120.0,
    heartbeat_timeout_s=1.5,
    heartbeat_interval_s=0.05,
    base_delay_s=0.05,
    max_delay_s=0.5,
)

HANG_SECONDS = 4.0  # must exceed heartbeat_timeout_s


def _fingerprints(requests, results_by_key) -> dict[str, str]:
    return {
        r.key: result_fingerprint(results_by_key[r.key])
        for r in requests
        if r.key in results_by_key
    }


def _wait_store_quiet(
    store_dir: Path, *, quiet_s: float = 1.0, timeout_s: float = 60.0
) -> None:
    """Block until the store stops changing: orphaned workers of a
    killed server finish their in-flight store writes on their own
    schedule, and the resume math needs a settled directory."""
    deadline = time.monotonic() + timeout_s
    last = None
    quiet_since = time.monotonic()
    while time.monotonic() < deadline:
        snapshot = tuple(
            sorted(
                (str(p), p.stat().st_size)
                for p in store_dir.rglob("*")
                if p.is_file()
            )
        )
        now = time.monotonic()
        if snapshot != last:
            last = snapshot
            quiet_since = now
        elif now - quiet_since >= quiet_s:
            return
        time.sleep(0.05)


async def _chaos_sweep(requests, *, store_dir, workers, clients, faults):
    """N concurrent clients fetch overlapping orderings of one grid
    through a single faulted service; returns (service, per-client
    result dicts)."""
    async with SweepService(
        store_dir=store_dir,
        workers=workers,
        policy=DRILL_POLICY,
        faults=faults,
        degrade=False,  # recovery must be byte-identical, never a swap
    ) as service:

        async def client(ordinal: int) -> dict[str, object]:
            rotated = requests[ordinal:] + requests[:ordinal]
            out = {}
            for request in rotated:
                out[request.key] = await service.fetch(request)
            return out

        per_client = await asyncio.gather(
            *(client(i % len(requests)) for i in range(clients))
        )
        stats = service.supervisor.stats
        summary = {
            "coalesced": service.coalesced,
            "cache_hits": service.cache_hits,
            "supervisor": stats.to_json(),
        }
    return summary, per_client


def _resume_child(spec, store_dir, checkpoint_path, workers, exit_after) -> None:
    """Child-process server for phase 2: dies via os._exit mid-sweep."""
    asyncio.run(
        run_sweep(
            spec,
            store_dir=store_dir,
            checkpoint_path=checkpoint_path,
            workers=workers,
            policy=DRILL_POLICY,
            degrade=False,
            exit_after=exit_after,
        )
    )


def run_drill(
    *,
    seed: int = 0,
    workers: int = 3,
    clients: int = 4,
    benchmarks=("g721dec", "gsmdec"),
    grid: str = "fig5",
    sim_cap: int = 60,
    kills: int = 1,
    hangs: int = 1,
    truncates: int = 1,
    phases=("chaos", "resume"),
    out_dir: str | Path | None = None,
) -> dict:
    """Run the drill; returns a JSON-able report with ``report["ok"]``.

    Every failed assertion lands in ``report["failures"]`` (the drill
    runs to completion rather than stopping at the first red check, so
    one CI run shows the whole picture).
    """
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    cleanup = None
    if out_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-drill-")
        out_dir = cleanup.name
    out_dir = Path(out_dir)
    report: dict = {
        "params": {
            "seed": seed,
            "workers": workers,
            "clients": clients,
            "benchmarks": list(benchmarks),
            "grid": grid,
            "sim_cap": sim_cap,
            "faults": {"kills": kills, "hangs": hangs, "truncates": truncates},
            "phases": list(phases),
        },
        "failures": failures,
    }
    try:
        spec = sweep_spec(
            benchmarks,
            grid,
            sim_cap=sim_cap,
            compile_cache_dir=str(out_dir / "compile-cache"),
        )
        requests = requests_from_spec(spec)
        total = len(requests)
        report["params"]["total_jobs"] = total

        # -- phase 0: serial ground truth --------------------------------
        baseline = {r.key: execute_request(r) for r in requests}
        truth = _fingerprints(requests, baseline)
        report["baseline"] = {"jobs": total}

        if "chaos" in phases:
            plan = FaultPlan.generate(
                seed,
                total,
                kills=kills,
                hangs=hangs,
                truncates=truncates,
                hang_seconds=HANG_SECONDS,
            )
            store_dir = out_dir / "chaos-store"
            summary, per_client = asyncio.run(
                _chaos_sweep(
                    requests,
                    store_dir=store_dir,
                    workers=workers,
                    clients=clients,
                    faults=plan,
                )
            )
            stats = summary["supervisor"]
            report["chaos"] = {"plan": plan.to_json(), **summary}
            for i, results in enumerate(per_client):
                got = _fingerprints(requests, results)
                check(
                    got == truth,
                    f"chaos: client {i} results differ from serial baseline",
                )
            check(
                stats["duplicate_simulations"] == 0,
                f"chaos: {stats['duplicate_simulations']} duplicate simulations",
            )
            check(summary["coalesced"] > 0, "chaos: no requests were coalesced")
            check(stats["crashes"] >= kills, "chaos: kill fault not observed")
            check(stats["hung"] >= hangs, "chaos: hang fault not observed")
            check(
                stats["restarts"] >= kills + hangs,
                "chaos: workers were not restarted",
            )
            check(not stats["dead"], f"chaos: dead letters: {stats['dead']}")

            # Torn store writes: verify must find exactly them, and a
            # fresh sweep must re-run exactly them.
            verify = ResultCache(store_dir).verify()
            report["chaos"]["verify"] = {
                "ok": verify.ok,
                "corrupt": list(verify.corrupt),
            }
            check(
                len(verify.corrupt) == truncates,
                f"chaos: verify found {len(verify.corrupt)} corrupt entries, "
                f"expected {truncates}",
            )
            resweep = asyncio.run(
                run_sweep(
                    spec,
                    store_dir=store_dir,
                    workers=workers,
                    policy=DRILL_POLICY,
                    degrade=False,
                )
            )
            report["chaos"]["resweep"] = resweep.to_json()
            check(
                resweep.executed == len(verify.corrupt),
                f"chaos: re-sweep executed {resweep.executed} jobs, expected "
                f"exactly the {len(verify.corrupt)} dropped-corrupt keys",
            )
            check(
                resweep.duplicate_simulations == 0,
                "chaos: re-sweep produced duplicate simulations",
            )
            check(
                _fingerprints(requests, resweep.results) == truth,
                "chaos: re-sweep results differ from serial baseline",
            )

        if "resume" in phases:
            store_dir = out_dir / "resume-store"
            checkpoint_path = out_dir / "resume-checkpoint.json"
            exit_after = max(2, total // 3)
            check(
                exit_after < total,
                f"resume: grid too small to kill mid-sweep ({total} jobs)",
            )
            ctx = multiprocessing.get_context("fork")
            child = ctx.Process(
                target=_resume_child,
                args=(spec, str(store_dir), str(checkpoint_path), workers, exit_after),
            )
            child.start()
            child.join(timeout=300)
            if child.is_alive():
                child.kill()
                child.join()
                check(False, "resume: child server never exited")
            check(
                child.exitcode == 42,
                f"resume: child exited {child.exitcode}, expected the "
                "simulated crash (42)",
            )
            _wait_store_quiet(store_dir)
            survived = ResultCache(store_dir).verify()
            check(not survived.corrupt, "resume: store corrupt after crash")
            ckpt = SweepCheckpoint.load(checkpoint_path)
            check(ckpt is not None, "resume: checkpoint missing after crash")
            if ckpt is not None:
                check(
                    ckpt.spec == spec,
                    "resume: checkpoint spec does not round-trip",
                )
            resumed = asyncio.run(
                run_sweep(
                    (ckpt.spec if ckpt is not None else spec),
                    store_dir=store_dir,
                    checkpoint_path=checkpoint_path,
                    workers=workers,
                    policy=DRILL_POLICY,
                    degrade=False,
                )
            )
            report["resume"] = {
                "exit_after": exit_after,
                "store_entries_after_crash": survived.ok,
                "resumed": resumed.to_json(),
            }
            check(
                resumed.executed == total - survived.ok,
                f"resume: executed {resumed.executed} jobs, expected only "
                f"the {total - survived.ok} not already in the store",
            )
            check(
                resumed.duplicate_simulations == 0,
                "resume: duplicate simulations on resume",
            )
            check(not resumed.dead, "resume: dead letters on resume")
            check(
                _fingerprints(requests, resumed.results) == truth,
                "resume: resumed results differ from serial baseline",
            )
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    report["ok"] = not failures
    return report
