"""Job generation and differential execution for the fuzzing engine.

A :class:`FuzzJob` is one (kernel id, config name, check set) triple.
:func:`run_jobs` deduplicates jobs against the fuzz store, a
:class:`~repro.pipeline.cache.KeyedCache` keyed by
:func:`job_store_key` (clean *and* mismatching results are both
recorded — a second identical run re-simulates nothing), fans the
misses out through the pipeline's serial/process executors, and folds
everything into a :class:`FuzzReport` whose JSON rendering is what CI
gates on.

A store entry is the dict :func:`execute_job` returns.  Keys mix the
code fingerprint, so a store persisted across commits (CI's nightly
``actions/cache``) serves hits only while the tree is unchanged —
repeat nights skip already-clean jobs, and any source edit
invalidates everything it could have affected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..machine.config import MachineConfig
from ..machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from ..pipeline.cache import KeyedCache, _canonical, content_key
from ..pipeline.executor import make_executor
from .checks import CheckSkipped, FuzzOptions, run_check
from .corpus import resolve_kernel

#: Named machine configurations jobs draw from.  The defaults are
#: 4-cluster machines (cross-cluster traffic included); the ``*_2cl``
#: entries vary the cluster count, the rest sweep the paper's memory
#: architectures and L0 sizes.
FUZZ_CONFIGS: dict[str, MachineConfig] = {
    "unified": unified_config(),
    "unified_2cl": unified_config(n_clusters=2),
    "l0_4": l0_config(4),
    "l0_8": l0_config(8),
    "l0_8_2cl": l0_config(8, n_clusters=2),
    "l0_unbounded": l0_config(None),
    "multivliw": multivliw_config(),
    "interleaved": interleaved_config(),
}


def job_store_key(
    kernel_fingerprint: str, config, checks: tuple[str, ...], options
) -> str:
    """Content key of one fuzz job.

    Mixes the kernel's genotype fingerprint (not its id: a seed kernel
    and an identical committed repro share one entry), the canonical
    config, the check set, the check options and the code fingerprint.
    """
    return content_key(
        {
            "checks": sorted(checks),
            "config": _canonical(config),
            "kernel": kernel_fingerprint,
            "options": options.to_json(),
        }
    )


@dataclass(frozen=True)
class FuzzJob:
    """One unit of fuzzing work."""

    kernel_id: str
    config_name: str
    checks: tuple[str, ...]

    def resolve(self) -> tuple:
        genotype = resolve_kernel(self.kernel_id)
        try:
            config = FUZZ_CONFIGS[self.config_name]
        except KeyError:
            raise ValueError(
                f"unknown config {self.config_name!r} (known: "
                f"{sorted(FUZZ_CONFIGS)})"
            ) from None
        return genotype, config

    def key(self, options: FuzzOptions) -> str:
        genotype, config = self.resolve()
        return job_store_key(genotype.fingerprint(), config, self.checks, options)


def make_jobs(
    kernel_ids: list[str],
    config_names: list[str],
    checks: tuple[str, ...],
    *,
    spread: bool = True,
) -> list[FuzzJob]:
    """Cross kernels with configs.

    With ``spread`` (the random-corpus default), each kernel runs on
    *one* config — rotated deterministically over the requested set, so
    a seed range covers every config without multiplying the job count.
    Without it (edge kernels), every kernel runs on every config.
    """
    jobs: list[FuzzJob] = []
    for index, kernel_id in enumerate(kernel_ids):
        if spread:
            jobs.append(
                FuzzJob(kernel_id, config_names[index % len(config_names)], checks)
            )
        else:
            jobs.extend(
                FuzzJob(kernel_id, name, checks) for name in config_names
            )
    return jobs


def execute_job(item: tuple[FuzzJob, FuzzOptions]) -> dict:
    """Run one job's checks; module-level so it pickles to workers.

    The checks compile through one cache of the job's own, so they share
    its compiles and a worker keeps no artifact once the job is done.
    """
    job, options = item
    genotype, config = job.resolve()
    cache = KeyedCache()
    mismatches: list[dict] = []
    skipped: list[dict] = []
    for check in job.checks:
        try:
            loop = genotype.build()
            mismatches.extend(run_check(check, loop, config, options, cache))
        except CheckSkipped as exc:
            skipped.append({"check": check, "reason": str(exc)})
        except Exception as exc:  # a crash is a finding, not an abort
            mismatches.append(
                {
                    "check": check,
                    "kind": "error",
                    "detail": f"{type(exc).__name__}: {exc}",
                }
            )
    return {
        "job": {
            "kernel_id": job.kernel_id,
            "config_name": job.config_name,
            "checks": sorted(job.checks),
        },
        "mismatches": mismatches,
        "skipped": skipped,
    }


@dataclass
class FuzzReport:
    """What one ``repro.fuzz run`` did, JSON-able for CI gating."""

    total: int = 0
    executed: int = 0
    store_hits: int = 0
    not_run: int = 0
    skipped_checks: int = 0
    wall_s: float = 0.0
    #: Store entries (hit or fresh) whose mismatch list is non-empty.
    mismatched: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatched and self.not_run == 0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "store_hits": self.store_hits,
            "not_run": self.not_run,
            "skipped_checks": self.skipped_checks,
            "wall_s": round(self.wall_s, 3),
            "mismatches": self.mismatched,
            "clean": self.clean,
        }


def run_jobs(
    jobs: list[FuzzJob],
    *,
    options: FuzzOptions | None = None,
    store: KeyedCache | None = None,
    workers: int | None = None,
    time_budget_s: float | None = None,
    max_jobs: int | None = None,
) -> FuzzReport:
    """Run a job list through the store and the executor layer.

    Store hits (clean or not) are never re-executed; misses fan out
    through :func:`~repro.pipeline.executor.make_executor` in chunks so
    a ``time_budget_s`` deadline is honoured between chunks (jobs past
    the deadline are counted as ``not_run``, which fails ``clean``).
    """
    options = options or FuzzOptions()
    if max_jobs is not None:
        jobs = jobs[:max_jobs]
    started = time.monotonic()
    report = FuzzReport(total=len(jobs))

    pending: list[tuple[str, FuzzJob]] = []
    seen: set[str] = set()
    for job in jobs:
        key = job.key(options)
        if key in seen:
            continue
        seen.add(key)
        entry = store.get(key) if store is not None else None
        if entry is not None:
            report.store_hits += 1
            report.skipped_checks += len(entry.get("skipped", []))
            if entry.get("mismatches"):
                report.mismatched.append(entry)
        else:
            pending.append((key, job))

    executor = make_executor(workers)
    chunk_size = max(getattr(executor, "workers", 1) * 4, 16)
    deadline = None if time_budget_s is None else started + time_budget_s
    cursor = 0
    while cursor < len(pending):
        if deadline is not None and time.monotonic() > deadline:
            break
        chunk = pending[cursor : cursor + chunk_size]
        cursor += len(chunk)
        entries = executor.map([(job, options) for _, job in chunk], execute_job)
        for (key, _), entry in zip(chunk, entries):
            report.executed += 1
            report.skipped_checks += len(entry.get("skipped", []))
            if store is not None:
                store.put(key, entry)
            if entry.get("mismatches"):
                report.mismatched.append(entry)
    report.not_run = len(pending) - cursor
    report.wall_s = time.monotonic() - started
    return report
