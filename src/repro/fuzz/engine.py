"""Job generation and differential execution for the fuzzing engine.

A :class:`FuzzJob` is one (kernel id, config name, check set) triple.
:func:`run_jobs` drops repeated jobs (same genotype fingerprint, config
name and check set), fans the rest out through the pipeline's
serial/process executors, and folds every verdict into a
:class:`FuzzReport` whose JSON rendering is what CI gates on.  A sweep
checks the current tree: nothing is kept between runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..machine.config import MachineConfig
from ..machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from ..pipeline.executor import make_executor
from .checks import run_checks
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


def execute_job(job: FuzzJob) -> dict:
    """Run one job's checks through :func:`~.checks.run_checks`;
    module-level so it pickles to workers."""
    genotype, config = job.resolve()
    return {
        "job": {
            "kernel_id": job.kernel_id,
            "config_name": job.config_name,
            "checks": sorted(job.checks),
        },
        "mismatches": run_checks(genotype, config, job.checks),
    }


@dataclass
class FuzzReport:
    """What one fuzz sweep did, JSON-able for CI gating."""

    total: int = 0
    executed: int = 0
    not_run: int = 0
    wall_s: float = 0.0
    #: The :func:`execute_job` entries whose mismatch list is non-empty.
    mismatched: list[dict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Every job ran and none mismatched.  A sweep of no jobs
        checked nothing, so it is not clean."""
        return self.total > 0 and not self.mismatched and self.not_run == 0

    def to_json(self) -> dict:
        return {
            "total": self.total,
            "executed": self.executed,
            "not_run": self.not_run,
            "wall_s": round(self.wall_s, 3),
            "mismatches": self.mismatched,
            "clean": self.clean,
        }


def run_jobs(
    jobs: list[FuzzJob],
    *,
    workers: int | None = None,
    time_budget_s: float | None = None,
) -> FuzzReport:
    """Run a job list through the executor layer.

    A job repeating an earlier one (same genotype fingerprint, config
    name and sorted checks) runs once.  The rest fan out through
    :func:`~repro.pipeline.executor.make_executor` in chunks so a
    ``time_budget_s`` deadline is honoured between chunks (jobs past the
    deadline are counted as ``not_run``, which fails ``clean``).  A
    budget that is not a finite number of seconds >= 0 is refused.
    """
    if time_budget_s is not None and not (
        math.isfinite(time_budget_s) and time_budget_s >= 0
    ):
        raise ValueError(
            f"time_budget_s must be a finite number >= 0, got {time_budget_s!r}"
        )
    started = time.monotonic()
    report = FuzzReport(total=len(jobs))

    pending: list[FuzzJob] = []
    seen: set[tuple] = set()
    for job in jobs:
        genotype, _ = job.resolve()  # refuses an unknown kernel or config
        identity = (genotype.fingerprint(), job.config_name, tuple(sorted(job.checks)))
        if identity not in seen:
            seen.add(identity)
            pending.append(job)

    executor = make_executor(workers)
    chunk_size = max(getattr(executor, "workers", 1) * 4, 16)
    deadline = None if time_budget_s is None else started + time_budget_s
    cursor = 0
    while cursor < len(pending):
        if deadline is not None and time.monotonic() > deadline:
            break
        chunk = pending[cursor : cursor + chunk_size]
        cursor += len(chunk)
        for entry in executor.map(chunk, execute_job):
            report.executed += 1
            if entry["mismatches"]:
                report.mismatched.append(entry)
    report.not_run = len(pending) - cursor
    report.wall_s = time.monotonic() - started
    return report
