"""Differential kernel-corpus fuzzing over the repository's oracles.

The repo's correctness story rests on three independent referees: the
reference interpreter (vs the trace fast path), the exact scheduler (vs
the SMS heuristic) and the static certifier.  This package turns them
from fixed test suites into a continuously-running engine:

* a **corpus** (``corpus``) of hand-picked edge kernels plus seeded
  random kernels drawn from the parametric generator's structure
  profiles;
* pluggable **checks** (``checks``) run per (kernel, config) job;
* a content-addressed **store** (a ``KeyedCache`` over
  ``.fuzz-cache``) that dedupes jobs across runs and nights;
* a deterministic **shrinker** (``shrink``) that reduces any mismatch
  to a 1-minimal kernel;
* **repro files** (``regressions``) that make shrunk findings permanent
  regression tests under ``tests/corpus/regressions/``;
* a CLI (``python -m repro.fuzz run|replay|shrink|stats``) with seed
  ranges, job/time budgets and a JSON summary CI gates on.
"""

from .checks import CHECKS, FAULTS, CheckSkipped, FuzzOptions, run_check
from .corpus import (
    EDGE_CORPUS,
    edge_kernel_ids,
    resolve_kernel,
    seed_kernel_ids,
)
from .engine import (
    FUZZ_CONFIGS,
    FuzzJob,
    FuzzReport,
    execute_job,
    job_store_key,
    make_jobs,
    run_jobs,
)
from .regressions import (
    DEFAULT_REGRESSIONS_DIR,
    ReproCase,
    load_repros,
    replay_case,
    repro_id,
    write_repro,
)
from .shrink import ShrinkResult, shrink

__all__ = [
    "CHECKS",
    "DEFAULT_REGRESSIONS_DIR",
    "EDGE_CORPUS",
    "FAULTS",
    "FUZZ_CONFIGS",
    "CheckSkipped",
    "FuzzJob",
    "FuzzOptions",
    "FuzzReport",
    "ReproCase",
    "ShrinkResult",
    "edge_kernel_ids",
    "execute_job",
    "job_store_key",
    "load_repros",
    "make_jobs",
    "replay_case",
    "repro_id",
    "resolve_kernel",
    "run_check",
    "run_jobs",
    "seed_kernel_ids",
    "shrink",
    "write_repro",
]
