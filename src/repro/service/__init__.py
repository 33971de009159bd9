"""Fault-tolerant sweep service.

A supervised async job queue for simulation sweeps: worker processes
under a heartbeat/deadline watchdog (crashed and wedged workers are
restarted and their jobs re-queued), bounded retries with deterministic
backoff and typed dead letters, request coalescing through the result
cache, shard-partitioned result storage, a journaled checkpoint for
crash-safe resume, and a seeded chaos harness that drills all of it.

Layering (bottom up):

* :mod:`.retry`      — pure retry policy: backoff, jitter, failure taxonomy
* :mod:`.faults`     — seeded fault plans (kill/hang/truncate) + injection
* :mod:`.worker`     — worker processes: the child side of the pipe protocol
* :mod:`.supervisor` — worker fleet, watchdog, retry/dead-letter loop
* :mod:`.checkpoint` — atomic-rename sweep journal for resume
* :mod:`.server`     — coalescing service, degradation ladder
* :mod:`.drill`      — the chaos drill (also the ``chaos-smoke`` CI lane)
"""

from importlib import import_module

from .checkpoint import CHECKPOINT_SCHEMA, SweepCheckpoint
from .faults import FAULT_KINDS, Fault, FaultPlan, truncate_entry
from .retry import (
    FAILURE_KINDS,
    Dead,
    JobAttempts,
    JobFailure,
    JobFailureError,
    Retry,
    RetryPolicy,
    backoff_delay,
    jitter_fraction,
)

#: Names from the asyncio-based modules, imported on first use so that an
#: executor can fork its workers before it imports asyncio (see .worker).
_LAZY = {
    "DRILL_POLICY": "drill",
    "run_drill": "drill",
    "GRIDS": "server",
    "SweepReport": "server",
    "SweepService": "server",
    "degrade_request": "server",
    "requests_from_spec": "server",
    "run_sweep": "server",
    "sweep_spec": "server",
    "Supervisor": "supervisor",
    "SupervisorStats": "supervisor",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__all__ = [
    "CHECKPOINT_SCHEMA",
    "DRILL_POLICY",
    "FAILURE_KINDS",
    "FAULT_KINDS",
    "GRIDS",
    "Dead",
    "Fault",
    "FaultPlan",
    "JobAttempts",
    "JobFailure",
    "JobFailureError",
    "Retry",
    "RetryPolicy",
    "Supervisor",
    "SupervisorStats",
    "SweepCheckpoint",
    "SweepReport",
    "SweepService",
    "backoff_delay",
    "degrade_request",
    "jitter_fraction",
    "requests_from_spec",
    "run_drill",
    "run_sweep",
    "sweep_spec",
    "truncate_entry",
]
