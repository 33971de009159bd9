"""Serial and process-parallel execution of simulation requests.

A :class:`RunRequest` names a benchmark (rebuilt inside the worker, so
only small config/options objects cross process boundaries) plus the
machine configuration and simulation options.  Executors map a request
list to results *in request order*, which — together with the
deterministic simulator — makes serial and parallel execution produce
identical result rows.

:func:`make_executor` is the one factory every fan-out goes through:
sessions, the scheduler comparison and the fuzz engine.
"""

from __future__ import annotations

import atexit
import functools
import multiprocessing
import os
from dataclasses import dataclass, field

from ..machine.config import MachineConfig
from ..sim.runner import SimOptions
from ..sim.stats import ProgramResult
from .cache import KeyedCache, cache_key, describe_config, describe_options
from .fleet import Fleet

#: The process-wide loop memo (memory only): ``execute_request`` hands
#: it to every ``run_program``, so a loop whose simulator input repeats
#: within this process is simulated once.  A fleet worker holds its own.
LOOP_MEMO = KeyedCache()


@dataclass(frozen=True)
class RunRequest:
    """One benchmark x configuration simulation to perform."""

    benchmark: str
    config: MachineConfig
    options: SimOptions = field(default_factory=SimOptions)

    @property
    def key(self) -> str:
        return cache_key(self.benchmark, self.config, self.options)


def describe_request(request: RunRequest) -> dict:
    """Human-readable description of one run: what someone needs to
    recognise it (benchmark, scheduler, non-default config/options).
    Used for :class:`RequestError` and job-failure records."""
    return {
        "benchmark": request.benchmark,
        "scheduler": request.options.scheduler,
        "config": describe_config(request.config),
        "options": describe_options(request.options),
    }


class RequestError(RuntimeError):
    """A simulation failure tagged with the request that caused it.

    A raw ``KeyError`` from a run names neither the benchmark nor the
    configuration that blew up.  ``execute_request`` wraps every failure
    in this type, carrying the content key and the human description,
    so the error a map raises, serial or parallel, says which run
    failed.  All state rides in ``args``, so the exception pickles
    intact and a fleet worker sends it back as it is.
    """

    def __init__(
        self, key: str, description: dict, cause_type: str, cause_message: str
    ) -> None:
        super().__init__(key, description, cause_type, cause_message)
        self.key = key
        self.description = description
        self.cause_type = cause_type
        self.cause_message = cause_message

    def __str__(self) -> str:
        what = self.description.get("benchmark", "?")
        return (
            f"{self.cause_type}: {self.cause_message} "
            f"(job {self.key[:12]}, benchmark {what!r}, {self.description})"
        )


def execute_request(request: RunRequest) -> ProgramResult:
    """Compile and simulate one request (module-level: picklable).

    Every loop goes through :data:`LOOP_MEMO`.  Failures are re-raised
    as :class:`RequestError` so the originating job key and
    configuration survive the trip back from a worker process (the raw
    exception stays chained as ``__cause__`` locally).
    """
    from ..sim.runner import run_program
    from ..workloads.mediabench import build

    try:
        return run_program(
            build(request.benchmark),
            request.config,
            options=request.options,
            memo=LOOP_MEMO,
        )
    except Exception as exc:
        raise RequestError(
            request.key, describe_request(request), type(exc).__name__, str(exc)
        ) from exc


class SerialExecutor:
    """Runs jobs one after another in this process."""

    workers = 1

    def map(self, requests, fn=execute_request) -> list:
        return [fn(r) for r in requests]


class ParallelExecutor:
    """Fans jobs out across a worker fleet (:class:`~repro.pipeline.fleet.Fleet`).

    ``fn`` must be a module-level (picklable) callable; jobs cross the
    process boundary pickled.  Results come back in request order, so
    swapping this in for :class:`SerialExecutor` changes wall-clock time
    and nothing else.

    The fleet forks at the first multi-job :meth:`map` and serves every
    later batch until :meth:`shutdown` or interpreter exit.  A job that
    raises fails the map at once with its own exception, as
    :class:`SerialExecutor` would.  A worker that dies or stops
    heartbeating is replaced and its job retried; a job whose worker
    fails on every attempt (or that raises an exception that does not
    pickle) fails the map with a
    :class:`~repro.pipeline.fleet.JobFailureError` naming the request.
    """

    def __init__(self, workers: int | None = None) -> None:
        self.workers = workers or os.cpu_count() or 1
        self._fleet: Fleet | None = None

    def map(self, requests, fn=execute_request) -> list:
        requests = list(requests)
        if len(requests) <= 1 or self.workers <= 1:
            return SerialExecutor().map(requests, fn)
        if self._fleet is None:
            self._fleet = Fleet(self.workers)
            atexit.register(self.shutdown)
        return self._fleet.map(fn, requests)

    def shutdown(self) -> None:
        """Stop the fleet and reap its workers; a later map forks anew."""
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None
            atexit.unregister(self.shutdown)


def make_executor(workers: int | None):
    """The executor for a worker count.

    ``None``/0/1 -> :class:`SerialExecutor`; N > 1 -> the process-wide
    N-worker :class:`ParallelExecutor`; negative -> one worker per core.
    Inside a worker process the answer is always serial, so fan-out
    never forks a fleet from a fleet.
    """
    if workers in (None, 0, 1) or multiprocessing.parent_process() is not None:
        return SerialExecutor()
    return _parallel_executor(workers if workers > 0 else os.cpu_count() or 1)


@functools.cache
def _parallel_executor(workers: int) -> ParallelExecutor:
    return ParallelExecutor(workers)
