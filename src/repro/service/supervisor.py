"""Supervised worker-fleet job queue: the engine behind every fan-out.

A stdlib process pool is the wrong substrate for fault *tolerance*: one
SIGKILL'd worker poisons the whole pool (``BrokenProcessPool``) and
takes every in-flight job with it.  The :class:`Supervisor` owns its
workers directly — one ``multiprocessing.Process`` + duplex pipe each —
and an asyncio loop that sleeps until a worker pipe turns readable (or
the next watchdog or backoff deadline), then in one pass drains
results, *watches*, and dispatches into every idle slot:

* a worker process that died (SIGKILL, OOM, segfault) is detected via
  ``Process.is_alive``/pipe EOF, restarted, and its job re-queued as a
  ``crash``;
* a busy worker whose heartbeat thread has gone silent past the
  policy's ``heartbeat_timeout_s`` is declared ``hung``, SIGKILLed and
  replaced (its job re-queued);
* a job past its per-attempt ``timeout_s`` is classified ``timeout``
  the same way (slow is distinct from wedged: heartbeats keep flowing
  during a long simulation, so only the deadline catches it).

Failed attempts go through :class:`~repro.service.retry.JobAttempts`:
bounded retries with exponential backoff and deterministic jitter,
then — optionally — one pass through a *degradation ladder* (a hook
that may rewrite the payload, e.g. exact→SMS scheduling), and finally a
typed :class:`JobFailure` dead letter.  A poisoned job can therefore
never wedge the queue: it burns its attempts and lands in
``stats.dead`` while every other job keeps flowing.

Chaos faults (:mod:`repro.service.faults`) are injected at dispatch:
the plan names a dispatch ordinal, the fault rides the job message, and
the worker (or its store write) misbehaves accordingly — deterministic
enough to drill recovery in CI.

:class:`~repro.pipeline.executor.ParallelExecutor` runs every
``executor.map`` batch on one long-lived supervisor; the sweep service
(:mod:`repro.service.server`) drives its own.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from collections import deque
from dataclasses import dataclass, field

from .faults import FaultPlan
from .retry import (
    Dead,
    JobAttempts,
    JobFailure,
    JobFailureError,
    Retry,
    RetryPolicy,
)
from .worker import spawn


@dataclass
class _QueuedJob:
    key: str
    payload: object
    ledger: JobAttempts
    future: asyncio.Future
    #: degradation labels already applied (each ladder rung fires once)
    degradations: tuple[str, ...] = ()


class _WorkerHandle:
    def __init__(self, index: int, proc, conn) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.job: _QueuedJob | None = None
        self.dispatched_at = 0.0
        self.last_heartbeat = 0.0


@dataclass
class SupervisorStats:
    """Observable record of what the fleet did (the drill asserts on it)."""

    submitted: int = 0
    completed: int = 0
    dispatches: int = 0
    retries: int = 0
    crashes: int = 0
    hung: int = 0
    timeouts: int = 0
    errors: int = 0
    restarts: int = 0
    faults_injected: int = 0
    #: successful completions per key — any value > 1 is a duplicate
    #: simulation (the coalescing/dedup layer failed)
    completions_by_key: dict[str, int] = field(default_factory=dict)
    #: terminal failures, in dead-letter order
    dead: list[JobFailure] = field(default_factory=list)
    #: key -> degradation labels applied before it completed
    degraded: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def duplicate_simulations(self) -> int:
        return sum(c - 1 for c in self.completions_by_key.values() if c > 1)

    def to_json(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "dispatches": self.dispatches,
            "retries": self.retries,
            "crashes": self.crashes,
            "hung": self.hung,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "restarts": self.restarts,
            "faults_injected": self.faults_injected,
            "duplicate_simulations": self.duplicate_simulations,
            "dead": [f.to_json() for f in self.dead],
            "degraded": {k: list(v) for k, v in sorted(self.degraded.items())},
        }


class Supervisor:
    """Async job queue over a supervised worker fleet.

    ``runner`` is a module-level callable ``(payload, fault) -> result``
    executed inside worker processes.  ``degrade`` is an optional
    ladder hook ``(payload, failure, applied_labels) -> (payload, label)
    | None`` consulted when a job exhausts its retries; a non-None
    return re-queues the rewritten payload with a fresh attempt budget
    (each label at most once per job).
    """

    def __init__(
        self,
        runner,
        *,
        workers: int = 2,
        policy: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
        degrade=None,
        completion_hook=None,
    ) -> None:
        self.runner = runner
        self.n_workers = max(1, workers)
        self.policy = policy or RetryPolicy()
        self.faults = faults
        self.degrade = degrade
        self.completion_hook = completion_hook
        self.stats = SupervisorStats()
        self._queue: deque[_QueuedJob] = deque()
        self._delayed: list[tuple[float, int, _QueuedJob]] = []  # heap
        self._delay_seq = 0
        self._active: dict[str, _QueuedJob] = {}
        self._workers: list[_WorkerHandle] = []
        self._loop_task: asyncio.Task | None = None
        #: resolved to start the loop's next pass (see :meth:`_wake`)
        self._waiter: asyncio.Future | None = None
        self._running = False

    # -- lifecycle ------------------------------------------------------

    async def start(self, forked=()) -> None:
        """Start the fleet, adopting workers already forked by
        :func:`~repro.service.worker.spawn` (with this runner and policy)
        and forking the rest."""
        if self._running:
            return
        self._running = True
        pairs = list(forked)
        interval = self.policy.heartbeat_interval_s
        pairs += [
            spawn(self.runner, i, interval) for i in range(len(pairs), self.n_workers)
        ]
        self._workers = [self._watch(i, *pair) for i, pair in enumerate(pairs)]
        self._loop_task = asyncio.get_running_loop().create_task(self._loop())

    async def stop(self) -> None:
        """Tear the fleet down; unresolved jobs dead-letter as crashes.

        The loop exits on the running flag rather than by cancellation,
        so a cancel swallowed inside the event loop cannot leave this
        waiting.  Busy workers are running abandoned jobs and are
        killed outright; idle ones are asked to stop.
        """
        self._running = False
        self._wake()
        if self._loop_task is not None:
            try:
                await self._loop_task
            except Exception:
                pass
            self._loop_task = None
        for job in list(self._active.values()):
            if not job.future.done():
                job.future.set_exception(
                    JobFailureError(
                        JobFailure(
                            key=job.key,
                            kind="crash",
                            attempts=job.ledger.attempts,
                            detail="service stopped with the job pending",
                            description=job.ledger.description,
                        )
                    )
                )
        self._active.clear()
        self._queue.clear()
        self._delayed.clear()
        for handle in self._workers:
            self._unwatch(handle)
            if handle.job is not None:
                handle.proc.kill()
            elif handle.proc.is_alive():
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
        for handle in self._workers:
            handle.proc.join(timeout=0.5)
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join(timeout=0.5)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers = []

    async def __aenter__(self) -> "Supervisor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- client surface -------------------------------------------------

    def submit(self, key: str, payload, description: dict | None = None):
        """Queue one job; returns a future resolving to the result (or
        raising :class:`JobFailureError`).  Keys must be unique among
        *active* jobs — coalescing identical requests onto one future
        is the server layer's job, not the queue's.  Cancelling the
        future withdraws the job if it has not been dispatched yet."""
        if not self._running:
            raise RuntimeError("supervisor is not running (use start()/async with)")
        if key in self._active:
            raise ValueError(f"job {key[:12]} is already active")
        future = asyncio.get_running_loop().create_future()
        job = _QueuedJob(
            key=key,
            payload=payload,
            ledger=JobAttempts(key=key, description=description),
            future=future,
        )
        self._active[key] = job
        self._queue.append(job)
        self.stats.submitted += 1
        self._wake()
        return future

    # -- fleet ----------------------------------------------------------

    def _watch(self, index: int, proc, conn) -> _WorkerHandle:
        # A result, a heartbeat or EOF (the worker died) all make the
        # pipe readable, and each is a reason for a loop pass.
        asyncio.get_running_loop().add_reader(conn.fileno(), self._wake)
        return _WorkerHandle(index, proc, conn)

    def _unwatch(self, handle: _WorkerHandle) -> None:
        try:
            asyncio.get_running_loop().remove_reader(handle.conn.fileno())
        except (OSError, ValueError):
            pass  # already closed

    def _replace(self, handle: _WorkerHandle) -> None:
        self._unwatch(handle)
        try:
            if handle.proc.is_alive():
                handle.proc.kill()
            handle.proc.join(timeout=0.5)
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        interval = self.policy.heartbeat_interval_s
        fresh = self._watch(handle.index, *spawn(self.runner, handle.index, interval))
        self._workers[self._workers.index(handle)] = fresh
        self.stats.restarts += 1

    # -- event loop -----------------------------------------------------

    async def _loop(self) -> None:
        # Drain before the watchdog, so a job that just finished is not
        # judged silent, and dispatch last, so a worker freed by a
        # result gets its next job in the same pass.
        while self._running:
            now = time.monotonic()
            self._drain(now)
            self._watchdog(now)
            self._promote_delayed(now)
            self._dispatch(now)
            await self._idle(self._next_deadline(now) - time.monotonic())

    def _wake(self) -> None:
        """Start the loop's next pass now (reader, timer and submit hook)."""
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_result(None)

    async def _idle(self, timeout: float) -> None:
        loop = asyncio.get_running_loop()
        self._waiter = loop.create_future()
        timer = loop.call_later(max(0.0, timeout), self._wake)
        try:
            await self._waiter
        finally:
            timer.cancel()
            self._waiter = None

    def _next_deadline(self, now: float) -> float:
        """When the watchdog or the backoff heap next needs a pass.

        Idle fleets still get a pass every ``heartbeat_timeout_s``: a
        cheap backstop should a worker die without its pipe reading EOF.
        """
        policy = self.policy
        deadline = now + policy.heartbeat_timeout_s
        if self._delayed:
            deadline = min(deadline, self._delayed[0][0])
        for handle in self._workers:
            if handle.job is None:
                continue
            deadline = min(deadline, handle.last_heartbeat + policy.heartbeat_timeout_s)
            if policy.timeout_s is not None:
                deadline = min(deadline, handle.dispatched_at + policy.timeout_s)
        return deadline

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, _, job = heapq.heappop(self._delayed)
            self._queue.append(job)

    def _next_job(self) -> _QueuedJob | None:
        """The next queued job whose future is still wanted."""
        while self._queue:
            job = self._queue.popleft()
            if not job.future.done():
                return job
            self._active.pop(job.key, None)  # cancelled before dispatch
        return None

    def _dispatch(self, now: float) -> None:
        # The watchdog pass just before this one replaced dead workers.
        for handle in self._workers:
            if handle.job is not None:
                continue
            job = self._next_job()
            if job is None:
                return
            fault = None
            if self.faults is not None:
                fault = self.faults.fault_for(self.stats.dispatches)
            self.stats.dispatches += 1
            if fault is not None:
                self.stats.faults_injected += 1
            try:
                handle.conn.send(("job", job.key, job.payload, fault))
            except (OSError, ValueError, BrokenPipeError):
                # Worker died since the watchdog looked; re-queue and
                # let the next pass replace it.
                self._queue.appendleft(job)
                continue
            handle.job = job
            handle.dispatched_at = now
            handle.last_heartbeat = now

    def _drain(self, now: float) -> None:
        for handle in self._workers:
            while True:
                try:
                    if not handle.conn.poll():
                        break
                    msg = handle.conn.recv()
                except (EOFError, OSError, ValueError):
                    # Pipe torn: the worker is gone.  The watchdog pass
                    # right after this classifies and replaces it.
                    break
                kind = msg[0]
                if kind == "hb":
                    handle.last_heartbeat = now
                elif kind == "done":
                    _, key, result = msg
                    job = handle.job
                    handle.job = None
                    if job is not None and job.key == key:
                        self._complete(job, result)
                elif kind == "fail":
                    _, key, detail = msg
                    job = handle.job
                    handle.job = None
                    if job is not None and job.key == key:
                        message = f"{detail.get('type')}: {detail.get('message')}"
                        if job.ledger.description is None:
                            job.ledger.description = detail.get("description")
                        self.stats.errors += 1
                        self._failed(job, "error", message)

    def _watchdog(self, now: float) -> None:
        policy = self.policy
        for handle in list(self._workers):
            if not handle.proc.is_alive():
                job, handle.job = handle.job, None
                self._replace(handle)
                if job is not None:
                    self.stats.crashes += 1
                    code = handle.proc.exitcode
                    self._failed(job, "crash", f"worker died (exitcode {code})")
                continue
            job = handle.job
            if job is None:
                continue
            if (
                policy.timeout_s is not None
                and now - handle.dispatched_at >= policy.timeout_s
            ):
                handle.job = None
                self._replace(handle)
                self.stats.timeouts += 1
                self._failed(
                    job, "timeout", f"exceeded {policy.timeout_s}s deadline"
                )
            elif now - handle.last_heartbeat >= policy.heartbeat_timeout_s:
                handle.job = None
                self._replace(handle)
                self.stats.hung += 1
                self._failed(
                    job,
                    "hung",
                    f"no heartbeat for {policy.heartbeat_timeout_s}s",
                )

    # -- outcomes -------------------------------------------------------

    def _complete(self, job: _QueuedJob, result) -> None:
        self.stats.completed += 1
        by_key = self.stats.completions_by_key
        by_key[job.key] = by_key.get(job.key, 0) + 1
        if job.degradations:
            self.stats.degraded[job.key] = job.degradations
        self._active.pop(job.key, None)
        if not job.future.done():
            job.future.set_result(result)
        if self.completion_hook is not None:
            self.completion_hook(job.key, result)

    def _failed(self, job: _QueuedJob, kind: str, detail: str) -> None:
        decision = job.ledger.decide(self.policy, kind, detail)
        if isinstance(decision, Retry):
            self.stats.retries += 1
            self._delay_seq += 1
            heapq.heappush(
                self._delayed,
                (time.monotonic() + decision.delay_s, self._delay_seq, job),
            )
            return
        assert isinstance(decision, Dead)
        failure = decision.failure
        if self.degrade is not None:
            step = self.degrade(job.payload, failure, job.degradations)
            if step is not None:
                payload, label = step
                job.payload = payload
                job.degradations = job.degradations + (label,)
                job.ledger = JobAttempts(
                    key=job.key, description=job.ledger.description
                )
                self._queue.append(job)
                return
        self.stats.dead.append(failure)
        self._active.pop(job.key, None)
        if not job.future.done():
            job.future.set_exception(JobFailureError(failure))
