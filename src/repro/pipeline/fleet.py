"""The worker fleet behind :class:`~repro.pipeline.executor.ParallelExecutor`.

A :class:`Fleet` owns N forked ``multiprocessing.Process`` workers, one
duplex pipe each, and runs one batch at a time for a synchronous
``map``.  A stdlib process pool is the wrong substrate: one SIGKILLed
pool worker breaks the whole pool and takes every in-flight job with
it.

Pipe protocol.  Parent -> worker: ``(seq, fn, item)`` runs
``fn(item)``; ``None`` stops the worker.  Worker -> parent:
``(seq, "hb", None)`` every :data:`HEARTBEAT_INTERVAL_S` from a
background thread while a job runs, then ``(seq, "ok", result)`` or
``(seq, "error", detail)``.  ``seq`` numbers jobs fleet-wide, so a
result from a batch that already failed is recognised and dropped.

The parent blocks in :func:`multiprocessing.connection.wait` on every
pipe and process sentinel until a message or a death arrives, or until
the earliest heartbeat deadline passes.  Then it classifies:

* ``error`` -- the job raised.  Deterministic, so the map fails at once;
* ``crash`` -- the worker died under the job (SIGKILL, OOM, segfault);
* ``hung`` -- a busy worker sent nothing for :data:`HEARTBEAT_TIMEOUT_S`
  (a wedged process, not a slow one: heartbeats flow during long jobs).

A crashed or hung worker is killed and replaced in its slot, and its
job re-queued at once, up to :data:`MAX_ATTEMPTS` attempts in all.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from dataclasses import dataclass

#: Seconds between a busy worker's heartbeats.
HEARTBEAT_INTERVAL_S = 0.5
#: A busy worker silent for this long is declared hung and killed.
HEARTBEAT_TIMEOUT_S = 10.0
#: Attempts a job may consume (the first run included) before its
#: crashes or hangs fail the map.
MAX_ATTEMPTS = 3


@dataclass(frozen=True)
class JobFailure:
    """Why a job failed the map: what an operator needs to act on it.

    ``key`` and ``description`` name the job: a
    :class:`~repro.pipeline.executor.RunRequest`'s content key and
    :func:`~repro.pipeline.executor.describe_request`, or the item's
    position in the batch for any other job.  ``kind`` is ``error``,
    ``crash`` or ``hung``; ``detail`` is the last attempt's message.
    """

    key: str
    kind: str
    attempts: int
    detail: str
    description: dict | None


class JobFailureError(RuntimeError):
    """Raised by a map when one of its jobs fails."""

    def __init__(self, failure: JobFailure) -> None:
        super().__init__(failure)
        self.failure = failure

    def __str__(self) -> str:
        f = self.failure
        return (
            f"job {f.key[:12]} failed after {f.attempts} attempt(s) "
            f"({f.kind}): {f.detail} [{f.description}]"
        )


def _failure(item, index: int, kind: str, attempts: int, detail: str):
    from .executor import RunRequest, describe_request  # executor imports us

    if isinstance(item, RunRequest):
        key, description = item.key, describe_request(item)
    else:
        key, description = f"item {index}", None
    return JobFailureError(JobFailure(key, kind, attempts, detail, description))


class _Worker:
    """Parent-side handle of one worker process."""

    def __init__(self) -> None:
        # Fork where the platform has it: a worker inherits the parent's
        # loaded modules instead of re-importing the package.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main, args=(child_conn, os.getpid()), daemon=True
        )
        self.proc.start()
        child_conn.close()
        #: seq of the job in progress (None while idle)
        self.seq: int | None = None
        #: monotonic time by which a busy worker must next be heard from
        self.deadline = 0.0

    def start(self, seq: int, fn, item) -> bool:
        """Send one job; False if the worker died idle."""
        try:
            self.conn.send((seq, fn, item))
        except OSError:
            return False
        self.seq = seq
        self.deadline = time.monotonic() + HEARTBEAT_TIMEOUT_S
        return True

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join(1.0)
        self.conn.close()


class Fleet:
    """N forked workers serving one synchronous batch at a time."""

    def __init__(self, workers: int) -> None:
        self._workers = [_Worker() for _ in range(workers)]
        self._seq = 0  # seq of the next batch's first job

    def map(self, fn, items: list) -> list:
        """``[fn(item) for item in items]``, fanned out over the workers."""
        base, n = self._seq, len(items)
        self._seq += n
        results: list = [None] * n
        attempts = [0] * n
        queue = deque(range(n))
        left = n
        while left:
            for worker in self._workers:
                if worker.seq is None and queue:
                    index = queue.popleft()
                    if worker.start(base + index, fn, items[index]):
                        attempts[index] += 1
                    else:
                        queue.appendleft(index)  # _events() replaces the worker
            for kind, seq, payload in self._events():
                if seq is None or not base <= seq < base + n:
                    continue  # an idle worker died, or a failed batch's job ended
                index = seq - base
                if kind == "ok":
                    results[index] = payload
                    left -= 1
                elif kind == "error" or attempts[index] >= MAX_ATTEMPTS:
                    raise _failure(items[index], index, kind, attempts[index], payload)
                else:
                    queue.append(index)
        return results

    def _events(self):
        """Wait for the fleet, then yield ``(kind, seq, payload)`` per event.

        ``ok`` and ``error`` carry a job's result or message.  ``crash``
        and ``hung`` come after the worker was killed and replaced; their
        ``seq`` is the job it was running (None if it was idle).
        """
        # Imported here: it costs ~5 ms, and every ``repro.pipeline``
        # import loads this module.
        from multiprocessing.connection import wait

        now = time.monotonic()
        busy = [w.deadline for w in self._workers if w.seq is not None]
        timeout = min(busy) - now if busy else HEARTBEAT_TIMEOUT_S
        sentinels = [w.proc.sentinel for w in self._workers]
        ready = wait([w.conn for w in self._workers] + sentinels, timeout)
        now = time.monotonic()
        for slot, worker in enumerate(self._workers):
            dead = worker.proc.sentinel in ready
            # Drain even a dead worker: what it sent before dying is
            # still in the pipe.
            while worker.conn.poll():
                try:
                    seq, kind, payload = worker.conn.recv()
                except (EOFError, OSError):
                    dead = True
                    break
                worker.deadline = now + HEARTBEAT_TIMEOUT_S
                if kind != "hb":
                    worker.seq = None
                    yield kind, seq, payload
            if dead:
                kind, detail = "crash", "worker died"
            elif worker.seq is not None and now >= worker.deadline:
                kind, detail = "hung", f"no heartbeat for {HEARTBEAT_TIMEOUT_S}s"
            else:
                continue
            worker.kill()
            if dead:
                detail += f" (exitcode {worker.proc.exitcode})"
            self._workers[slot] = _Worker()
            yield kind, worker.seq, detail

    def close(self) -> None:
        """Stop every worker and reap it (so ``RUSAGE_CHILDREN`` counts it).

        Idle workers are asked to stop; busy ones (running jobs of a
        failed batch), and any that do not stop within a second, are
        killed.
        """
        for worker in self._workers:
            if worker.seq is None:
                try:
                    worker.conn.send(None)
                except OSError:
                    pass
        for worker in self._workers:
            if worker.seq is None:
                worker.proc.join(1.0)
            worker.kill()  # a no-op signal once the worker is reaped
        self._workers = []


def _worker_main(conn, parent_pid: int) -> None:
    """Worker process: serve jobs from ``conn`` until told to stop."""
    send_lock = threading.Lock()
    running: list[int | None] = [None]  # seq the heartbeat thread vouches for

    def send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except OSError:  # the parent went away
                return False

    def beat() -> None:
        while True:
            time.sleep(HEARTBEAT_INTERVAL_S)
            seq = running[0]
            if seq is not None and not send((seq, "hb", None)):
                return

    threading.Thread(target=beat, daemon=True).start()
    while True:
        try:
            # Poll rather than block in recv(): sibling workers forked
            # after this one hold copies of the parent's end of this
            # pipe, so a dead parent never EOFs it.  Re-parenting is
            # the reliable orphan signal.
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        seq, fn, item = msg
        running[0] = seq
        try:
            out = (seq, "ok", fn(item))
        except Exception as exc:
            out = (seq, "error", f"{type(exc).__name__}: {exc}")
        finally:
            running[0] = None
        if not send(out):
            return
