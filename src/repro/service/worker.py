"""Worker processes of the supervised fleet: the child side of the pipe.

Nothing here imports asyncio, and ``repro.service`` loads its asyncio
modules only on first use, so an executor can fork its workers before
its own process imports the event loop.  Every forked worker starts as
a copy of the parent, so a worker forked after that import carries the
event loop's ~2 MB too.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time


def spawn(runner, index: int, heartbeat_interval_s: float):
    """Fork one worker serving ``runner``; returns ``(process, conn)``.

    Fork where the platform has it: workers inherit the parent's loaded
    modules instead of re-importing the package.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=worker_main,
        args=(child_conn, runner, heartbeat_interval_s),
        daemon=True,
        name=f"sweep-worker-{index}",
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def worker_main(conn, runner, heartbeat_interval_s: float) -> None:
    """Worker process: serve jobs from ``conn`` until told to stop.

    Protocol (parent -> worker): ``("job", key, payload, fault)`` or
    ``("stop",)``.  Worker -> parent: ``("hb", key)`` heartbeats from a
    background thread while a job runs, then ``("done", key, result)``
    or ``("fail", key, detail_dict)``.  A ``kill`` fault SIGKILLs this
    process at job start (a crash, from the supervisor's view); a
    ``hang`` fault sleeps *without heartbeating* first, so the watchdog
    sees a wedged worker.
    """
    supervisor_pid = os.getppid()
    send_lock = threading.Lock()
    #: key of the job in progress (None while idle or wedged): what the
    #: heartbeat thread vouches for
    running: list[str | None] = [None]

    def _send(msg) -> bool:
        with send_lock:
            try:
                conn.send(msg)
                return True
            except (OSError, ValueError, BrokenPipeError):
                return False  # parent went away; nothing left to do

    def _beat() -> None:
        while True:
            time.sleep(heartbeat_interval_s)
            key = running[0]
            if key is not None and not _send(("hb", key)):
                return

    threading.Thread(target=_beat, daemon=True).start()
    while True:
        try:
            # Poll rather than block in recv(): sibling workers forked
            # after us inherit dup'd ends of our pipe, so a dead
            # supervisor never EOFs it.  Watching for re-parenting is
            # the only reliable orphan signal (e.g. after the chaos
            # drill's simulated server crash).
            while not conn.poll(1.0):
                if os.getppid() != supervisor_pid:
                    return
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, key, payload, fault = msg
        if fault is not None and fault.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if fault is not None and fault.kind == "hang":
            # Silent wedge: no heartbeats while we sleep.  The
            # supervisor must kill us; if it somehow doesn't, we wake
            # up and run the job normally (the drill still converges).
            time.sleep(fault.seconds)
        running[0] = key
        try:
            result = runner(payload, fault)
            out = ("done", key, result)
        except Exception as exc:
            out = (
                "fail",
                key,
                {
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "description": getattr(exc, "description", None),
                },
            )
        finally:
            running[0] = None
        if not _send(out):
            break
    try:
        conn.close()
    except OSError:
        pass
