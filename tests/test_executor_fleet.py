"""Parallel executor tests: the worker fleet behind ``executor.map``.

Fault tests use toy job functions that kill or stop their own worker,
and shrink the fleet's heartbeat constants where they wait on the
watchdog, so the file stays tier-1 fast.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.machine import l0_config, unified_config
from repro.pipeline import (
    JobFailureError,
    ParallelExecutor,
    RequestError,
    RunRequest,
    SerialExecutor,
    Session,
    make_executor,
)
from repro.pipeline import fleet
from repro.sim.runner import SimOptions


def toy_double(value):
    return value * 2


def kill_on_first_attempt(item):
    """Double ``value``; the job carrying a marker path SIGKILLs its own
    worker the first time it runs (the marker records that it did)."""
    value, marker = item
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGKILL)
    return value * 2


def stop_on_first_attempt(item):
    """Like :func:`kill_on_first_attempt`, but SIGSTOPs the worker: the
    process stays alive and silent, heartbeat thread included."""
    value, marker = item
    if marker is not None and not os.path.exists(marker):
        open(marker, "w").close()
        os.kill(os.getpid(), signal.SIGSTOP)
    return value * 2


def always_kill(_item):
    os.kill(os.getpid(), signal.SIGKILL)


def fail_or_sleep(item):
    """Raise on ``"boom"``; otherwise sleep ``seconds`` and return ``value``."""
    if item == "boom":
        raise ValueError("kaboom")
    value, seconds = item
    time.sleep(seconds)
    return value


class TwoArgError(Exception):
    """Pickles, but does not unpickle: ``args`` holds one value and
    ``__init__`` wants two."""

    def __init__(self, first, second):
        super().__init__(f"{first}/{second}")


def raise_unpicklable(item):
    raise TwoArgError(item, "x")


def worker_pid(_item):
    return os.getpid()


def nested_executor_kind(_item):
    return type(make_executor(2)).__name__


def test_executor_matches_serial_on_toy_fn():
    items = list(range(7)) + [3]  # a duplicate item must not collide
    parallel = make_executor(2).map(items, fn=toy_double)
    assert parallel == SerialExecutor().map(items, fn=toy_double)


def test_executor_runs_real_requests_byte_identically():
    options = SimOptions(sim_cap=25)
    requests = [
        RunRequest("g721dec", unified_config(), options),
        RunRequest("g721dec", l0_config(4), options),
    ]
    serial = Session(options=options).run_many(requests)
    parallel = Session(options=options, workers=2).run_many(requests)
    assert parallel == serial


def test_request_error_carries_key_through_executors():
    request = RunRequest("no-such-benchmark", unified_config(), SimOptions())
    with pytest.raises(RequestError) as excinfo:
        SerialExecutor().map([request])
    assert excinfo.value.key == request.key
    assert excinfo.value.description["benchmark"] == "no-such-benchmark"
    # ... and through the worker fleet: the map raises the job's own
    # error, terminal at once, naming the request once.
    with pytest.raises(RequestError) as parallel:
        make_executor(2).map([request, request])
    assert type(parallel.value) is RequestError
    assert parallel.value.key == request.key
    assert parallel.value.description == excinfo.value.description
    assert str(parallel.value) == str(excinfo.value)
    assert str(parallel.value).count(request.key[:12]) == 1


def test_job_error_that_does_not_pickle_fails_the_map_with_its_text():
    executor = ParallelExecutor(2)
    try:
        with pytest.raises(JobFailureError) as failed:
            executor.map([1, 2], fn=raise_unpicklable)
    finally:
        executor.shutdown()
    failure = failed.value.failure
    assert (failure.kind, failure.attempts) == ("error", 1)
    assert failure.detail in ("TwoArgError: 1/x", "TwoArgError: 2/x")


def test_executor_retries_job_whose_worker_was_sigkilled(tmp_path):
    marker = str(tmp_path / "killed-once")
    items = [(i, marker if i == 3 else None) for i in range(6)]
    parallel = make_executor(2).map(items, fn=kill_on_first_attempt)
    assert os.path.exists(marker)  # the first attempt really died
    assert parallel == SerialExecutor().map(items, fn=kill_on_first_attempt)


def test_watchdog_kills_silent_worker_and_retries(tmp_path, monkeypatch):
    monkeypatch.setattr(fleet, "HEARTBEAT_INTERVAL_S", 0.05)
    monkeypatch.setattr(fleet, "HEARTBEAT_TIMEOUT_S", 0.5)
    marker = str(tmp_path / "stopped-once")
    items = [(i, marker if i == 1 else None) for i in range(4)]
    executor = ParallelExecutor(2)
    try:
        started = time.monotonic()
        assert executor.map(items, fn=stop_on_first_attempt) == [0, 2, 4, 6]
        assert time.monotonic() - started < 5.0
    finally:
        executor.shutdown()
    assert os.path.exists(marker)  # the first attempt really stopped


def test_job_that_always_crashes_fails_after_max_attempts():
    executor = ParallelExecutor(2)
    try:
        with pytest.raises(JobFailureError) as failed:
            executor.map([1, 2], fn=always_kill)
    finally:
        executor.shutdown()
    assert failed.value.failure.kind == "crash"
    assert failed.value.failure.attempts == fleet.MAX_ATTEMPTS


def test_failed_map_leaks_no_result_into_the_next():
    executor = ParallelExecutor(2)
    try:
        with pytest.raises(ValueError, match="kaboom"):
            # Job 1 is still running when job 0 fails the map.
            executor.map(["boom", ("stale", 0.3), ("stale", 0.3)], fn=fail_or_sleep)
        items = [(i, 0.05) for i in range(6)]
        assert executor.map(items, fn=fail_or_sleep) == list(range(6))
    finally:
        executor.shutdown()


def test_executor_fleet_persists_across_maps_until_shutdown():
    executor = make_executor(2)
    first = executor.map(range(8), fn=worker_pid)
    second = executor.map(range(8), fn=worker_pid)
    assert len(set(first)) == 2
    assert set(second) == set(first)
    assert os.getpid() not in first
    executor.shutdown()
    assert multiprocessing.active_children() == []
    # A later map forks a fresh fleet.
    assert os.getpid() not in executor.map(range(4), fn=worker_pid)
    executor.shutdown()


def test_executor_keeps_order_with_more_workers_than_cores():
    executor = make_executor(4)
    items = list(range(300))
    try:
        started = time.monotonic()
        assert executor.map(items, fn=toy_double) == [2 * i for i in items]
        assert time.monotonic() - started < 60.0
    finally:
        executor.shutdown()


def test_make_executor_is_serial_inside_a_worker():
    assert isinstance(make_executor(2), ParallelExecutor)
    assert make_executor(2) is make_executor(2)  # one fleet per worker count
    kinds = make_executor(2).map(range(4), fn=nested_executor_kind)
    assert kinds == ["SerialExecutor"] * 4
