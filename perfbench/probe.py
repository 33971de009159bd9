"""Machine-speed probe: a fixed pure-Python loop timed on a timer signal.

The benchmark's host shares its cores with other machines' work, which
slows a run by up to ~1.6x in episodes lasting seconds, independently on
each core.  A run therefore times a fixed loop every ``interval``
seconds, in the very process doing the work, and rescales its host
seconds by ``REFERENCE_S / median(probe)``: the time the run would have
taken at the reference speed.  One probe costs ~0.3 ms, under 1% of the
run at the default interval.

Pool workers are forked from a probed process; :func:`follow_forks`
starts a probe in each of them, and the workers write their samples to
files the parent reads back after the pool is shut down.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import time
from pathlib import Path

#: Multiply-adds per probe.
PROBE_LOOP = 5000

#: Median probe time on the reference machine (2-vCPU Xeon VM,
#: Python 3.11) when quiet; calibrated seconds are host seconds at this
#: probe speed.
REFERENCE_S = 0.00030


def loop() -> float:
    """Seconds for one probe loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i
    return time.perf_counter() - t0


class Probe:
    """Probe samples of this process, taken on ``SIGALRM``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._dump: Path | None = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(loop())
        if self._dump is not None and len(self.samples) % 20 == 0:
            self._dump.write_text(json.dumps(self.samples))

    def start(self, interval: float) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._dump is not None:
            self._dump.write_text(json.dumps(self.samples))

    def take(self) -> list[float]:
        """Return the samples so far and start a new set."""
        samples, self.samples = self.samples, []
        return samples

    def follow_forks(self, directory: Path, interval: float) -> None:
        """Probe every process forked from here; samples go to files."""

        def in_child() -> None:
            self.samples = []
            self._dump = directory / f"probe-{os.getpid()}.json"
            self.start(interval)

        os.register_at_fork(after_in_child=in_child)


def forked_samples(directory: Path) -> list[float]:
    """Samples written by probed child processes under ``directory``."""
    samples: list[float] = []
    for path in sorted(directory.glob("probe-*.json")):
        samples += json.loads(path.read_text())
    return samples


def scale(samples: list[float]) -> float:
    """Factor from host seconds to calibrated seconds (1.0 without samples)."""
    if not samples:
        return 1.0
    return REFERENCE_S / statistics.median(samples)
