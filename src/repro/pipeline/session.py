"""Session: the cache-aware front door to the simulation pipeline.

A :class:`Session` owns a :class:`~repro.pipeline.cache.KeyedCache` of
results and an executor and exposes two operations:

* :meth:`Session.run` — one request, served from the cache or simulated;
* :meth:`Session.run_many` — a batch: deduplicates by content key,
  checks the cache, fans the misses out through the executor (the
  parallel path), stores them, and returns results in request order.

``session.simulations`` counts actual simulator executions, so tests
and users can assert cache behaviour ("a second identical sweep
performs zero new simulations").  A cache hit is a private copy of the
stored result, equal to it field by field.

The on-disk stores write through, so a session holds nothing to flush
on teardown; ``python -m repro.cache gc`` is what bounds them.
"""

from __future__ import annotations

from typing import Iterable

from ..machine.config import MachineConfig
from ..sim.runner import SimOptions
from ..sim.stats import ProgramResult
from .cache import KeyedCache
from .executor import RunRequest, make_executor


class Session:
    def __init__(
        self,
        *,
        options: SimOptions | None = None,
        cache: KeyedCache | None = None,
        workers: int | None = None,
        executor=None,
    ) -> None:
        self.options = options or SimOptions()
        self.cache = cache if cache is not None else KeyedCache()
        self.executor = executor if executor is not None else make_executor(workers)
        #: number of simulator executions performed by this session
        self.simulations = 0
        #: distinct requests served from a pre-existing cache entry (work
        #: this session avoided); re-reads of a result the session itself
        #: produced or already served are not counted
        self.cache_hits = 0
        self._seen: set[str] = set()

    def request(
        self,
        benchmark: str,
        config: MachineConfig,
        options: SimOptions | None = None,
    ) -> RunRequest:
        """Build a request, defaulting to the session's options."""
        return RunRequest(benchmark, config, options or self.options)

    def run(self, request: RunRequest) -> ProgramResult:
        return self.run_many([request])[0]

    def run_many(self, requests: Iterable[RunRequest]) -> list[ProgramResult]:
        """Serve a batch, simulating only the distinct uncached requests."""
        requests = list(requests)
        keys = [r.key for r in requests]
        resolved: dict[str, ProgramResult] = {}
        missing: dict[str, RunRequest] = {}
        for key, request in zip(keys, requests):
            if key in resolved or key in missing:
                continue
            cached = self.cache.get(key)
            if cached is None:
                missing[key] = request
            else:
                if key not in self._seen:
                    self.cache_hits += 1
                resolved[key] = cached
            self._seen.add(key)
        if missing:
            fresh = self.executor.map(list(missing.values()))
            self.simulations += len(missing)
            for key, result in zip(missing, fresh):
                self.cache.put(key, result)
                resolved[key] = result
        return [resolved[key] for key in keys]

    def close(self) -> None:
        """Nothing to release: a save or a hit reaches the disk at once.

        A no-op, kept because ``perfbench/cold.py`` calls it.
        """
