"""Per-layer span recorder, wrapped around the program from outside.

The benchmark never edits ``src/``: :func:`install` replaces public
functions and methods of the program, at module or class level, with
timing wrappers before the workload starts.  Each wrapper opens a span
on entry and closes it on exit.  Spans nest through an explicit stack,
so a layer's *self* time is its inclusive time minus the time of the
spans it caused, and the self times of all layers in one process add up
to the root span (the experiment call).

Fine-grained spans (memory-model calls, millions per run) are only
aggregated per layer.  Coarse spans (compiles, passes, loop runs, store
I/O, executor batches) are also kept as records in memory and written
out when the run ends.
"""

from __future__ import annotations

import functools
import os
import time

#: Layers whose individual spans are kept as records (the rest are only
#: aggregated: there are millions of them).
COARSE = frozenset({
    "compile",
    "frontend",
    "scheduler.policy",
    "scheduler.sms",
    "scheduler.exact",
    "sim.plan",
    "sim.trace_build",
    "sim.stitch",
    "sim.run",
    "store.save",
    "store.load",
    "executor.map",
    "workloads.build",
})

#: Methods every memory model offers the executors.
MEMORY_ENTRY_POINTS = (
    "load",
    "store",
    "load_run",
    "store_run",
    "prefetch",
    "invalidate_l0",
)

#: Pass name -> layer name.
PASS_LAYERS = {
    "select-unroll": "frontend",
    "apply-unroll": "frontend",
    "mem-disambiguation": "frontend",
    "build-ddg": "frontend",
    "select-policy": "scheduler.policy",
    "modulo-schedule": "scheduler.sms",
    "exact-schedule": "scheduler.exact",
}


class Recorder:
    """Span stack plus per-layer totals.

    ``totals[layer]`` is ``[outer_calls, outer_inclusive_s, self_s,
    all_calls]``.  A span nested directly inside a span of the same
    layer (``load_run`` calling ``load``) adds to the layer's self time
    and ``all_calls`` only, so inclusive time is never counted twice.
    """

    ROOT = "other"

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.totals: dict[str, list] = {}
        #: Coarse span records: (span_id, parent_id, layer, start, end).
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded; the stack restarts at the root."""
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0, 0]
        self.spans.clear()
        self.counters.clear()
        # Frame: [child_s, span_id, layer]
        self._stack = [[0.0, -1, self.ROOT]]
        self._root_start = self.clock()

    def layer(self, name: str) -> list:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0, 0]
        return entry

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def enter(self, name: str, keep: bool = False) -> list:
        """Open a span; ``keep`` also records it in :attr:`spans`."""
        parent = self._stack[-1]
        span_id = -1
        if keep:
            span_id = len(self.spans)
            self.spans.append(None)
        frame = [0.0, span_id, name, parent[1], self.clock()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = self.clock()
        child_s, span_id, name, parent_id, start = frame
        duration = end - start
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[0] += duration
        entry = self.layer(name)
        entry[2] += duration - child_s
        entry[3] += 1
        if parent[2] != name:
            entry[0] += 1
            entry[1] += duration
        if span_id >= 0:
            self.spans[span_id] = (span_id, parent_id, name, start, end)
        return duration

    def close_root(self) -> float:
        """Charge the root's unattributed time; returns the root's span."""
        root = self._stack[0]
        duration = self.clock() - self._root_start
        entry = self.layer(self.ROOT)
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - root[0]
        entry[3] += 1
        root[0] = 0.0
        self._root_start = self.clock()
        return duration

    def self_times(self) -> dict[str, float]:
        return {name: entry[2] for name, entry in self.totals.items()}

    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
        }

    def merge(self, snapshot: dict) -> None:
        """Add another process's totals and counters into this one."""
        for name, values in snapshot["totals"].items():
            entry = self.layer(name)
            for k, v in enumerate(values):
                entry[k] += v
        for name, value in snapshot["counters"].items():
            self.count(name, value)


def self_times(spans) -> dict[str, float]:
    """Per-layer self time of a list of ``(id, parent, layer, start, end)``.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  Used to check the recorder's running totals
    against its own span records.
    """
    child: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    out: dict[str, float] = {}
    for span_id, _, layer, start, end in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - child.get(span_id, 0.0)
    return out


def _timed(rec: Recorder, name: str, fn):
    enter, exit_ = rec.enter, rec.exit
    keep = name in COARSE

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = enter(name, keep)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(frame)

    return wrapper


def _patch(owner, attr: str, wrapper, undo: list) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, wrapper)


def install(rec: Recorder, workers: Recorder) -> list:
    """Wrap the program's layer entry points; returns the undo list.

    Spans run in this process go to ``rec``; the totals pool workers
    ship back with their results are merged into ``workers``.
    """
    from repro.eval import experiments
    from repro.memory.bus import ClusterBus
    from repro.memory.hierarchy import UnifiedMemory
    from repro.memory.interleaved import WordInterleavedMemory
    from repro.memory.l0buffer import L0Buffer
    from repro.memory.l1cache import SetAssocCache
    from repro.memory.multivliw import MultiVLIWMemory
    from repro.pipeline import cache as store_mod
    from repro.pipeline import compilecache, executor, passes
    from repro.sim import runner, trace
    from repro.workloads import mediabench

    undo: list = []

    build = _timed(rec, "workloads.build", mediabench.build)
    _patch(mediabench, "build", build, undo)
    _patch(experiments, "build", build, undo)
    _patch(
        compilecache,
        "compile_cached",
        _timed(rec, "compile", compilecache.compile_cached),
        undo,
    )

    original_pass_call = passes.Pass.__call__
    pass_wrappers = {
        name: _timed(rec, layer, original_pass_call)
        for name, layer in PASS_LAYERS.items()
    }

    def pass_call(self, artifact):
        return pass_wrappers.get(self.name, original_pass_call)(self, artifact)

    _patch(passes.Pass, "__call__", pass_call, undo)

    _patch(runner, "plan_program", _timed(rec, "sim.plan", runner.plan_program), undo)
    _patch(runner, "merge_stats", _timed(rec, "sim.stitch", runner.merge_stats), undo)
    trace_build = _timed(rec, "sim.trace_build", trace.static_trace)
    _patch(trace, "static_trace", trace_build, undo)

    timed_run = _timed(rec, "sim.run", trace.TraceExecutor.run)

    def executor_run(self, iterations, **kwargs):
        result = timed_run(self, iterations, **kwargs)
        rec.count("sim.converged_runs", 1 if self.last_converged else 0)
        return result

    _patch(trace.TraceExecutor, "run", executor_run, undo)

    for cls, layer in (
        (UnifiedMemory, "memory.unified"),
        (MultiVLIWMemory, "memory.multivliw"),
        (WordInterleavedMemory, "memory.interleaved"),
    ):
        for attr in MEMORY_ENTRY_POINTS:
            _patch(cls, attr, _timed(rec, layer, cls.__dict__[attr]), undo)
    for attr in (
        "find",
        "access",
        "fill_linear",
        "fill_interleaved",
        "store_update",
        "invalidate_matching",
        "invalidate_all",
        "is_edge_element",
    ):
        _patch(L0Buffer, attr, _timed(rec, "l0", L0Buffer.__dict__[attr]), undo)
    for attr in ("probe", "load", "store", "invalidate", "invalidate_all"):
        l1_method = _timed(rec, "l1", SetAssocCache.__dict__[attr])
        _patch(SetAssocCache, attr, l1_method, undo)
    _patch(ClusterBus, "grant", _timed(rec, "bus", ClusterBus.grant), undo)

    store = store_mod.KeyedFileStore
    timed_save = _timed(rec, "store.save", store.save)

    def store_save(self, key, value, **kwargs):
        timed_save(self, key, value, **kwargs)
        try:
            size = (self.path / f"{key}{self.suffix}").stat().st_size
        except OSError:
            size = 0
        rec.count("store.bytes", size)

    _patch(store, "save", store_save, undo)
    _patch(store, "load", _timed(rec, "store.load", store.load), undo)

    timed_map = _timed(rec, "executor.map", executor.ParallelExecutor.map)

    def parallel_map(self, requests, fn=executor.execute_request):
        requests = list(requests)
        job = functools.partial(_in_worker, os.getpid(), fn)
        out = timed_map(self, requests, fn=job)
        results = []
        for result, snapshot in out:
            if snapshot is not None:
                workers.merge(snapshot)
            results.append(result)
        workers.count("executor.jobs", len(requests))
        workers.counters["executor.workers"] = self.workers
        return results

    _patch(executor.ParallelExecutor, "map", parallel_map, undo)
    global _WORKER_RECORDER
    _WORKER_RECORDER = rec
    return undo


def compile_stats(path) -> dict:
    """This process's compile-cache counters for the store at ``path``."""
    from repro.pipeline.compilecache import get_compile_cache

    stats = get_compile_cache(path).stats
    return {
        "compile.full_misses": stats.full_misses,
        "compile.frontend_hits": stats.frontend_hits,
        "compile.frontend_misses": stats.frontend_misses,
    }


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


#: The recorder a forked pool worker inherits from the benchmark process.
_WORKER_RECORDER: Recorder | None = None


def _in_worker(parent_pid: int, fn, job):
    """Run one pool job and ship the worker's layer totals back with it.

    ``job`` is a session ``RunRequest``: the session's batch is the only
    parallel map the workloads make.

    Pool workers are forked after :func:`install`, so they run the
    wrapped program with a copy of the parent's recorder; each job
    starts that copy afresh and returns what it recorded, including the
    job's CPU time and its worker's compile-cache counters.
    """
    rec = _WORKER_RECORDER
    if rec is None or os.getpid() == parent_pid:
        return fn(job), None
    before = compile_stats(job.options.compile_cache_dir)
    rec.reset()
    cpu0 = time.process_time()
    result = fn(job)
    rec.count("executor.worker_cpu_s", time.process_time() - cpu0)
    after = compile_stats(job.options.compile_cache_dir)
    for name, value in after.items():
        rec.count(name, value - before[name])
    rec.close_root()
    rec.totals.pop(Recorder.ROOT, None)
    return result, rec.snapshot()
