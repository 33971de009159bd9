"""The traced benchmark's contract with the program.

``perfbench/layers.py`` wraps public functions and methods of the
program by name, from outside ``src/``.  Only a long traced benchmark
run (``perfbench/run.py --trace 1``) exercises those wrappers, so a
rename or deletion in the program could break it unnoticed.  These
tests install the wrappers against the live program instead.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import layers  # noqa: E402
from repro.pipeline import get_compile_cache  # noqa: E402


def test_layer_wrappers_install_and_uninstall(monkeypatch):
    # install() points the pool-worker hook at its recorder; restore it.
    monkeypatch.setattr(layers, "_WORKER_RECORDER", layers._WORKER_RECORDER)
    undo = layers.install(layers.Recorder(), layers.Recorder())
    patched = list(undo)
    try:
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, (owner, attr)
    finally:
        layers.uninstall(undo)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)


def test_compile_stats_reads_the_cache_counters():
    counters = layers.compile_stats(None)
    assert len(counters) == 3
    stats = get_compile_cache(None).stats
    for name, value in counters.items():
        assert value == getattr(stats, name.removeprefix("compile."))


def test_compile_steps_reach_their_layers(monkeypatch):
    """Each compile runs every step once through ``Pass.__call__``, so the
    traced ``frontend.*`` and ``scheduler.*`` metrics see every compile."""
    from repro.machine import l0_config
    from repro.pipeline import CompileOptions, KeyedCache, compilecache
    from repro.workloads.kernels import make_saxpy

    monkeypatch.setattr(layers, "_WORKER_RECORDER", layers._WORKER_RECORDER)
    rec = layers.Recorder()
    undo = layers.install(rec, layers.Recorder())
    try:
        cache = KeyedCache()
        for scheduler in ("sms", "exact"):
            compilecache.compile_cached(
                make_saxpy(),
                l0_config(8),
                CompileOptions(scheduler=scheduler),
                cache=cache,
            )
    finally:
        layers.uninstall(undo)
    # Four frontend steps per compile; SMS inside the exact search is
    # not a step of its own.
    expected = {
        "frontend": 8,
        "scheduler.policy": 2,
        "scheduler.sms": 1,
        "scheduler.exact": 1,
        "compile": 2,
    }
    outer_calls = {layer: rec.totals.get(layer, [0])[0] for layer in expected}
    assert outer_calls == expected


def test_simulation_reaches_every_memory_layer(monkeypatch):
    """A small loop on each memory model, run by each executor under the
    installed wrappers: both executors make the same outer calls on the
    model's ``memory.<model>`` layer, and ``sim.run`` records one span
    per ``TraceExecutor.run``."""
    from repro.isa import MemoryLayout
    from repro.machine import (
        interleaved_config,
        l0_config,
        multivliw_config,
        unified_config,
    )
    from repro.scheduler import compile_loop
    from repro.sim import LoopExecutor, TraceExecutor, make_memory
    from repro.workloads.kernels import make_saxpy

    monkeypatch.setattr(layers, "_WORKER_RECORDER", layers._WORKER_RECORDER)
    machines = (
        ("memory.unified", unified_config()),
        ("memory.unified", l0_config(8)),
        ("memory.multivliw", multivliw_config()),
        ("memory.interleaved", interleaved_config()),
    )
    runs = 2
    for layer, config in machines:
        label = config.arch.value
        compiled = compile_loop(make_saxpy(trip=48, n=128), config)
        outer_calls = {}
        for executor_cls in (LoopExecutor, TraceExecutor):
            rec = layers.Recorder()
            undo = layers.install(rec, layers.Recorder())
            try:
                memory = make_memory(config)
                executor = executor_cls(
                    compiled, memory, MemoryLayout(align=config.l1_block)
                )
                clock = 0
                for _ in range(runs):
                    clock += executor.run(48, start_cycle=clock).total_cycles
            finally:
                layers.uninstall(undo)
            outer_calls[executor_cls] = rec.totals.get(layer, [0])[0]
            sim_spans = [span for span in rec.spans if span[2] == "sim.run"]
            expected_runs = runs if executor_cls is TraceExecutor else 0
            assert len(sim_spans) == expected_runs, (label, executor_cls)
            assert rec.totals.get("sim.run", [0])[0] == expected_runs
        assert outer_calls[TraceExecutor] > 0, label
        assert outer_calls[LoopExecutor] == outer_calls[TraceExecutor], label
