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
