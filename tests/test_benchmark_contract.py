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
