"""Compiler throughput: modulo-scheduling speed across the suite.

Not a paper artifact — a regression guard on the scheduler's cost
(ejection storms or window bugs show up here as big slowdowns).
Compiles through a fresh per-call cache so every iteration measures the
real pipeline, not a compile-cache lookup.
"""

from repro.machine import l0_config, unified_config
from repro.pipeline import KeyedCache, compile_cached
from repro.workloads import build


def _compile_suite(config):
    cache = KeyedCache()
    compiled = []
    for name in ("g721dec", "jpegdec", "rasta"):
        for spec in build(name).loops:
            compiled.append(compile_cached(spec.loop, config, cache=cache))
    return compiled


def test_compile_throughput_baseline(benchmark):
    results = benchmark(_compile_suite, unified_config())
    assert all(r.schedule.validate(r.ddg) == [] for r in results)


def test_compile_throughput_l0(benchmark):
    results = benchmark(_compile_suite, l0_config(8))
    assert all(r.schedule.validate(r.ddg) == [] for r in results)
