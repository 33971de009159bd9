"""Integration tests for the independent static certifier.

The certifier (``repro.analysis``) re-derives schedule legality from
scratch; these tests prove (a) the whole kernel zoo certifies cleanly
under both scheduler backends, (b) the pipeline/CLI wiring works, and
(c) the optimality review downgrades exactly the claims it cannot
re-establish.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Diagnostic, Severity, blocking
from repro.analysis.certify import (
    _optimality_review,
    certify_compiled,
    certify_schedule,
)
from repro.analysis.l0check import audit_flush_plan
from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import KeyedCache
from repro.pipeline.compilecache import compile_cached, compile_key
from repro.pipeline.passes import CompileOptions
from repro.sim.runner import LoopPlan
from repro.workloads import kernels

CONFIGS = (unified_config(), l0_config(), multivliw_config(), interleaved_config())


def _zoo():
    return [
        kernels.make_saxpy(),
        kernels.make_dpcm(),
        kernels.make_column(),
        kernels.multi_stream("an_mix", trip=64, n=512, inputs=6, alu_depth=8),
        kernels.feedback("an_fb", trip=64, n=256),
    ]


@pytest.fixture(scope="module")
def cache():
    return KeyedCache()


# ----------------------------------------------------------------------
# The zoo certifies cleanly
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["sms", "exact"])
def test_zoo_certifies_clean_under_both_backends(cache, scheduler):
    for loop in _zoo():
        for config in CONFIGS:
            compiled = compile_cached(
                loop, config, CompileOptions(scheduler=scheduler), cache=cache
            )
            diags = certify_compiled(compiled)
            assert diags == [], (
                loop.name,
                config.arch,
                [d.render() for d in diags],
            )
            verdict = compiled.schedule.meta["analysis"]
            assert verdict["verdict"] == "certified"
            assert verdict["codes"] == []


def test_certify_stamps_provenance(cache):
    compiled = compile_cached(
        kernels.make_saxpy(), unified_config(), CompileOptions(), cache=cache
    )
    compiled = copy.deepcopy(compiled)
    uid = next(iter(compiled.schedule.placed))
    del compiled.schedule.placed[uid]
    diags = certify_compiled(compiled, artifact_key="deadbeef")
    assert diags
    assert all(d.loop == compiled.schedule.loop_name for d in diags)
    assert all(d.origin == "deadbeef" for d in diags)
    assert compiled.schedule.meta["analysis"]["verdict"] == "flagged"


# ----------------------------------------------------------------------
# Pipeline / compile-path wiring
# ----------------------------------------------------------------------


def test_compile_cached_analyze_option(cache):
    compiled = compile_cached(
        kernels.make_dpcm(),
        l0_config(),
        CompileOptions(analyze=True),
        cache=cache,
    )
    assert compiled.schedule.meta["analysis"]["verdict"] == "certified"


def test_scheduler_and_experiments_load_no_checker():
    """The checkers import the scheduler's data types, so the scheduler
    imports them only inside the exact search's re-check, and a figure
    run loads none of them."""
    code = (
        "import sys, repro.scheduler, repro.eval.experiments; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": paths},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"


def test_cli_audit_over_disk_store(tmp_path):
    from repro.analysis.__main__ import audit_compile_store

    store = tmp_path / "compile-cache"
    disk = KeyedCache(store)
    compile_cached(kernels.make_saxpy(), l0_config(), CompileOptions(), cache=disk)
    compile_cached(
        kernels.make_saxpy(), l0_config(), CompileOptions(scheduler="exact"), cache=disk
    )
    lines: list[str] = []
    assert audit_compile_store(store, echo=lambda m, file=None: lines.append(m)) == 0
    assert any("2 artifacts audited" in line for line in lines)
    # The --min floor guards CI against auditing an empty cache.
    assert audit_compile_store(store, min_artifacts=3) == 1
    assert audit_compile_store(tmp_path / "missing", min_artifacts=1) == 1
    # A flagged artifact is labelled from its own loop and schedule.
    key = compile_key(kernels.make_saxpy(), l0_config(), CompileOptions())
    broken = disk.get(key)
    broken.schedule.placed.pop(next(iter(broken.schedule.placed)))
    disk.put(key, broken)
    lines.clear()
    assert audit_compile_store(store, echo=lambda m, file=None: lines.append(m)) == 1
    assert f"FLAGGED {key[:12]} loop=saxpy scheduler=sms" in lines


def test_audit_leaves_entry_mtimes_alone(tmp_path):
    """Auditing reads every artifact but refreshes no mtime, so it cannot
    reorder what ``repro.cache gc`` evicts: neither ``repro.analysis
    audit`` nor ``repro.cache verify``."""
    from repro.analysis.__main__ import audit_compile_store
    from repro.cache import main as cache_main

    store = tmp_path / "compile-cache"
    disk = KeyedCache(store)
    compile_cached(kernels.make_saxpy(), l0_config(), CompileOptions(), cache=disk)
    compile_cached(
        kernels.make_saxpy(), l0_config(), CompileOptions(scheduler="exact"), cache=disk
    )
    files = sorted(store.glob("*.pkl"))
    assert len(files) == 2
    for age, file in enumerate(files):
        os.utime(file, (1000.0 + age, 1000.0 + age))
    before = {file.name: file.stat().st_mtime for file in files}
    lines: list[str] = []
    assert audit_compile_store(store, echo=lambda m, file=None: lines.append(m)) == 0
    assert any("2 artifacts audited" in line for line in lines)
    assert {file.name: file.stat().st_mtime for file in files} == before
    argv = [
        "--cache-dir",
        str(tmp_path / "no-results"),
        "--compile-cache-dir",
        str(store),
        "--fuzz-cache-dir",
        str(tmp_path / "no-fuzz"),
        "verify",
    ]
    assert cache_main(argv) == 0
    assert {file.name: file.stat().st_mtime for file in files} == before


# ----------------------------------------------------------------------
# Optimality review (A014)
# ----------------------------------------------------------------------


def _exact_compiled(cache):
    loop = kernels.multi_stream("an_mix", trip=64, n=512, inputs=6, alu_depth=8)
    return compile_cached(
        loop, l0_config(), CompileOptions(scheduler="exact"), cache=cache
    )


def test_lower_bound_proof_survives_bus_saturation(cache):
    compiled = copy.deepcopy(_exact_compiled(cache))
    sched = compiled.schedule
    assert sched.meta["proved_optimal"] is True
    assert sched.ii <= sched.meta["mii"]  # lower-bound proof
    assert _optimality_review(sched) == []
    assert sched.meta["proved_optimal"] is True


def test_search_proof_downgraded_on_bus_binding_rows(cache):
    compiled = copy.deepcopy(_exact_compiled(cache))
    sched = compiled.schedule
    assert sched.comms, "fixture must exercise the bus"
    # Forge a search-refutation proof (II > MII) and saturate one row's
    # buses with *legal* duplicate transfers: binding, not oversubscribed.
    sched.meta["mii"] = sched.ii - 1
    template = sched.comms[0]
    row = template.start % sched.ii
    in_row = sum(1 for c in sched.comms if c.start % sched.ii == row)
    for _ in range(sched.config.n_buses - in_row):
        sched.comms.append(copy.copy(template))
    diags = certify_schedule(sched, compiled.ddg)
    assert [d.code for d in diags] == ["A014"]
    assert diags[0].severity is Severity.NOTE
    assert not blocking(diags)  # advisory: the schedule itself is legal
    assert sched.meta["proved_optimal"] == "unverified"
    assert sched.meta["analysis"]["verdict"] == "certified"
    assert row in sched.meta["analysis"]["bus_binding_rows"]
    # Re-certifying an already-downgraded artifact keeps the note.
    assert any(d.code == "A014" for d in certify_schedule(sched, compiled.ddg))


def test_sms_schedules_never_reviewed(cache):
    compiled = compile_cached(
        kernels.make_saxpy(), multivliw_config(), CompileOptions(), cache=cache
    )
    sched = copy.deepcopy(compiled.schedule)
    assert "mii" not in sched.meta
    assert _optimality_review(sched) == []


# ----------------------------------------------------------------------
# Flush-plan audit (A011)
# ----------------------------------------------------------------------


def _plan(loop, *, invocations=1, flush_between=False, flush_after=True):
    return LoopPlan(
        loop=loop,
        invocations=invocations,
        config=l0_config(),
        options=None,
        layout=None,
        flush_between=flush_between,
        flush_after=flush_after,
    )


def test_flush_audit_clean_when_flushes_cover():
    fb = kernels.feedback("an_fb2", trip=64, n=256)
    # Same state array back-to-back, but the first loop flushes after.
    plans = [_plan(fb, flush_after=True), _plan(fb, flush_after=True)]
    assert audit_flush_plan(plans) == []
    # Multi-invocation self-conflict covered by a between flush.
    plans = [_plan(fb, invocations=3, flush_between=True, flush_after=True)]
    assert audit_flush_plan(plans) == []


def test_flush_audit_flags_missing_flushes():
    fb = kernels.feedback("an_fb3", trip=64, n=256)
    # Cross-loop: first loop leaves its entries resident.
    plans = [_plan(fb, flush_after=False), _plan(fb, flush_after=True)]
    diags = audit_flush_plan(plans)
    assert [d.code for d in diags] == ["A011"]
    # Self-conflict: re-reads stored data but skips the between flush.
    plans = [_plan(fb, invocations=3, flush_between=False, flush_after=True)]
    assert [d.code for d in audit_flush_plan(plans)] == ["A011"]


def test_flush_audit_ignores_disjoint_streams():
    mix = kernels.multi_stream("an_mix2", trip=64, n=512)
    other = kernels.multi_stream("an_mix3", trip=64, n=512)
    plans = [_plan(mix, flush_after=False), _plan(other, flush_after=False)]
    assert audit_flush_plan(plans) == []


# ----------------------------------------------------------------------
# Diagnostic type basics
# ----------------------------------------------------------------------


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic.new("A999", "no such code")


def test_render_and_str_shim():
    d = Diagnostic.new("A002", "value late", loop="saxpy", origin="abc123")
    assert d.render() == "A002 [error] (loop=saxpy, abc123): value late"
