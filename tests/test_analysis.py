"""Integration tests for the independent static certifier.

The certifier (``repro.analysis``) re-derives schedule legality from
scratch; these tests prove (a) the whole kernel zoo certifies cleanly
under both scheduler backends, (b) ``compile_cached`` fails closed: a
blocked compile raises and stores nothing, serially, through the
worker fleet and from the exact search, and (c) the optimality review
downgrades exactly the claims it cannot re-establish.
"""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import CertificationError, Diagnostic, Severity, blocking
from repro.analysis.certify import _optimality_review, certify_compiled
from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import KeyedCache, RequestError, RunRequest, Session
from repro.pipeline.compilecache import compile_cached
from repro.pipeline.passes import CompileOptions
from repro.sim.runner import SimOptions
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


def test_scheduler_and_experiments_load_no_checker():
    """Loading the scheduler, the pipeline or the figure code loads no
    checker: the checkers import the scheduler's data types, and
    ``compile_cached`` imports the certifier inside the call."""
    code = (
        "import sys, repro.scheduler, repro.pipeline, repro.eval.experiments; "
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


#: Table 2's machine with a 2-register file per cluster: every jpegdec
#: loop needs more, so the certifier blocks all four (A008).
CAPPED = l0_config(8, max_live_per_cluster=2)


def test_blocked_compile_raises_and_stores_nothing(tmp_path):
    from repro.workloads.mediabench import build

    disk = KeyedCache(tmp_path / "compile-cache")
    loops = [spec.loop for spec in build("jpegdec").loops]
    assert len(loops) == 4
    for loop in loops:
        with pytest.raises(CertificationError) as blocked:
            compile_cached(loop, CAPPED, cache=disk)
        error = blocked.value
        assert error.loop == loop.name
        assert error.diagnostics
        assert {d.code for d in error.diagnostics} == {"A008"}
        assert "A008" in str(error) and loop.name in str(error)
        # The loop name and findings ride in args: the error pickles.
        restored = pickle.loads(pickle.dumps(error))
        assert (restored.loop, restored.diagnostics) == (error.loop, error.diagnostics)
        assert str(restored) == str(error)
        # Nothing was stored, so a second compile fails the same way.
        with pytest.raises(CertificationError):
            compile_cached(loop, CAPPED, cache=disk)
    assert list((tmp_path / "compile-cache").glob("*.pkl")) == []
    assert disk.stats.hits == 0
    # Under the Table-2 register file the same loops certify and are
    # stored with their verdict.
    for loop in loops:
        compile_cached(loop, l0_config(8), cache=disk)
        served = compile_cached(loop, l0_config(8), cache=disk)
        assert served.schedule.meta["analysis"]["verdict"] == "certified"
    assert disk.stats.hits == 4


def test_blocked_config_fails_the_parallel_run():
    options = SimOptions(sim_cap=25)
    requests = [
        RunRequest("jpegdec", CAPPED, options),
        RunRequest("g721dec", CAPPED, options),
    ]
    with pytest.raises(RequestError) as failed:
        Session(options=options, workers=2).run_many(requests)
    assert failed.value.cause_type == "CertificationError"
    assert failed.value.description["benchmark"] in ("jpegdec", "g721dec")
    assert "A008" in str(failed.value)


def test_exact_search_bug_raises_instead_of_falling_back(monkeypatch):
    """A searcher that hands back an illegal schedule is caught by the
    certification in ``compile_cached``, not reported as a budget
    fallback."""
    from repro.scheduler.exact import ExactScheduler
    from repro.workloads.mediabench import build

    loop = next(
        spec.loop for spec in build("gsmenc").loops if spec.loop.name == "gsme_autoc"
    )
    options = CompileOptions(scheduler="exact")
    clean = compile_cached(loop, l0_config(4), options, cache=KeyedCache())
    assert clean.schedule.meta["improved"], "fixture must reach the search result"

    search = ExactScheduler._search

    def drop_one_op(self, ii, span_hint):
        found = search(self, ii, span_hint)
        if found is not None:
            del found.placed[next(iter(found.placed))]
        return found

    monkeypatch.setattr(ExactScheduler, "_search", drop_one_op)
    with pytest.raises(CertificationError) as blocked:
        compile_cached(loop, l0_config(4), options, cache=KeyedCache())
    assert "A001" in {d.code for d in blocked.value.diagnostics}


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
    diags = certify_compiled(compiled)
    assert [d.code for d in diags] == ["A014"]
    assert diags[0].severity is Severity.NOTE
    assert not blocking(diags)  # advisory: the schedule itself is legal
    assert sched.meta["proved_optimal"] == "unverified"
    assert sched.meta["analysis"]["verdict"] == "certified"
    assert row in sched.meta["analysis"]["bus_binding_rows"]
    # Re-certifying an already-downgraded artifact keeps the note.
    assert any(d.code == "A014" for d in certify_compiled(compiled))


def test_sms_schedules_never_reviewed(cache):
    compiled = compile_cached(
        kernels.make_saxpy(), multivliw_config(), CompileOptions(), cache=cache
    )
    sched = copy.deepcopy(compiled.schedule)
    assert "mii" not in sched.meta
    assert _optimality_review(sched) == []


# ----------------------------------------------------------------------
# Diagnostic type basics
# ----------------------------------------------------------------------


def test_unknown_code_rejected():
    with pytest.raises(ValueError):
        Diagnostic.new("A999", "no such code")


def test_render_and_str_shim():
    d = Diagnostic.new("A002", "value late", loop="saxpy", origin="abc123")
    assert d.render() == "A002 [error] (loop=saxpy, abc123): value late"
