"""The differential fuzzing subsystem (``repro.fuzz``).

Covers the parametric genotype generator (round-trip, determinism,
profiles), the committed edge corpus and kernel-id scheme, a sweep's
in-run dedup and entry shape, the fault drills (a corrupted fast-path
trace *is* caught; the corruptions live in ``fuzz_faults``), the
deterministic shrinker (convergence, 1-minimality, purity), the one
check loop every verdict comes from, and the ``repro.fuzz`` CLI end to
end, including the sweeps it refuses.
"""

from __future__ import annotations

import argparse
import json

import pytest

from fuzz_faults import apply_fault
from repro.analysis import CertificationError
from repro.fuzz.checks import run_check
from repro.fuzz.cli import main as fuzz_main
from repro.fuzz.cli import parse_age
from repro.fuzz.corpus import (
    EDGE_CORPUS,
    edge_kernel_ids,
    resolve_kernel,
    seed_kernel_ids,
)
from repro.fuzz.engine import (
    FUZZ_CONFIGS,
    FuzzJob,
    execute_job,
    make_jobs,
    run_jobs,
)
from repro.fuzz.regressions import ReproCase, load_repros, replay_case
from repro.fuzz.shrink import shrink
from repro.machine import l0_config
from repro.pipeline import KeyedCache
from repro.workloads.generator import (
    PROFILES,
    KernelGenotype,
    random_genotype,
)

#: A (kernel, config, fault) triple known to diverge under injection —
#: the same drill the committed ``fast_vs_ref-unified-03f589d8`` repro
#: records.
DRILL_KERNEL = "seed:default:2"
DRILL_CONFIG = "unified"
DRILL_FAULT = "drop-check-deps"


# ----------------------------------------------------------------------
# Generator and corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_random_genotype_roundtrip_and_determinism(profile):
    first = random_genotype(3, profile)
    again = random_genotype(3, profile)
    assert first.to_json() == again.to_json()
    rebuilt = KernelGenotype.from_json(json.loads(json.dumps(first.to_json())))
    assert rebuilt.to_json() == first.to_json()
    assert rebuilt.fingerprint() == first.fingerprint()
    loop = first.build()
    assert loop.trip_count == first.trip and loop.body


def test_profiles_are_seed_disjoint_streams():
    # The RNG is seeded with "profile:seed", so the same seed under two
    # profiles yields different kernels (no accidental stream sharing).
    fingerprints = {
        random_genotype(0, profile).fingerprint() for profile in PROFILES
    }
    assert len(fingerprints) == len(PROFILES)


def test_edge_corpus_is_stable_and_buildable():
    assert sorted(EDGE_CORPUS) == [
        "alias_storm",
        "bus_storm",
        "carry_chain",
        "fp_feedback",
        "random_table",
        "recurrence_ladder",
        "regpressure_cliff",
        "stride_zero_walk",
        "tiny",
        "wide_fp",
    ]
    for name, genotype in EDGE_CORPUS.items():
        assert genotype.name == f"edge_{name}"
        assert genotype.build().body


def test_kernel_id_scheme():
    assert resolve_kernel("edge:tiny") is EDGE_CORPUS["tiny"]
    assert (
        resolve_kernel("seed:5").fingerprint()
        == resolve_kernel("seed:default:5").fingerprint()
    )
    assert edge_kernel_ids() == [f"edge:{n}" for n in sorted(EDGE_CORPUS)]
    ids = seed_kernel_ids(0, 4, ["default", "bus"])
    assert ids == ["seed:default:0", "seed:bus:1", "seed:default:2", "seed:bus:3"]
    for bad in ("edge:nope", "seed:nope:1", "seed:x", "saxpy"):
        with pytest.raises(ValueError):
            resolve_kernel(bad)
    with pytest.raises(ValueError, match="no generator profile"):
        seed_kernel_ids(0, 3, [])


def test_make_jobs_spread_vs_cross_product():
    kernels = ["seed:0", "seed:1", "seed:2"]
    configs = ["unified", "l0_8"]
    spread = make_jobs(kernels, configs, ("certify",), spread=True)
    assert [j.config_name for j in spread] == ["unified", "l0_8", "unified"]
    crossed = make_jobs(kernels, configs, ("certify",), spread=False)
    assert len(crossed) == len(kernels) * len(configs)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------


def test_run_jobs_dedups_through_the_store(monkeypatch):
    """Within one sweep, a job repeating an earlier one (same genotype
    fingerprint, config name and sorted checks) runs once; nothing
    carries over from one sweep to the next."""
    from repro.fuzz import engine

    executed = []

    def recorded(job):
        executed.append(job)
        return execute_job(job)

    monkeypatch.setattr(engine, "execute_job", recorded)
    jobs = make_jobs(
        ["edge:tiny", "edge:carry_chain"], ["unified"], ("fast_vs_ref",), spread=False
    )
    first = run_jobs(jobs)
    assert (first.total, first.executed, first.clean) == (2, 2, True)
    again = run_jobs(jobs)  # a second sweep runs everything again
    assert (again.executed, again.clean) == (2, True)
    assert "store_hits" not in again.to_json()
    executed.clear()
    # A repeat of each job is collapsed before execution, and so are two
    # ids of one genotype ("seed:0" is "seed:default:0") whose checks
    # differ only in order.
    seeds = [
        FuzzJob("seed:0", "unified", ("certify", "fast_vs_ref")),
        FuzzJob("seed:default:0", "unified", ("fast_vs_ref", "certify")),
    ]
    doubled = run_jobs(jobs + jobs + seeds)
    assert (doubled.total, doubled.executed, doubled.clean) == (6, 3, True)
    assert [job.kernel_id for job in executed] == [
        "edge:tiny",
        "edge:carry_chain",
        "seed:0",
    ]
    # Another config or check set is another job.
    other = [
        FuzzJob("edge:tiny", "l0_8", ("fast_vs_ref",)),
        FuzzJob("edge:tiny", "unified", ("certify",)),
    ]
    assert run_jobs(jobs + other).executed == 4


def test_execute_job_compiles_through_its_own_cache(monkeypatch):
    """A job's checks share one compile cache of the job's own: the
    process-wide cache sees nothing, and ``exact_vs_sms`` and ``certify``
    hit the SMS compile ``fast_vs_ref`` made."""
    from repro.fuzz import checks as checks_module
    from repro.pipeline import get_compile_cache

    caches = []

    class RecordedCache(KeyedCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(checks_module, "KeyedCache", RecordedCache)
    shared = get_compile_cache(None).stats
    before = (shared.hits, shared.misses)
    checks = ("fast_vs_ref", "exact_vs_sms", "certify")
    job = FuzzJob("edge:carry_chain", "l0_8", checks)
    result = execute_job(job)
    assert result["mismatches"] == []
    assert (shared.hits, shared.misses) == before
    (cache,) = caches
    assert (cache.stats.misses, cache.stats.hits) == (2, 2)  # SMS and exact


def test_store_records_mismatches_for_replay(monkeypatch):
    """A mismatching job's entry is what ``execute_job`` returned, with no
    envelope around it: the job and the mismatches a repro is built
    from, equal to a re-run of the same job."""
    apply_fault(monkeypatch, DRILL_FAULT)
    jobs = make_jobs([DRILL_KERNEL], [DRILL_CONFIG], ("fast_vs_ref",), spread=False)
    report = run_jobs(jobs)
    assert not report.clean and report.executed == 1
    [entry] = report.mismatched
    assert set(entry) == {"job", "mismatches"}
    assert entry["job"] == {
        "kernel_id": DRILL_KERNEL,
        "config_name": DRILL_CONFIG,
        "checks": ["fast_vs_ref"],
    }
    assert entry["mismatches"] and entry == execute_job(jobs[0])
    assert report.to_json()["mismatches"] == [entry]


# ----------------------------------------------------------------------
# Fault injection and shrinking
# ----------------------------------------------------------------------


def test_fault_injection_is_caught_and_clean_without_it(monkeypatch):
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    assert run_check("fast_vs_ref", genotype.build(), config) == []
    apply_fault(monkeypatch, DRILL_FAULT)
    hurt = run_check("fast_vs_ref", genotype.build(), config)
    assert hurt, "injected trace corruption must be observable"
    monkeypatch.undo()
    assert run_check("fast_vs_ref", genotype.build(), config) == []


def test_shrinker_converges_deterministically_to_a_minimal_kernel(monkeypatch):
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    apply_fault(monkeypatch, DRILL_FAULT)

    first = shrink(genotype, config, "fast_vs_ref")
    assert first.reproduced
    assert len(first.genotype.ops) <= len(genotype.ops)
    assert first.genotype.trip <= genotype.trip
    assert first.genotype.name == f"{genotype.name}_min"

    # Deterministic: a second run retraces the identical path.
    second = shrink(genotype, config, "fast_vs_ref")
    assert second.genotype.to_json() == first.genotype.to_json()
    assert (second.rounds, second.attempts) == (first.rounds, first.attempts)

    # 1-minimal: the shrunk kernel still reproduces, and no single op
    # can be removed without losing the divergence.
    shrunk = first.genotype
    assert run_check("fast_vs_ref", shrunk.build(), config)
    for index in range(len(shrunk.ops)):
        data = shrunk.to_json()
        data["ops"] = data["ops"][:index] + data["ops"][index + 1 :]
        if not data["ops"]:
            continue
        smaller = KernelGenotype.from_json(data)
        try:
            still = run_check("fast_vs_ref", smaller.build(), config)
        except Exception:
            still = []
        assert not still, f"dropping op {index} still reproduces: not 1-minimal"


def test_certify_check_reports_and_shrinks_a_blocked_config():
    """``compile_cached`` raises on a blocked compile, so the blocked
    schedule never reaches the simulator; the ``certify`` check turns
    the error into mismatches, which the shrinker needs (it counts an
    exception as a different finding)."""
    config = l0_config(8, max_live_per_cluster=2)
    genotype = resolve_kernel("edge:recurrence_ladder")
    with pytest.raises(CertificationError):
        run_check("fast_vs_ref", genotype.build(), config)
    mismatches = run_check("certify", genotype.build(), config)
    assert [m["kind"] for m in mismatches] == ["A008"]
    assert all(m["check"] == "certify" for m in mismatches)

    result = shrink(genotype, config, "certify")
    assert result.reproduced
    assert len(result.genotype.ops) < len(genotype.ops)
    shrunk = run_check("certify", result.genotype.build(), config)
    assert [m["kind"] for m in shrunk] == ["A008"]


def test_sweep_and_replay_share_one_check_loop(monkeypatch):
    """A sweep's job and a repro's replay get their verdict from the same
    loop: equal mismatch lists under the drill fault, none without it."""
    case = ReproCase(
        repro_id="drill",
        genotype=resolve_kernel(DRILL_KERNEL),
        config_name=DRILL_CONFIG,
        check="fast_vs_ref",
    )
    job = FuzzJob(DRILL_KERNEL, DRILL_CONFIG, ("fast_vs_ref",))
    assert execute_job(job)["mismatches"] == []
    assert replay_case(case, checks=job.checks) == []
    apply_fault(monkeypatch, DRILL_FAULT)
    swept = execute_job(job)["mismatches"]
    assert swept and swept == replay_case(case, checks=job.checks)


def test_shrinker_reports_non_reproducing_input():
    result = shrink(
        resolve_kernel("edge:tiny"), FUZZ_CONFIGS["unified"], "fast_vs_ref"
    )
    assert not result.reproduced
    assert result.genotype is not None


# ----------------------------------------------------------------------
# CLIs
# ----------------------------------------------------------------------


def test_fuzz_cli_run_then_cache_verify_roundtrip(tmp_path, capsys, monkeypatch):
    """A plain sweep: clean, every job executed, the JSON summary's fields,
    and nothing written outside the summary (there is no store)."""
    monkeypatch.chdir(tmp_path)
    argv = [
        "--seeds",
        "0:2",
        "--no-edge",
        "--configs",
        "unified",
        "--checks",
        "fast_vs_ref",
        "--regressions-dir",
        str(tmp_path / "repros"),
        "--json",
        "summary.json",
    ]
    assert fuzz_main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("fuzz: 2 jobs, 2 executed, 0 not run (budget), 0 ")
    report = json.loads((tmp_path / "summary.json").read_text())
    assert set(report) == {
        "total",
        "executed",
        "not_run",
        "wall_s",
        "mismatches",
        "clean",
        "repros",
    }
    assert report["clean"] and (report["total"], report["executed"]) == (2, 2)
    assert report["not_run"] == 0
    assert report["mismatches"] == [] and report["repros"] == []
    assert [path.name for path in tmp_path.iterdir()] == ["summary.json"]
    # A second sweep checks the tree again.
    assert fuzz_main(argv) == 0
    assert "2 executed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--checks", ""),
        ("--configs", ""),
        ("--profiles", ""),
        ("--seeds", "200:0"),
    ],
)
def test_fuzz_cli_refuses_a_sweep_spec_that_names_nothing(flag, value, capsys):
    # Such a sweep would check nothing (or divide by an empty config
    # list); refusing it up front keeps a no-op from reading as clean.
    with pytest.raises(SystemExit) as exc:
        fuzz_main(["--seeds", "0:3", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


def test_time_budget_parses_finite_non_negative_seconds():
    assert (parse_age("0"), parse_age("2.5")) == (0.0, 2.5)
    with pytest.raises(argparse.ArgumentTypeError, match="not a number of seconds"):
        parse_age("soon")


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_fuzz_cli_refuses_a_time_budget_that_is_not_seconds(budget, capsys):
    # NaN and infinity would mean no budget at all, and a negative budget
    # would run nothing; each is a usage error before any job runs.
    argv = ["--seeds", "0:1", "--no-edge", "--checks", "certify"]
    with pytest.raises(SystemExit) as exc:
        fuzz_main([*argv, "--configs", "unified", f"--time-budget={budget}"])
    assert exc.value.code == 2
    assert "argument --time-budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), -1.0])
def test_run_jobs_refuses_a_time_budget_that_is_not_seconds(budget):
    jobs = make_jobs(["edge:tiny"], ["unified"], ("certify",), spread=False)
    with pytest.raises(ValueError, match="time_budget_s"):
        run_jobs(jobs, time_budget_s=budget)


def test_fuzz_cli_sweep_of_no_jobs_fails(tmp_path, capsys):
    # A valid spec can still yield no jobs; the sweep checked nothing.
    summary = tmp_path / "summary.json"
    argv = ["--seeds", "0:0", "--no-edge", "--json", str(summary)]
    assert fuzz_main(argv) == 1
    assert "no jobs" in capsys.readouterr().out
    report = json.loads(summary.read_text())
    assert report["total"] == 0 and not report["clean"]


def test_fuzz_cli_fault_drill_writes_a_shrunk_repro(tmp_path, monkeypatch):
    """A serial sweep under the drill fault writes the committed drill
    repro: the same id and shrink statistics."""
    apply_fault(monkeypatch, DRILL_FAULT)
    repros = tmp_path / "repros"
    rc = fuzz_main(
        [
            "--seeds",
            "2:3",
            "--profiles",
            "default",
            "--no-edge",
            "--configs",
            DRILL_CONFIG,
            "--checks",
            "fast_vs_ref",
            "--regressions-dir",
            str(repros),
            "--json",
            str(tmp_path / "summary.json"),
        ]
    )
    assert rc == 1, "a mismatching sweep must gate CI"
    cases = load_repros(repros)
    assert len(cases) == 1
    case = cases[0]
    assert case.check == "fast_vs_ref" and case.config_name == DRILL_CONFIG
    assert case.repro_id == "fast_vs_ref-unified-03f589d8"
    assert case.kernel_id == DRILL_KERNEL and case.note is None
    assert case.shrink == {
        "reproduced": True,
        "rounds": 2,
        "attempts": 38,
        "removed_ops": 9,
    }
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["repros"] == [str(case.path)] and not summary["clean"]
    # The drill repro replays red under the fault (the kernel kept its
    # divergence) and clean without it (the real tree is sound).
    assert replay_case(case)
    monkeypatch.undo()
    assert replay_case(case) == []
