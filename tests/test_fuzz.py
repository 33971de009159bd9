"""The differential fuzzing subsystem (``repro.fuzz``).

Covers the parametric genotype generator (round-trip, determinism,
profiles), the committed edge corpus and kernel-id scheme, the
content-addressed fuzz store (dedup, key sensitivity), the fault-
injection drills (a corrupted fast-path trace *is* caught), the
deterministic shrinker (convergence, 1-minimality, purity), the one
check loop every verdict comes from, and both CLIs (``repro.fuzz`` end
to end, including the sweeps it refuses, and ``repro.cache`` over the
fuzz store).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import CertificationError
from repro.cache import main as cache_main
from repro.fuzz.checks import FuzzOptions, run_check
from repro.fuzz.cli import main as fuzz_main
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
    job_store_key,
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
#: the same drill the committed ``fast_vs_ref-unified-*`` repro records.
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
# Store
# ----------------------------------------------------------------------


def test_job_store_key_sensitivity():
    job = FuzzJob("edge:tiny", "unified", ("certify", "fast_vs_ref"))
    base = job.key(FuzzOptions())
    assert base == job.key(FuzzOptions())  # stable
    assert base != job.key(FuzzOptions(exact_node_budget=99))
    assert base != job.key(FuzzOptions(fault=DRILL_FAULT))
    assert base != FuzzJob("edge:tiny", "l0_8", job.checks).key(FuzzOptions())
    assert base != FuzzJob("edge:tiny", "unified", ("certify",)).key(FuzzOptions())
    # Check order is canonicalised away.
    fingerprint = resolve_kernel("edge:tiny").fingerprint()
    assert job_store_key(
        fingerprint, FUZZ_CONFIGS["unified"], ("fast_vs_ref", "certify"), FuzzOptions()
    ) == base


def test_run_jobs_dedups_through_the_store(tmp_path):
    jobs = make_jobs(
        ["edge:tiny", "edge:carry_chain"], ["unified"], ("fast_vs_ref",), spread=False
    )
    store = KeyedCache(tmp_path / "store")
    cold = run_jobs(jobs, store=store)
    assert (cold.executed, cold.store_hits) == (2, 0)
    assert cold.clean
    warm = run_jobs(jobs, store=KeyedCache(tmp_path / "store"))
    assert (warm.executed, warm.store_hits) == (0, 2)
    assert warm.clean
    # A duplicate job (same content key) is collapsed before execution.
    doubled = run_jobs(jobs + jobs, store=KeyedCache(tmp_path / "store"))
    assert (doubled.total, doubled.executed, doubled.store_hits) == (4, 0, 2)


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
    result = execute_job((job, FuzzOptions()))
    assert result["mismatches"] == []
    assert (shared.hits, shared.misses) == before
    (cache,) = caches
    assert (cache.stats.misses, cache.stats.hits) == (2, 2)  # SMS and exact


def test_store_records_mismatches_for_replay(tmp_path):
    jobs = make_jobs([DRILL_KERNEL], [DRILL_CONFIG], ("fast_vs_ref",), spread=False)
    options = FuzzOptions(fault=DRILL_FAULT)
    store = KeyedCache(tmp_path / "store")
    report = run_jobs(jobs, options=options, store=store)
    assert not report.clean and len(report.mismatched) == 1
    # The verdict (not just cleanliness) is cached: a second run serves
    # the same mismatch from the store without re-simulating.
    again = run_jobs(jobs, options=options, store=KeyedCache(tmp_path / "store"))
    assert again.executed == 0 and len(again.mismatched) == 1
    entry = again.mismatched[0]
    assert entry["job"] == report.mismatched[0]["job"]
    assert entry["mismatches"] == report.mismatched[0]["mismatches"]
    assert entry["job"]["kernel_id"] == DRILL_KERNEL
    # The entry is what execute_job returned, with no envelope around it.
    assert set(entry) == {"job", "mismatches"}


# ----------------------------------------------------------------------
# Fault injection and shrinking
# ----------------------------------------------------------------------


def test_fault_injection_is_caught_and_clean_without_it():
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    clean = run_check("fast_vs_ref", genotype.build(), config, FuzzOptions())
    assert clean == []
    hurt = run_check(
        "fast_vs_ref", genotype.build(), config, FuzzOptions(fault=DRILL_FAULT)
    )
    assert hurt, "injected trace corruption must be observable"


def test_shrinker_converges_deterministically_to_a_minimal_kernel():
    genotype = resolve_kernel(DRILL_KERNEL)
    config = FUZZ_CONFIGS[DRILL_CONFIG]
    options = FuzzOptions(fault=DRILL_FAULT)

    first = shrink(genotype, config, "fast_vs_ref", options)
    assert first.reproduced
    assert len(first.genotype.ops) <= len(genotype.ops)
    assert first.genotype.trip <= genotype.trip
    assert first.genotype.name == f"{genotype.name}_min"

    # Deterministic: a second run retraces the identical path.
    second = shrink(genotype, config, "fast_vs_ref", options)
    assert second.genotype.to_json() == first.genotype.to_json()
    assert (second.rounds, second.attempts) == (first.rounds, first.attempts)

    # 1-minimal: the shrunk kernel still reproduces, and no single op
    # can be removed without losing the divergence.
    shrunk = first.genotype
    assert run_check("fast_vs_ref", shrunk.build(), config, options)
    for index in range(len(shrunk.ops)):
        data = shrunk.to_json()
        data["ops"] = data["ops"][:index] + data["ops"][index + 1 :]
        if not data["ops"]:
            continue
        smaller = KernelGenotype.from_json(data)
        try:
            still = run_check("fast_vs_ref", smaller.build(), config, options)
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
        run_check("fast_vs_ref", genotype.build(), config, FuzzOptions())
    mismatches = run_check("certify", genotype.build(), config, FuzzOptions())
    assert [m["kind"] for m in mismatches] == ["A008"]
    assert all(m["check"] == "certify" for m in mismatches)

    result = shrink(genotype, config, "certify")
    assert result.reproduced
    assert len(result.genotype.ops) < len(genotype.ops)
    shrunk = run_check("certify", result.genotype.build(), config, FuzzOptions())
    assert [m["kind"] for m in shrunk] == ["A008"]


def test_sweep_and_replay_share_one_check_loop():
    """A sweep's job and a repro's replay get their verdict from the same
    loop: equal mismatch lists under the drill fault, none without it."""
    case = ReproCase(
        repro_id="drill",
        genotype=resolve_kernel(DRILL_KERNEL),
        config_name=DRILL_CONFIG,
        check="fast_vs_ref",
    )
    job = FuzzJob(DRILL_KERNEL, DRILL_CONFIG, ("fast_vs_ref",))
    faulted = FuzzOptions(fault=DRILL_FAULT)
    swept = execute_job((job, faulted))["mismatches"]
    assert swept and swept == replay_case(case, checks=job.checks, options=faulted)
    assert execute_job((job, FuzzOptions()))["mismatches"] == []
    assert replay_case(case, checks=job.checks) == []


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
    store = tmp_path / "store"
    summary = tmp_path / "summary.json"
    rc = fuzz_main(
        [
            "--seeds",
            "0:2",
            "--no-edge",
            "--configs",
            "unified",
            "--checks",
            "fast_vs_ref",
            "--store",
            str(store),
            "--regressions-dir",
            str(tmp_path / "repros"),
            "--json",
            str(summary),
        ]
    )
    assert rc == 0
    report = json.loads(summary.read_text())
    assert report["clean"] and report["total"] == 2 and report["repros"] == []
    capsys.readouterr()

    # ``repro.cache`` reads the fuzz store back: both entries unpickle.
    # The default result and compile directories are absent here.
    monkeypatch.chdir(tmp_path)
    assert cache_main(["--fuzz-cache-dir", str(store), "verify"]) == 0
    assert "fuzz: 2 entries ok, 0 corrupt removed" in capsys.readouterr().out


def test_fuzz_cli_exact_budget_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        fuzz_main(["--exact-budget", "0"])
    assert exc.value.code == 2
    assert "argument --exact-budget" in capsys.readouterr().err


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
        fuzz_main(["--seeds", "0:3", "--no-store", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["nan", "inf", "-1"])
def test_fuzz_cli_refuses_a_time_budget_that_is_not_seconds(budget, capsys):
    # NaN and infinity would mean no budget at all, and a negative budget
    # would run nothing; each is a usage error before any job runs.
    argv = ["--seeds", "0:1", "--no-edge", "--no-store", "--checks", "certify"]
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
    argv = ["--seeds", "0:0", "--no-edge", "--no-store", "--json", str(summary)]
    assert fuzz_main(argv) == 1
    assert "no jobs" in capsys.readouterr().out
    report = json.loads(summary.read_text())
    assert report["total"] == 0 and not report["clean"]


def test_fuzz_cli_fault_drill_writes_a_shrunk_repro(tmp_path):
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
            "--inject-fault",
            DRILL_FAULT,
            "--no-store",
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
    assert "injected fault" in (case.note or "")
    assert case.shrink["reproduced"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["repros"] == [str(case.path)] and not summary["clean"]
    # The drill repro replays clean without the fault (the real tree is
    # sound) and red with it (the kernel kept its divergence).
    assert replay_case(case) == []
    assert replay_case(case, options=FuzzOptions(fault=DRILL_FAULT))


def test_cache_cli_covers_the_fuzz_store(tmp_path, capsys, monkeypatch):
    store = tmp_path / "store"
    jobs = make_jobs(["edge:tiny"], ["unified"], ("certify",), spread=False)
    assert run_jobs(jobs, store=KeyedCache(store)).clean
    # The default result and compile directories are absent here, so
    # only the fuzz store is read.
    monkeypatch.chdir(tmp_path)
    argv = ["--fuzz-cache-dir", str(store)]
    assert cache_main(argv + ["stats"]) == 0
    out = capsys.readouterr().out
    assert "fuzz:" in out and "entries: 1" in out
    assert cache_main(argv + ["verify"]) == 0
    out = capsys.readouterr().out
    assert "1 entries ok, 0 corrupt" in out
    # Corrupt the entry on disk: verify must drop it and exit non-zero.
    [entry_file] = store.glob("*.pkl")
    entry_file.write_bytes(b"torn write")
    assert cache_main(argv + ["verify"]) == 1
    assert not entry_file.exists()
