"""``python -m repro.fuzz`` — the fuzzing engine's one command.

It fans a seed range (plus the edge corpus) through the differential
checks on the current tree; nothing is kept between runs.  Every
mismatching job is shrunk to a minimal kernel and written as a
self-contained repro file.  ``--json`` writes the summary CI gates on.
The exit code is 0 only when the sweep ran at least one job and every
job ran clean, 1 otherwise, and 2 on a usage error.

The tier-1 suite (``tests/test_corpus_regressions.py``) replays the
committed repro files.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

from ..workloads.generator import PROFILES
from .checks import CHECKS
from .corpus import edge_kernel_ids, resolve_kernel, seed_kernel_ids
from .engine import FUZZ_CONFIGS, make_jobs, run_jobs
from .regressions import DEFAULT_REGRESSIONS_DIR, ReproCase, repro_id, write_repro
from .shrink import shrink


def parse_age(text: str) -> float:
    """A finite, non-negative number of seconds (``--time-budget``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number of seconds: {text!r}") from None
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0: {text!r}")
    return value


def _parse_seed_range(text: str) -> tuple[int, int]:
    """``"A:B"`` -> (A, B) half-open; a bare ``N`` means ``0:N``."""
    head, sep, tail = text.partition(":")
    try:
        start, stop = (int(head), int(tail)) if sep else (0, int(head))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}") from None
    if stop < start:
        raise argparse.ArgumentTypeError(f"seed range {text!r} stops below its start")
    return start, stop


def _csv(choices: list[str], what: str):
    def parse(text: str) -> list[str]:
        names = [name.strip() for name in text.split(",") if name.strip()]
        if not names:
            raise argparse.ArgumentTypeError(f"no {what} named")
        for name in names:
            if name not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown {what} {name!r} (known: {', '.join(sorted(choices))})"
                )
        return names

    return parse


def _emit_repro(
    kernel_id: str,
    config_name: str,
    check: str,
    mismatches: list[dict],
    directory: Path,
) -> Path:
    genotype = resolve_kernel(kernel_id)
    result = shrink(genotype, FUZZ_CONFIGS[config_name], check)
    case = ReproCase(
        repro_id=repro_id(check, config_name, result.genotype),
        genotype=result.genotype,
        config_name=config_name,
        check=check,
        kernel_id=kernel_id,
        mismatches=mismatches,
        shrink=result.to_json(),
    )
    return write_repro(case, directory)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential kernel-corpus fuzzing over the "
        "simulator/scheduler oracles: one sweep, exit 0 only if it ran "
        "at least one job and every job ran clean.",
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seed_range,
        default=(0, 200),
        metavar="A:B",
        help="half-open random-kernel seed range (default 0:200)",
    )
    parser.add_argument(
        "--profiles",
        type=_csv(list(PROFILES), "profile"),
        default=list(PROFILES),
        help=f"generator profiles to cycle (default {','.join(PROFILES)})",
    )
    parser.add_argument(
        "--configs",
        type=_csv(list(FUZZ_CONFIGS), "config"),
        default=list(FUZZ_CONFIGS),
        help="machine configs to rotate over (default: all)",
    )
    parser.add_argument(
        "--checks",
        type=_csv(list(CHECKS), "check"),
        default=list(CHECKS),
        help=f"checks to run (default {','.join(sorted(CHECKS))})",
    )
    parser.add_argument(
        "--no-edge",
        dest="edge",
        action="store_false",
        help="skip the committed edge corpus",
    )
    parser.add_argument(
        "--no-spread",
        dest="spread",
        action="store_false",
        help="run every seeded kernel on every config (default: rotate "
        "one config per kernel, so a seed range covers the matrix "
        "without multiplying the job count)",
    )
    parser.add_argument("--workers", type=int, default=None, help="worker processes")
    parser.add_argument(
        "--time-budget",
        type=parse_age,
        default=None,
        metavar="S",
        help="stop launching jobs after S seconds (pending jobs fail clean)",
    )
    parser.add_argument(
        "--regressions-dir",
        default=str(DEFAULT_REGRESSIONS_DIR),
        help="where shrunk repro files land",
    )
    parser.add_argument("--json", default=None, help="write the JSON summary here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    checks = tuple(sorted(args.checks))
    jobs = []
    if args.edge:
        jobs.extend(make_jobs(edge_kernel_ids(), args.configs, checks, spread=False))
    kernel_ids = seed_kernel_ids(*args.seeds, args.profiles)
    jobs.extend(make_jobs(kernel_ids, args.configs, checks, spread=args.spread))

    report = run_jobs(jobs, workers=args.workers, time_budget_s=args.time_budget)

    repros: list[str] = []
    for entry in report.mismatched:
        job = entry["job"]
        # One repro per job, for its first failing oracle.
        check = min(m["check"] for m in entry["mismatches"])
        path = _emit_repro(
            job["kernel_id"],
            job["config_name"],
            check,
            entry["mismatches"],
            Path(args.regressions_dir),
        )
        repros.append(str(path))

    summary = report.to_json()
    summary["repros"] = repros
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2, sort_keys=True))
    print(
        f"fuzz: {report.total} jobs, {report.executed} executed, "
        f"{report.not_run} not run (budget), {len(report.mismatched)} "
        f"mismatching jobs in {report.wall_s:.1f}s"
    )
    if not report.total:
        print("  no jobs: the sweep checked nothing")
    for entry in report.mismatched:
        job = entry["job"]
        first = entry["mismatches"][0]
        print(
            f"  MISMATCH {job['kernel_id']} on {job['config_name']}: "
            f"[{first['check']}/{first['kind']}] {first['detail']}"
        )
    for path in repros:
        print(f"  repro written: {path}")
    if report.not_run:
        print(f"  time budget exhausted with {report.not_run} jobs pending")
    return 0 if report.clean else 1
