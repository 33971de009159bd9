"""Self-contained repro files: shrunk findings as permanent tests.

When a fuzz sweep mismatches, the shrunk genotype is written as one JSON
file under ``tests/corpus/regressions/`` carrying everything replay
needs — the genotype itself (not a seed: the generator may drift), the
config name, the originally failing check, the recorded mismatches and
shrink statistics.  A hand-written ``note`` rides along where a case
needs one (the committed fault drills name their fault).  The tier-1
suite (``tests/test_corpus_regressions.py``) replays every committed
repro kernel through :func:`replay_case` and re-asserts *all* checks,
so a finding fixed once can never silently return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..workloads.generator import KernelGenotype
from .checks import CHECKS, run_checks
from .engine import FUZZ_CONFIGS

REPRO_SCHEMA_VERSION = 1

#: Repository-relative home of the committed regression corpus.
DEFAULT_REGRESSIONS_DIR = Path("tests") / "corpus" / "regressions"


@dataclass
class ReproCase:
    """One committed (or about-to-be-committed) regression kernel."""

    repro_id: str
    genotype: KernelGenotype
    config_name: str
    check: str
    kernel_id: str | None = None
    mismatches: list = field(default_factory=list)
    shrink: dict | None = None
    note: str | None = None
    path: Path | None = None

    def to_json(self) -> dict:
        return {
            "schema": REPRO_SCHEMA_VERSION,
            "id": self.repro_id,
            "kernel_id": self.kernel_id,
            "config_name": self.config_name,
            "check": self.check,
            "genotype": self.genotype.to_json(),
            "mismatches": self.mismatches,
            "shrink": self.shrink,
            "note": self.note,
        }

    @classmethod
    def from_json(cls, data: dict, *, path: Path | None = None) -> "ReproCase":
        schema = data.get("schema", REPRO_SCHEMA_VERSION)
        if schema != REPRO_SCHEMA_VERSION:
            raise ValueError(
                f"repro file has schema {schema!r}, "
                f"this code reads {REPRO_SCHEMA_VERSION}"
            )
        return cls(
            repro_id=data["id"],
            genotype=KernelGenotype.from_json(data["genotype"]),
            config_name=data["config_name"],
            check=data["check"],
            kernel_id=data.get("kernel_id"),
            mismatches=list(data.get("mismatches", [])),
            shrink=data.get("shrink"),
            note=data.get("note"),
            path=path,
        )


def repro_id(check: str, config_name: str, genotype: KernelGenotype) -> str:
    return f"{check}-{config_name}-{genotype.fingerprint()[:8]}"


def write_repro(case: ReproCase, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.repro_id}.json"
    path.write_text(json.dumps(case.to_json(), indent=2, sort_keys=True) + "\n")
    return path


def load_repros(directory: str | Path) -> list[ReproCase]:
    """Every committed repro, sorted by file name; a malformed file is
    an error (the corpus is hand-curated, not a cache)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    cases = []
    for path in sorted(directory.glob("*.json")):
        cases.append(ReproCase.from_json(json.loads(path.read_text()), path=path))
    return cases


def replay_case(case: ReproCase, *, checks: tuple[str, ...] = ()) -> list[dict]:
    """Re-run checks over one repro kernel; returns any mismatches.

    Defaults to *all* registered checks, not just the one that
    originally failed — a regression kernel is a permanent citizen of
    the corpus and must stay clean under every oracle.
    """
    return run_checks(
        case.genotype,
        FUZZ_CONFIGS[case.config_name],
        checks or sorted(CHECKS),
    )
