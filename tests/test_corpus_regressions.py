"""Replay of the committed regression corpus (tier-1).

Every repro file under ``tests/corpus/regressions/`` is a shrunk kernel
that once exposed a mismatch.  This suite rebuilds each one and
re-asserts *all* registered checks — a finding fixed once can never
silently return — and, for fault-injection drills, re-applies the
recorded fault (from ``fuzz_faults``) to prove the kernel still
reproduces its original divergence.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from fuzz_faults import FAULTS, apply_fault
from repro.fuzz.regressions import (
    REPRO_SCHEMA_VERSION,
    load_repros,
    replay_case,
    repro_id,
)
from repro.workloads.generator import GENOTYPE_SCHEMA

CORPUS_DIR = Path(__file__).parent / "corpus" / "regressions"

CASES = load_repros(CORPUS_DIR)


def _case_fault(case) -> str | None:
    """The injected fault a drill repro was found under, if any."""
    match = re.search(r"injected fault '([^']+)'", case.note or "")
    return match.group(1) if match else None


def test_corpus_is_nonempty():
    # The fault-injection drills commit at least two repro kernels; an
    # empty corpus would make this whole suite vacuously green.
    assert len(CASES) >= 2


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.repro_id)
def test_repro_file_is_well_formed(case):
    assert case.path is not None and case.path.name == f"{case.repro_id}.json"
    # The id embeds the (check, config, genotype-fingerprint) triple, so
    # a hand-edited genotype that no longer matches its file name fails
    # here rather than silently testing something else.
    assert case.repro_id == repro_id(case.check, case.config_name, case.genotype)
    assert case.genotype.to_json()["schema"] == GENOTYPE_SCHEMA
    assert REPRO_SCHEMA_VERSION == 1
    fault = _case_fault(case)
    if fault is not None:
        assert fault in FAULTS


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.repro_id)
def test_repro_replays_clean_on_current_tree(case):
    mismatches = replay_case(case)
    assert mismatches == [], (
        f"{case.repro_id} mismatches on the current tree: {mismatches}"
    )


@pytest.mark.parametrize(
    "case",
    [c for c in CASES if _case_fault(c)],
    ids=lambda c: c.repro_id,
)
def test_drill_repro_still_reproduces_under_its_fault(case, monkeypatch):
    # A drill kernel that stopped diverging under its recorded fault has
    # lost its reason to exist — the shrinker kept only what the
    # divergence needed, so this doubles as a minimality canary.
    fault = _case_fault(case)
    apply_fault(monkeypatch, fault)
    mismatches = replay_case(case, checks=(case.check,))
    assert mismatches, (
        f"{case.repro_id} no longer reproduces under injected fault {fault!r}"
    )
