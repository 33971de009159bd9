"""Golden simulation digests: simulated results stay byte-identical.

The figure oracles only see each program's total and stall cycles, and
the fast==reference suite compares two executors that share one memory
model, so a change to the memory models that moved, say,
``dropped_prefetches`` or ``delayed_grants`` without moving a figure
cell would pass both.  These tests pin a sha256 over a canonical
rendering of everything ``run_program`` returns:

* the program's name and architecture;
* every ``LoopResult`` field, ``simulated_iterations`` and
  ``extrapolated`` included;
* every counter of the memory statistics (``MemoryStats``, ``MSIStats``
  or ``InterleavedStats``, nested records flattened).

The tier-1 sample simulates all 13 programs on five machines at a low
simulation cap, plus one program at the default cap; between them they
reach nonzero late hits, delayed grants, dropped prefetches, L0 store
invalidations and interleaved fills (``test_sample_reaches_every_feature``
checks that).  The ``slow`` variants cover every Figure 5 and Figure 7
program at the default cap, and recompute the sample digests with the
reference interpreter: the two executors render identically, every
field included, so the digests double as a program-level fast==reference
oracle.

Digests are per program, so a failure names where the results moved.
Run this file as a script to print the current tables::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields, is_dataclass

import pytest

from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.sim.executor import LoopExecutor
from repro.sim.runner import SimOptions, run_program
from repro.workloads.mediabench import PAPER_TABLE1, build

#: label -> (config, compile_kwargs) of every machine the figures run.
MACHINES = {
    "unified": (unified_config(), {}),
    "l0-4": (l0_config(4), {}),
    "l0-8": (l0_config(8), {}),
    "l0-16": (l0_config(16), {}),
    "l0-unbounded": (l0_config(None), {}),
    "multivliw": (multivliw_config(), {}),
    "interleaved-1": (interleaved_config(), {"interleaved_heuristic": 1}),
    "interleaved-2": (interleaved_config(), {"interleaved_heuristic": 2}),
}

#: Figure 5 (the unified baseline and four L0 sizes) plus Figure 7's
#: distributed machines; Figure 7's 8-entry L0 is already in Figure 5.
FIGURE_LABELS = tuple(MACHINES)

#: The tier-1 sample: every program on these machines at a low cap.
SAMPLE_LABELS = ("unified", "l0-4", "l0-unbounded", "multivliw", "interleaved-2")
SAMPLE_CAP = 200

#: Default-cap cases beside the sample: L0 store invalidations (a store
#: dropping a replicated copy) only show up past the sample's cap.
FULL_CAP_SAMPLE = (("pgpdec", "l0-16"),)

DEFAULT_CAP = SimOptions().sim_cap


def _counters(stats, prefix: str = ""):
    for f in fields(stats):
        value = getattr(stats, f.name)
        if is_dataclass(value):
            yield from _counters(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value


def render(result) -> str:
    """Canonical text of one simulated program."""
    lines = [f"program {result.benchmark} {result.arch}"]
    for loop in result.loops:
        pairs = (f"{f.name}={getattr(loop, f.name)!r}" for f in fields(loop))
        lines.append("loop " + " ".join(pairs))
    stats = result.memory_stats
    lines.append(f"stats {type(stats).__name__}")
    lines.extend(f"{name} {value!r}" for name, value in _counters(stats))
    return "\n".join(lines)


def simulate_uncached(name: str, label: str, cap: int):
    config, compile_kwargs = MACHINES[label]
    options = SimOptions(sim_cap=cap, compile_kwargs=compile_kwargs)
    return run_program(build(name), config, options=options)


simulate = functools.cache(simulate_uncached)


def digest(cases, simulate=simulate) -> str:
    h = hashlib.sha256()
    for name, label, cap in cases:
        text = render(simulate(name, label, cap))
        h.update(f"== {label} cap {cap}\n{text}\n".encode())
    return h.hexdigest()


def sample_digest(name: str, simulate=simulate) -> str:
    return digest(((name, label, SAMPLE_CAP) for label in SAMPLE_LABELS), simulate)


def full_cap_digest(name: str, label: str, simulate=simulate) -> str:
    return digest([(name, label, DEFAULT_CAP)], simulate)


def figure_digest(name: str) -> str:
    return digest((name, label, DEFAULT_CAP) for label in FIGURE_LABELS)


SAMPLE_DIGESTS = {
    "epicdec": "6059112682ac798a94f8aff9f04d4eb0ef724e34b29116da07970ab219cf3acd",
    "g721dec": "ed2ee0eaad8a56fe1987d0403918c57d5170239c608f18696b28a52264e88eef",
    "g721enc": "785bf3a11a369702737c03cbdc9d18af4937064663cae652cbf6282be6b0449c",
    "gsmdec": "d83a0b3eb87d3c5ab55b56e7ceaff5cc62e7d169b4efa3a5a3b7ed914849cd70",
    "gsmenc": "81c122dc5d407385bb6572ebd3fe218cce19dcedd2b33a040d8ead883e2104bc",
    "jpegdec": "b7ea4eae031781e12adc3a55aea68a15f753f7b694b37ef887cebc3aeab51e9a",
    "jpegenc": "838a678ff9fb37033fad113f8e0cea2ec44d645369fef52a33c350dbef941bd0",
    "mpeg2dec": "e6cba45744a2ebe23c1dd72dc178f03f434cf65b714f4dfb8fb5c7b45b4d2cec",
    "pegwitdec": "2d4f0fc7aa9ef751fd61204e4ac98f3f934fe624db4c7ac319c3ebf78bb92421",
    "pegwitenc": "ad7fd68b22b5f382f51cbb2db3e60a6d65d6cd7dfb3dce7d0a0aa2421d74bc06",
    "pgpdec": "8d877be5935cea18083bb1042799967187cf4bff447439c95c6ddba2a50abad2",
    "pgpenc": "b804b16188bc073cdd0c5d5c96d1eba20869b16604c85110e8e9e4b6bb50cf87",
    "rasta": "ddef091d67976e6a6aa453803d8dc3168b283ded5b071a253cc935a740e0e7f8",
}

FULL_CAP_SAMPLE_DIGESTS = {
    "pgpdec/l0-16": "eb5958796b4d33e3ab3551af5b778e3b0d2c1d6d82f8bddd0dac7378f17a90c0",
}

FIGURE_DIGESTS = {
    "epicdec": "d769bc9c8659fd2a4d88de7c9458c781d8622a017735f9c472e143c91b172d8f",
    "g721dec": "0246b66463646838a864770d178c4ecbbd05a05c197500cbb23d5bb3bfe3f4bc",
    "g721enc": "231eba2fa7780c6725acae16ae6fdbdc7bffea4e196eb2309dd811ed54c478e2",
    "gsmdec": "22a80663b489dce3bd6d0469dea8cab8d301d8bc355ff97ff3a576d1bc9197aa",
    "gsmenc": "be5984310336ba8881098953aeed99065a0be4cf1a6b9e3d0ee24bcee839d179",
    "jpegdec": "3152bd2bd5a4279e5103be844c73453eed3c3c90771b250e879c3aef1bd7d807",
    "jpegenc": "9c885053519944984ff0395841b7930bda5b4c1ac5d533b45082b9c06aa0dd66",
    "mpeg2dec": "0c1bbd62a06b3c16805167cf47b2575a6b29381a45210b43436ee58252a7763f",
    "pegwitdec": "f8ad4ffd3b0868790889ff347bb5aa7fdc8269bd460927290950c5e7cf6ae3e5",
    "pegwitenc": "b53e9081a07dde7ecca0e94a4e733c9e830489564d7ac91e965a993d172d159a",
    "pgpdec": "2df9ee8945935dc5fb1755d58759a69890a7c637f8714534c267618542c4fe23",
    "pgpenc": "d2a756a79c2526e88483ed469cd07324f27d0c06aa4bbe46d2c35a375b0ebfc0",
    "rasta": "a329e219da2ffe0cb96a942a42591db31e4df32ecb9eb103bbeeef20b5ea9df5",
}


@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_sim_sample_digest(name):
    assert sample_digest(name) == SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("case", FULL_CAP_SAMPLE, ids="/".join)
def test_sim_full_cap_sample_digest(case):
    assert full_cap_digest(*case) == FULL_CAP_SAMPLE_DIGESTS["/".join(case)]


def test_sample_reaches_every_feature():
    """The sample exercises every mechanism the digests are meant to
    guard, so none of them can stop moving a digest unnoticed."""
    results = [
        simulate(name, label, SAMPLE_CAP)
        for name in sorted(PAPER_TABLE1)
        for label in SAMPLE_LABELS
    ] + [simulate(name, label, DEFAULT_CAP) for name, label in FULL_CAP_SAMPLE]
    l0_stats = [r.memory_stats for r in results if r.arch == "l0"]
    assert sum(s.l0.late_hits for s in l0_stats) > 0
    assert sum(s.bus.delayed_grants for s in l0_stats) > 0
    assert sum(s.dropped_prefetches for s in l0_stats) > 0
    assert sum(s.l0.store_invalidations for s in l0_stats) > 0
    assert sum(s.l0.interleaved_fills for s in l0_stats) > 0
    assert all(s.coherence_violations == 0 for s in l0_stats)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_sim_figure_digest(name):
    assert figure_digest(name) == FIGURE_DIGESTS[name]


@pytest.mark.slow
def test_reference_interpreter_renders_sample_digests(monkeypatch):
    """The reference interpreter reproduces every sample digest.  Its
    runs bypass ``simulate``'s cache, which holds fast-path results."""
    monkeypatch.setattr("repro.sim.runner.TraceExecutor", LoopExecutor)
    got = {name: sample_digest(name, simulate_uncached) for name in SAMPLE_DIGESTS}
    for case in FULL_CAP_SAMPLE:
        got["/".join(case)] = full_cap_digest(*case, simulate_uncached)
    assert got == {**SAMPLE_DIGESTS, **FULL_CAP_SAMPLE_DIGESTS}


def _print_table(title: str, rows) -> None:
    print(f"{title} = {{")
    for key, value in rows:
        print(f'    "{key}": "{value}",')
    print("}\n")


def print_tables() -> None:
    """Print the three digest tables of the tree as it stands."""
    names = sorted(PAPER_TABLE1)
    _print_table("SAMPLE_DIGESTS", [(n, sample_digest(n)) for n in names])
    _print_table(
        "FULL_CAP_SAMPLE_DIGESTS",
        [("/".join(case), full_cap_digest(*case)) for case in FULL_CAP_SAMPLE],
    )
    _print_table("FIGURE_DIGESTS", [(n, figure_digest(n)) for n in names])


if __name__ == "__main__":
    print_tables()
