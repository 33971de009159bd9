"""Golden schedule digests: compiled schedules stay byte-identical.

The figure oracles only see simulated cycle totals, and the scheduler
invariant ``MII <= II(exact) <= II(SMS)`` only sees IIs, so a change to
either scheduler's search that moves a placement, a comm, a hint or the
exact search's trial count without moving a figure cell would pass
both.  These tests pin a sha256 over a canonical rendering of every
field the simulator and the ``schedcompare`` report read:

* the II;
* every placed op in placement order (primaries, then PSR replicas):
  uid, cluster, start, latency, ``is_primary`` and its hint bundle;
* every comm and explicit prefetch, in schedule order;
* the exact backend's ``meta``, ``nodes_explored`` included.

The tier-1 sample compiles the first loop of each of the 13 programs on
five machines with SMS, plus a few exact compiles (an improving search,
a budget fallback and some stateless-policy machines).  The ``slow``
variant covers every Figure-5 SMS compile (230) and every
``schedcompare`` exact compile (184).

Digests are per program (per case for the exact sample), so a failure
names where the schedules moved.  Run this file as a script to print
the current tables::

    PYTHONPATH=src python tests/test_schedule_golden.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import CompileOptions, PassManager, scheduler_pipeline
from repro.workloads.mediabench import PAPER_TABLE1, build

#: (label, config) pairs of the tier-1 SMS sample.
SAMPLE_CONFIGS = (
    ("unified", unified_config()),
    ("l0-8", l0_config(8)),
    ("l0-unbounded", l0_config(None)),
    ("multivliw", multivliw_config()),
    ("interleaved", interleaved_config()),
)

#: Figure 5: the unified baseline plus the four L0 sizes.
FIG5_CONFIGS = (("unified", unified_config()),) + tuple(
    (f"l0-{entries or 'unbounded'}", l0_config(entries))
    for entries in (4, 8, 16, None)
)

#: ``schedcompare``: the four L0 sizes, exact backend, default budget.
SCHEDCOMPARE_CONFIGS = FIG5_CONFIGS[1:]

#: (program, loop, config label, config, node budget) of the tier-1
#: exact sample: a search that beats SMS after ~6k trials, the same
#: loop on a stateless policy, two budget fallbacks, and small
#: improvements on the L0, MultiVLIW and interleaved machines.  The
#: last case is already optimal under SMS, so it pins the SMS baseline
#: of an L0 loop whose candidate re-ranking changes ``l0_planned``
#: mid-attempt and whose cluster choices hinge on the FU-load tie-break.
EXACT_SAMPLE = (
    ("gsmenc", "gsme_autoc", "l0-4", l0_config(4), 60_000),
    ("gsmenc", "gsme_autoc", "unified", unified_config(), 60_000),
    ("pgpdec", "pgpd_mulmod", "l0-8", l0_config(8), 3_000),
    ("pegwitdec", "pegwitdec_gf", "interleaved", interleaved_config(), 3_000),
    ("g721dec", "g721dec_pred", "l0-unbounded", l0_config(None), 60_000),
    ("pgpenc", "pgpe_borrow", "multivliw", multivliw_config(), 60_000),
    ("jpegdec", "jpgd_idct_col", "l0-4", l0_config(4), 60_000),
)


def _hints(hints) -> str:
    return (
        f"{hints.access.name}/{hints.mapping.name}/{hints.prefetch.name}"
        f"/{hints.prefetch_distance}"
    )


def render(schedule) -> str:
    """Canonical text of everything a compiled schedule hands onwards."""
    lines = [f"ii {schedule.ii}"]
    for op in schedule.all_placed_ops():
        lines.append(
            f"op {op.instr.uid} c{op.cluster} @{op.start} lat {op.latency} "
            f"primary {op.is_primary} hints {_hints(op.hints)}"
        )
    for comm in schedule.comms:
        lines.append(
            f"comm {comm.producer_uid} c{comm.src_cluster}->c{comm.dst_cluster} "
            f"@{comm.start} lat {comm.latency}"
        )
    for pf in schedule.prefetches:
        lines.append(
            f"prefetch {pf.instr.uid} covers {pf.covers_uid} c{pf.cluster} "
            f"@{pf.start} distance {pf.distance}"
        )
    for key in sorted(schedule.meta):
        lines.append(f"meta {key} {schedule.meta[key]!r}")
    return "\n".join(lines)


def _compile(loop, config, **options):
    passes = PassManager(scheduler_pipeline(options.get("scheduler", "sms")))
    return passes.run(loop, config, CompileOptions(**options)).schedule


def _digest(blocks) -> str:
    h = hashlib.sha256()
    for title, schedule in blocks:
        h.update(f"== {title}\n{render(schedule)}\n".encode())
    return h.hexdigest()


def program_digest(name: str, configs, *, first_only: bool, **options) -> str:
    loops = build(name).loops
    if first_only:
        loops = loops[:1]
    return _digest(
        (f"{spec.loop.name} {label}", _compile(spec.loop, config, **options))
        for spec in loops
        for label, config in configs
    )


def schedcompare_digest(name: str) -> str:
    return program_digest(
        name, SCHEDCOMPARE_CONFIGS, first_only=False, scheduler="exact"
    )


def exact_case_digest(case) -> str:
    name, loop_name, _, config, budget = case
    (loop,) = [s.loop for s in build(name).loops if s.loop.name == loop_name]
    schedule = _compile(loop, config, scheduler="exact", exact_node_budget=budget)
    return _digest([(loop_name, schedule)])


def _exact_key(case) -> str:
    name, loop_name, label, _, budget = case
    return f"{name}/{loop_name}/{label}/{budget}"


SAMPLE_DIGESTS = {
    "epicdec": "4f2123968ef83fe6b71d899f4b50411c8e105d5e439a0c7d99660b7248980662",
    "g721dec": "d114f76c9aa7fa0e841730ad74be5acee71c995361002f2534a5e6809d22bebf",
    "g721enc": "d921e89ba8a7e6035b942da4f615c631767a8a143857e0fb27538ee4bcc87759",
    "gsmdec": "08c46176521d77e5a96a5a8f1d6dd998cdd45c57b434ea043bfae21018c26a6e",
    "gsmenc": "72b4f971fd5d229d81d3cdebc9d10e634d3e2259a9b75c31d2e382dbe21e2577",
    "jpegdec": "a203e89909d016791b9341b3815dc54a171ba95835b4680d01395a0d1abbbcf5",
    "jpegenc": "1ae63c78db73571a771fdc9210f43bf5f1ab6e327f9d2df16e481ac43695ce14",
    "mpeg2dec": "653805f821fd1db624c2373666afd9e3a332732bc35ae15f1a67222ea04a4708",
    "pegwitdec": "25f3a036edd69328976931e11a01592449015dede621893a840353d92185b7e0",
    "pegwitenc": "3c09ac192ba74f4d4d63273737fd11b3029bd05f132c3fa5be0bd4e186dd0246",
    "pgpdec": "b319b1e5b42846a34ceeb89bcbc8fbb1ee7abb6fb896e543a7bffaa352634296",
    "pgpenc": "9bcaf1568602967a4f95d2d710ee887aabe1e851b84609ba82ffb62f2930402d",
    "rasta": "0e85cbf0b3facc997bc8029af16016282120e7a2c6b897a97acebdb74f70c271",
}

EXACT_SAMPLE_DIGESTS = {
    "gsmenc/gsme_autoc/l0-4/60000": "ecc493f6c25b05f51121b5afb56d07bc21e61a352a03afffa563848bbbca15df",
    "gsmenc/gsme_autoc/unified/60000": "9fdb7c13b2894a648446e5c800cf16bc6439c40e21877edea6b2d618bde4fbf4",
    "pgpdec/pgpd_mulmod/l0-8/3000": "8821a70940b59ad83f491f1be3a21202c05978cf56a095863b785afbcf16eb25",
    "pegwitdec/pegwitdec_gf/interleaved/3000": "7414c59123c3f8c5c6c80a8cf63c80ac21282533f6fa1d030136e7941a7b2aea",
    "g721dec/g721dec_pred/l0-unbounded/60000": "66ed341e183018114609a0f27665f712b330670dbb20929245d575449023c064",
    "pgpenc/pgpe_borrow/multivliw/60000": "12204bd8dd8f12457db55815139075a97f1654331e924e595aa7b7627df249f4",
    "jpegdec/jpgd_idct_col/l0-4/60000": "e05f91f8cc6ffa468e056d0c05dc1bd2f6bdd148412fc3641b78283594815d20",
}

FIG5_DIGESTS = {
    "epicdec": "064a041e5e906bfa8d036c958a56f06469e2cf2d3fe92c22bb72051eda9badb2",
    "g721dec": "3efcea1711fe341cd2d760f94f73b8f2e624cc952368ed71204f522e5563a07b",
    "g721enc": "5ba42a6a2248ef755060eb01e825225998119a0aa38628b3894abd6e3a9d34c2",
    "gsmdec": "f603232703854681c7e70c1bc8d972ed9994679a019893be3cbb8ea8d9dcaa6e",
    "gsmenc": "bd7fda08379e3cefa3c46d57d3801668d651d6dd8e5c556fa706aeb325c35d42",
    "jpegdec": "294cbbb50ef7d95a158e7b48565eef399333428bd446dc947f371dbe6f8a5c89",
    "jpegenc": "7fb92552d33af667014b4b90055c3a84e7df3722260b86cf5e33cd24cc75105d",
    "mpeg2dec": "ef67ea93b672c3d1b6bb4b716360281fbf3edffde52474e032f7b90917a16b2e",
    "pegwitdec": "e9e4479dc3fc671ccfd01f3a072c3bd1a41c0ab70d7530b9343d7d42fc647392",
    "pegwitenc": "0150fe036b46022178df8588ea081208de6539e4879b4a98867611234f9c404b",
    "pgpdec": "a566a0535ee2dfcd387f8f5f2e5061f2c0fefb5daf0ffda13b066ecdb9b8b7d7",
    "pgpenc": "6b0510e84077887204dbd8906966da9df9c38e7adbc3e6087710fe31e7f9b8dd",
    "rasta": "fec9c34733caa7a7ef4eb959bf2563c93471f3d7905b010c3dc6a6c3d7011617",
}

SCHEDCOMPARE_DIGESTS = {
    "epicdec": "adfce2e047437b67b31dc9890a4156913ac509e12b8d4eac82cdb4bb2fae25d9",
    "g721dec": "d03731a24e55473b296210bef877889452672aaa8ae4a53454c2ac67b7f28b89",
    "g721enc": "f5c8be2db1872ed38e207a75deef9a4d5c80f8824a29691ee04dd3241d3753e3",
    "gsmdec": "fc7651a87bd2dde00567a16c086835124030047a80f1839543dd22cd166bcff5",
    "gsmenc": "777b8a89f3e8166ccdd47c154314aea62e177e1954254ba90d3fe5aa11fe8730",
    "jpegdec": "3487adeeaedc1445818863cf57c745a1fea407a7296aa1dc61eed6f7ca04f3a0",
    "jpegenc": "3f3a3bbc0c491a3a8180ea6302385e744202d836cae5c12fae5eec443302c52c",
    "mpeg2dec": "f917b6e307a552cf391f578418c7111bd758f4e2459cc5a91d4611a4f3ffdd52",
    "pegwitdec": "ab173fb491ccd608de3e85b31f6b190ec88dfce792e487d5640aab224646f336",
    "pegwitenc": "a245d8f23052093eea44c7283aeb2a74dee099b1dd933239833bf59055f809d7",
    "pgpdec": "0c3e9faeb9ae4604d8c65c0c9b78dd7b7cc336136daef4f73d63132fd82190ad",
    "pgpenc": "65836ce616fa9100158f82ebd1b8b6eeb8867fcf16faf6d2289133750f9e7f1b",
    "rasta": "bc9948469d9bee2e1303d655768d28fb35ca58b0b982f8f4edfe3dd57e7f59e5",
}


@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_sms_sample_digest(name):
    digest = program_digest(name, SAMPLE_CONFIGS, first_only=True)
    assert digest == SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("case", EXACT_SAMPLE, ids=_exact_key)
def test_exact_sample_digest(case):
    assert exact_case_digest(case) == EXACT_SAMPLE_DIGESTS[_exact_key(case)]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_fig5_sms_digest(name):
    digest = program_digest(name, FIG5_CONFIGS, first_only=False)
    assert digest == FIG5_DIGESTS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_schedcompare_exact_digest(name):
    assert schedcompare_digest(name) == SCHEDCOMPARE_DIGESTS[name]


def _print_table(title: str, rows) -> None:
    print(f"{title} = {{")
    for key, value in rows:
        print(f'    "{key}": "{value}",')
    print("}\n")


def print_tables() -> None:
    """Print the four digest tables of the tree as it stands."""
    names = sorted(PAPER_TABLE1)
    _print_table(
        "SAMPLE_DIGESTS",
        [(n, program_digest(n, SAMPLE_CONFIGS, first_only=True)) for n in names],
    )
    _print_table(
        "EXACT_SAMPLE_DIGESTS",
        [(_exact_key(case), exact_case_digest(case)) for case in EXACT_SAMPLE],
    )
    _print_table(
        "FIG5_DIGESTS",
        [(n, program_digest(n, FIG5_CONFIGS, first_only=False)) for n in names],
    )
    _print_table("SCHEDCOMPARE_DIGESTS", [(n, schedcompare_digest(n)) for n in names])


if __name__ == "__main__":
    print_tables()
