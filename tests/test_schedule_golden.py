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
names where the schedules moved.  A second set, one digest per exact
compile (each exact-sample case and each ``schedcompare`` row), leaves
out ``nodes_explored``: a change to the exact search's pruning moves the
trial count on purpose, and these show it moved nothing else.  Run this
file as a script to print the current tables::

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
from repro.pipeline import CompileOptions, compile_uncached
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
#: exact sample: a search that beats SMS after ~900 trials, the same
#: loop on a stateless policy, a budget fallback (``pgpd_mulmod`` needs
#: 3,759 trials on ``l0-8``), the bignum loop the interleaved machine
#: proves optimal at MII within 3,000 trials, and small improvements on
#: the L0 and MultiVLIW machines.  The last case is already optimal
#: under SMS, so it pins the SMS baseline of an L0 loop whose candidate
#: re-ranking changes ``l0_planned`` mid-attempt and whose cluster
#: choices hinge on the FU-load tie-break.
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


def render(schedule, *, trials: bool = True) -> str:
    """Canonical text of everything a compiled schedule hands onwards
    (``trials=False`` leaves out the exact search's ``nodes_explored``)."""
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
        if trials or key != "nodes_explored":
            lines.append(f"meta {key} {schedule.meta[key]!r}")
    return "\n".join(lines)


def _compile(loop, config, **options):
    return compile_uncached(loop, config, CompileOptions(**options)).schedule


def _digest(blocks, *, trials: bool = True) -> str:
    h = hashlib.sha256()
    for title, schedule in blocks:
        h.update(f"== {title}\n{render(schedule, trials=trials)}\n".encode())
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


def schedcompare_row_digests(name: str) -> dict[str, str]:
    """Per-row digests of a program's ``schedcompare`` compiles, without
    ``nodes_explored``, keyed ``program/loop/config label``."""
    rows = {}
    for spec in build(name).loops:
        for label, config in SCHEDCOMPARE_CONFIGS:
            schedule = _compile(spec.loop, config, scheduler="exact")
            rows[f"{name}/{spec.loop.name}/{label}"] = _digest(
                [(f"{spec.loop.name} {label}", schedule)], trials=False
            )
    return rows


def exact_case_digest(case, *, trials: bool = True) -> str:
    name, loop_name, _, config, budget = case
    (loop,) = [s.loop for s in build(name).loops if s.loop.name == loop_name]
    schedule = _compile(loop, config, scheduler="exact", exact_node_budget=budget)
    return _digest([(loop_name, schedule)], trials=trials)


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
    "gsmenc/gsme_autoc/l0-4/60000": "124a6d8a27d8917c2a5ea474dcc4ba33712008e54fb04031c3a6b336a42ac7ef",
    "gsmenc/gsme_autoc/unified/60000": "215179193f193e4916a98d273ebfa530a3a497676c594c9096439747ddf07925",
    "pgpdec/pgpd_mulmod/l0-8/3000": "8821a70940b59ad83f491f1be3a21202c05978cf56a095863b785afbcf16eb25",
    "pegwitdec/pegwitdec_gf/interleaved/3000": "baed4386a464fffbe54290e635a80bf44bbdc22cd8b49578ff9641ff64f2b174",
    "g721dec/g721dec_pred/l0-unbounded/60000": "66ed341e183018114609a0f27665f712b330670dbb20929245d575449023c064",
    "pgpenc/pgpe_borrow/multivliw/60000": "12204bd8dd8f12457db55815139075a97f1654331e924e595aa7b7627df249f4",
    "jpegdec/jpgd_idct_col/l0-4/60000": "e05f91f8cc6ffa468e056d0c05dc1bd2f6bdd148412fc3641b78283594815d20",
}

#: Without ``nodes_explored``, so a change that moves only trial counts
#: leaves these as they are.
EXACT_SAMPLE_PLACEMENT_DIGESTS = {
    "gsmenc/gsme_autoc/l0-4/60000": "7d0692c9a267dd7ccffef4f79a366c6ec66ffd4f3b2f12eeecc4249c5f81caac",
    "gsmenc/gsme_autoc/unified/60000": "9a353897dcfc6497e0ef19cba8672e32ed7ef2f9d2fe9d539a0c667644eee864",
    "pgpdec/pgpd_mulmod/l0-8/3000": "1854b9193d5455aa9709e7cb5b83702fb10c06a1493b2af345086fb7da8ec170",
    "pegwitdec/pegwitdec_gf/interleaved/3000": "5084673ad8fa133c4ade4cfd1b3045d6c524b3dcb2699d7beecde83ce0c1d74f",
    "g721dec/g721dec_pred/l0-unbounded/60000": "15f668e766522bc114a9b0717d6a943e4b2c323adf7b4539384983d474d5ee44",
    "pgpenc/pgpe_borrow/multivliw/60000": "1b13bdda055b6242f8b2456a19535c7bc3bbdcc6c2c58c5cad66ee3490bd67ea",
    "jpegdec/jpgd_idct_col/l0-4/60000": "7b9d70d9afc9e34f0dbe2ddc1487290347bf24fd3f0af9e1afa6a8203c9e505d",
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
    "gsmenc": "e2fab45f7899f85fd610a859a7cea458076ad7d1df44a141e3c1586b8cee6679",
    "jpegdec": "3487adeeaedc1445818863cf57c745a1fea407a7296aa1dc61eed6f7ca04f3a0",
    "jpegenc": "3f3a3bbc0c491a3a8180ea6302385e744202d836cae5c12fae5eec443302c52c",
    "mpeg2dec": "f917b6e307a552cf391f578418c7111bd758f4e2459cc5a91d4611a4f3ffdd52",
    "pegwitdec": "7ba96fec314b02d4ea17e38b13d1b7f6d214178debdf6e60334ded14ddcd54ec",
    "pegwitenc": "c50da28f32eecffbf4a73ef84f4f323cec14a25d5aa01b36c19b9a21b00dcf30",
    "pgpdec": "ba8c3da60c41d8fa6eb2ed956d6472b939a1e5af916bddab53c147f551d1f669",
    "pgpenc": "50a6140bdc6d4e5e7327386be8bd2159e986609c17dfbf70bac72b35880ba5e1",
    "rasta": "bc9948469d9bee2e1303d655768d28fb35ca58b0b982f8f4edfe3dd57e7f59e5",
}

#: One per ``schedcompare`` row, without ``nodes_explored``.
SCHEDCOMPARE_ROW_DIGESTS = {
    "epicdec/epic_recon/l0-4": "fba946194571b392aae5204ad0b5f2cf0027651f9f405c418424c0e387468e9b",
    "epicdec/epic_recon/l0-8": "c13161f36ea127816a2b5330463c1373add88b72a6e60850c69f16eece6e1c3c",
    "epicdec/epic_recon/l0-16": "2c7af6d42eaaa1fb651fa8a1590e1810888ca82d9b4c58e3ce21a220adcdd32b",
    "epicdec/epic_recon/l0-unbounded": "fe1db4bc34f7cb96c7c03cc245ff7f7f0efb7092ae6182fa4527368a7ab0d5f7",
    "epicdec/epic_cols/l0-4": "ad9cec71d6a1a02c7bd319f0e1f716c5c96ad1e738a553513d9084daf17fc0e3",
    "epicdec/epic_cols/l0-8": "20e37c272254859ff8cdbbe2d78aa34ec0581a05275434ced1227412aee8be4f",
    "epicdec/epic_cols/l0-16": "8a76a8f3adf28f33dd8ffbea6ece3aebb95c3c6906ec400002501310097e22ba",
    "epicdec/epic_cols/l0-unbounded": "0a4ca069e3176766f3ad50ba1575046185f119211aadb521eb8770a1ae6779fe",
    "epicdec/epic_unquant/l0-4": "a4f045c3bc6bfa0bc6636691a0618dad320fe6cdc00f071090bd7297002e4f38",
    "epicdec/epic_unquant/l0-8": "cbfd3049b9e782787dd49676b9754e5e504a2db39c6f3970c4423cd79877311e",
    "epicdec/epic_unquant/l0-16": "f11056d49478b96be9012cdbd9f065053ae85abc90564518bee29a036cc6752a",
    "epicdec/epic_unquant/l0-unbounded": "f14e6cb1eb69b7065ff5967ef3d6ddb3ccce1093e0b1442bac956b547d975770",
    "g721dec/g721dec_pred/l0-4": "38ce7ffc022dc53a9d510789b20559311886f5dd6e9cb5c1ffa832c3e533c1da",
    "g721dec/g721dec_pred/l0-8": "4b80ffb51b645193b3cf8aa6c4b0184f5e6daa9c7ea4da7bad1818353d1e6436",
    "g721dec/g721dec_pred/l0-16": "6837ea31425ea0cfd0367f6283b71749c27e01ff8de02cd8d78fc7da2a13d84c",
    "g721dec/g721dec_pred/l0-unbounded": "2dbb8656e013e1733d8064ed04b8b00925cd25a2aca97a216b847d88218f910a",
    "g721dec/g721dec_adapt/l0-4": "49f9c2bbeaeddfea1da5c7d645eac4951687ead3894f1764d873c8b321ded043",
    "g721dec/g721dec_adapt/l0-8": "e9de9db4fe855ca5b5396103cae7266da39f297da73ed26c76145065789dbaac",
    "g721dec/g721dec_adapt/l0-16": "68fd2fc99c48c6550e3fe2e65f9592a44b69180b2390ef4f1371d4d1d095821f",
    "g721dec/g721dec_adapt/l0-unbounded": "d5939399caf977b14ec04170ebf79f8a426e08d417bd91fa6a47be64929dd293",
    "g721dec/g721dec_io/l0-4": "0693f8306e4b3cc41d5c91cf5b6d73b2c9585b6e2b8bafdebf7b12444468ec2c",
    "g721dec/g721dec_io/l0-8": "0740dd9c2089a804bedab26ed5a22c1c7c69e731d7505275d694f837f1bb8129",
    "g721dec/g721dec_io/l0-16": "3b6981cff6725508fec7bdb535587bfd79957ff0d0445b584a026ad0a8739243",
    "g721dec/g721dec_io/l0-unbounded": "b5176b81cba042fc757edc6cb614803fc1f0cda9afea86d84c6624e2e96cfada",
    "g721enc/g721enc_pred/l0-4": "cc70f274ab8796d9f6df137df3ed2267a4dc20754b3e534287b4d51b8d8d07e5",
    "g721enc/g721enc_pred/l0-8": "e3f270571e2b6b1ca9908b7e2e43f866f0e2899f4af8e645cb3a450e5de45c6a",
    "g721enc/g721enc_pred/l0-16": "1fed7815c84c595bd9e172ebe339d6edf5ba9dc03b1a67aeac408b7a63cc4ca4",
    "g721enc/g721enc_pred/l0-unbounded": "2ece7b2c857cf99ea00bd55824770f6f578a94f525ba42ac0822a5f8b8bc4c81",
    "g721enc/g721enc_adapt/l0-4": "27232787145fd98c83801edbb1c33d2c6e3e0036f2fd7b964630d7a9ff54bbf1",
    "g721enc/g721enc_adapt/l0-8": "01996ad69b6f5242f6350326038e311e463142885448652e36d4cc926a200fe4",
    "g721enc/g721enc_adapt/l0-16": "d2ffe941b151bccd7e851ecea15b3aca57a426d6fa9dd0b38433dd37c6106a9d",
    "g721enc/g721enc_adapt/l0-unbounded": "ddb6c70f7b57225d1c001d219753399229bfd2061dde04e18930281035c0eec8",
    "g721enc/g721enc_io/l0-4": "e0e68015621ba57a8839ff4d6695dc3c930b89ac71395b6a351acb628051b077",
    "g721enc/g721enc_io/l0-8": "28c01925142e9c493133ae08d54dda7f9b5e6c2351d8528cdb44e3a9ad054254",
    "g721enc/g721enc_io/l0-16": "74011672e6a7e688643ac8484ec4e10e56d085f5882b8918f415d7ce3c303d75",
    "g721enc/g721enc_io/l0-unbounded": "f971e6ca65d0fdc693a45402e81afdd10f15dcdcad64d80c14de4179e0a42686",
    "gsmdec/gsmd_ltp/l0-4": "0cdb71969279030a0a85e32fa309c81b80f4544486e8895a0112bf18fbf931a6",
    "gsmdec/gsmd_ltp/l0-8": "5abf162365bfaec0d9e6d977dab8206d74c34c5a8473bfc6ca7a963c0d99fcdb",
    "gsmdec/gsmd_ltp/l0-16": "a701238797b6b7506d320c50593aae045a7f12e53c880e2ea6d95517e37c284d",
    "gsmdec/gsmd_ltp/l0-unbounded": "707f83fa72e07f603c1bb18c266d01254c3e3292373a8be742f39624d1c1acea",
    "gsmdec/gsmd_deemph/l0-4": "2bd0b461be235c78b4032b3a409c2974a2aff6fd8dcceeba79c075952200c531",
    "gsmdec/gsmd_deemph/l0-8": "9d40e02fe319c30f69203a4878b4084412215ea1ac45cf11b729b0adfb34d401",
    "gsmdec/gsmd_deemph/l0-16": "65da08e42d93d4415cb1aea89ab43b99276f618ea699b3df6826b42f3bd2ac13",
    "gsmdec/gsmd_deemph/l0-unbounded": "c79ab91c1167f4651aa36c250dfb83e5cf1f016ef13c3b69205b9e4f98855bee",
    "gsmdec/gsmd_dequant/l0-4": "2a5c812782366c74351b715a1b9bce6ae585524092184162f25a5aacecc4f942",
    "gsmdec/gsmd_dequant/l0-8": "744fea671ecc5d70be0f7ed0095e8b91f440efcc87eb2087fc3bc5a281800f78",
    "gsmdec/gsmd_dequant/l0-16": "fb6807aa3b968473b3f1b1f151446d66bd64aa4e63fea3feb4611bb5b3ab9318",
    "gsmdec/gsmd_dequant/l0-unbounded": "1e31481ddb5b5550dc4ec8b2a9a81bb0c1a0d6f9a75aec8a26e76d36f42cd101",
    "gsmenc/gsme_autoc/l0-4": "30bab0fbcbd212100089f93e15dc7a7811465a62eed99f9ec4cbc38bc3aa2862",
    "gsmenc/gsme_autoc/l0-8": "eaf5f110a6113478ec04053079fb01882d73ddbcc1870c746c882bb62eb22bb7",
    "gsmenc/gsme_autoc/l0-16": "c1b6af473334094f0ff416afd094e0204a806f111736d2f364bbe8c39feb0e7b",
    "gsmenc/gsme_autoc/l0-unbounded": "50e2d4df72ebb22a111800f95248a40911a3cb080980daead573aadcc91e9aa1",
    "gsmenc/gsme_weight/l0-4": "052c86b9c3a4f3cb47d99fabf3acb310334a79afbd16f50c01052b9c4516b172",
    "gsmenc/gsme_weight/l0-8": "64611f92790568dbb4eaa4889de36db31d16bd400e1b79d516b8495abe8c3add",
    "gsmenc/gsme_weight/l0-16": "bdd02ff9997f95a29631e8c73fe82b67e512c7645809fa28e1965fb77638ccda",
    "gsmenc/gsme_weight/l0-unbounded": "2d22e04322855244bccb639c2836d61de3c3e38d27b22a7791522ac6e8654ef4",
    "gsmenc/gsme_preemph/l0-4": "7805529010eeefd1c7fd7953de3e80f8b0e9e9092f11ccf3ba785e8e3e44fceb",
    "gsmenc/gsme_preemph/l0-8": "441a06c50632c55ffbc04269b9ece5c9c45a0fa38eb28cd6a58834ff67b7274c",
    "gsmenc/gsme_preemph/l0-16": "d968b8d3b703a17b4419984bd50c61b728f75b614c8297aea153a37db7ffeb29",
    "gsmenc/gsme_preemph/l0-unbounded": "21bb3f6dc094709342c86cb07ef8e848fbea8afcb1f3f1067b16aa39c8d933d4",
    "jpegdec/jpgd_idct_col/l0-4": "e394e3385cf5d8a916af0fb24ef7126cfc85ebc357f4b6c07657f7f5302eea8e",
    "jpegdec/jpgd_idct_col/l0-8": "b9b145af255363775105d6af123737a173012daea4ba131fa8967a77e82897c5",
    "jpegdec/jpgd_idct_col/l0-16": "c6dc4c3af57da9150a941e4f9213df89088bde06a770d3971bef1ce8c810623e",
    "jpegdec/jpgd_idct_col/l0-unbounded": "f2ab9ee9aa952127eb4fcce8bacd393a4b1f475d76b5a8c58f8ac71359a751de",
    "jpegdec/jpgd_huff/l0-4": "8c7360b9edd514156039d26eb71d8599b2f78eacab4aaf66e826f2fbc5b72f79",
    "jpegdec/jpgd_huff/l0-8": "c142f4935a5666364e377871c8dc2f178e8ba2532524155006f4043572ed3e91",
    "jpegdec/jpgd_huff/l0-16": "ddbdf35cd2bc244ab1d7f64b9aa28ff3e3b750d60c3c98d15c1cdadd49242dca",
    "jpegdec/jpgd_huff/l0-unbounded": "c92885f658609726777ba7717dac7cffe9efaaf08bceb2b53e0dbcede5f19cbe",
    "jpegdec/jpgd_color/l0-4": "10aa6c3938da557d95d33ae8c9e3a7f7e0a82f04b089cd5be3fa2ab939967617",
    "jpegdec/jpgd_color/l0-8": "ce75d160b65529934f7339be5644da815b8f8b604152e81653240fe350e775f7",
    "jpegdec/jpgd_color/l0-16": "49e45217d70f11b84d591b4161dd35de335af89b6c64c5d066e481189485804d",
    "jpegdec/jpgd_color/l0-unbounded": "08b18c05ddccb7a3170c21809c8001bea53609c08ee6f3e81d2a8a39d4a20afa",
    "jpegdec/jpgd_upsample/l0-4": "afb62837ec341481ca09efeb7da2d459921304e119d49aae846f1b53d4509a61",
    "jpegdec/jpgd_upsample/l0-8": "26d3f82efe56ce8990811708e10e1a7dee6d12a1dc25e9a0a08378ba39b8fffb",
    "jpegdec/jpgd_upsample/l0-16": "f0b5384eb08553369556b8228bdb0d81ca4141f90aae49740baa94b6ea1ba7c8",
    "jpegdec/jpgd_upsample/l0-unbounded": "c777dddbb208bb7972f3b0d75002bd270da997df579a3a06a700356608b477f4",
    "jpegenc/jpge_fdct/l0-4": "37b4104f92d6650c302e8184d8a85651462716d2409af273b9a53754bbaace94",
    "jpegenc/jpge_fdct/l0-8": "aeda2538f194382d806aec59037ab109db17c2dd770b49b024278a2b5c217dee",
    "jpegenc/jpge_fdct/l0-16": "85ddea19645e96c020ae4d4c85c98cf27802567be8d79000d2931ef974456b12",
    "jpegenc/jpge_fdct/l0-unbounded": "488d7c6f0c2b38e0869f0415bd11b85e3404042006083567589365374ca2d502",
    "jpegenc/jpge_quant/l0-4": "131d31725aa1567a2eec8802cab867898a84d2e7e028d6c8cc65e927a710a1f8",
    "jpegenc/jpge_quant/l0-8": "971f603eeceb22a2ff56d255d11612941cbda97f94af3125fa3a304d5c8757d4",
    "jpegenc/jpge_quant/l0-16": "cd1e7423122163ba5fb5445634e3168057747838bf752062ef048ed20d66a3cd",
    "jpegenc/jpge_quant/l0-unbounded": "ff5d0bed25d05f3ccf72636e44f2fd927193e8a5a98cb5afd4144f24d9d29ab2",
    "jpegenc/jpge_shift/l0-4": "ef20eb5cd4e126cab4cde1f6ebc76cb327b532baaae87075e2883c53233bfcd9",
    "jpegenc/jpge_shift/l0-8": "2ed93d1619f19d240eabc6e6d9ffaa811031bff6d185b969acbf88fa98edcffe",
    "jpegenc/jpge_shift/l0-16": "7924ef969d44da7f87da26ba6f7eb19fc00cfa45dd09036597085f4448cc1f05",
    "jpegenc/jpge_shift/l0-unbounded": "f51e0aa4953d5755fda7d727b8d0a189092ec16ec9cfe9549db3d9bf80ce0bef",
    "mpeg2dec/mpg_mocomp/l0-4": "0180a8dfc73ef2d9a9d0a7896d0807883f616938f1e8bbe98f0fac66ff9e0787",
    "mpeg2dec/mpg_mocomp/l0-8": "6200a2e9214bd5c90853ab269ae24b5c41717b308f2b0a82bf0cf7cfe51d3842",
    "mpeg2dec/mpg_mocomp/l0-16": "5bb2d3461411f0be5af237588a26805fe8d68640420dfd48f06c7e17468df927",
    "mpeg2dec/mpg_mocomp/l0-unbounded": "13253d02a2c2a332bba3e10b2f6fc0a6b38fbec39547557a0e6b7f92ceb393e6",
    "mpeg2dec/mpg_pred/l0-4": "e5d09ab45efeead3aa09be743fa070e5399551968ee190c01ea4b1efa299ab41",
    "mpeg2dec/mpg_pred/l0-8": "2e79fdf3e37b07661a148b6a572c779313ae70d3bcd994d4596ccba3b6580581",
    "mpeg2dec/mpg_pred/l0-16": "f61322c1203da0177f0500207aeb636d22fe0da65039938096d5f316a52a7d05",
    "mpeg2dec/mpg_pred/l0-unbounded": "a7231aca973ecfa5a999451e7ddb898f1d8affc52f8cf7e09c29fa045a8d1a97",
    "mpeg2dec/mpg_add/l0-4": "6922250cc64253307f055dfbe73b0955bdd522bf4d6ca4c78662ffc391441427",
    "mpeg2dec/mpg_add/l0-8": "6a0fc0390d445cc186e60b1be33de5d76db3b36057a41f47468d0bb673b1f221",
    "mpeg2dec/mpg_add/l0-16": "22690458abe2786979c51623156a2436ff824e724c5439e53b3f24cbf123bb12",
    "mpeg2dec/mpg_add/l0-unbounded": "c0be34579c551a270cae2f9a94082794b1cb9ef23989df802344e8a7e310a5ab",
    "mpeg2dec/mpg_vlc/l0-4": "60b47c451d91aec9ed8e1c2fa879124ad6013eb0b791981e75e2a0ffa7d4cd60",
    "mpeg2dec/mpg_vlc/l0-8": "428fe991e4409373035312329c80d8553109c2c650022d68ce1f6972914d3ccd",
    "mpeg2dec/mpg_vlc/l0-16": "8945635a6d8f4f46488839cc6e5c7cc6c90d77fb5e8bd300d8c108ce4638a591",
    "mpeg2dec/mpg_vlc/l0-unbounded": "f68b46ab86b1b946e4d7c3ef71230ad6aa9a20bc490afc52ee3445bc2d735325",
    "pegwitdec/pegwitdec_sbox/l0-4": "989fa1f53842159ddb10508e4f2f590b7ff5fee4582b0ef2507abcdddc8c5f5f",
    "pegwitdec/pegwitdec_sbox/l0-8": "eb5deb1497bc87c1bb6360eb4381d609c09d6f43286c2b73f047bbf59d02e637",
    "pegwitdec/pegwitdec_sbox/l0-16": "d4a5509c94864504cbd4c0f39ad4e84ce681625c211031ae2ff63f765a725241",
    "pegwitdec/pegwitdec_sbox/l0-unbounded": "5fdf6734ffc5732c31550eb839a9b90fcbad7321e3c4861ac5c47e151388932d",
    "pegwitdec/pegwitdec_hash/l0-4": "0a9d62d6fc6267f27281c1d93cb93d5a88294137c95ce3358da49b407410b540",
    "pegwitdec/pegwitdec_hash/l0-8": "47fc834748de7ec963accd3b88deb1c39fc107b297c649e2266d36ec62523bb7",
    "pegwitdec/pegwitdec_hash/l0-16": "47bfe4635ada9237c9de49e618d5c0bfd0297ecb1bd705501210186824acf568",
    "pegwitdec/pegwitdec_hash/l0-unbounded": "3b51ff184c24a6f4b8021a9477a22b336621409a20e9e37e335db93bcb6aeced",
    "pegwitdec/pegwitdec_gf/l0-4": "b6d7a2049b1482634e9036c3ecdc9589e3465a4e701e4fcca6be3bfd0576e52a",
    "pegwitdec/pegwitdec_gf/l0-8": "809f34264506d076a0b709b3c992807f0620eb873a6aae69d4994f2767895d7c",
    "pegwitdec/pegwitdec_gf/l0-16": "23b7dcdfd217d8e6d95de253af1e005edc8a0a26d1dc10f6ceaf119eacc4a841",
    "pegwitdec/pegwitdec_gf/l0-unbounded": "b9052de6248d009b070de983bb02bfb083df8ad6178ab210e2f30f0808600ce5",
    "pegwitdec/pegwitdec_chain/l0-4": "fd5721b7e5d893fb98d5cbcc7b79e2205fdbcb359dc77a26045c4df2b9f439ce",
    "pegwitdec/pegwitdec_chain/l0-8": "2d9aeb36ce46099660284dc9174dc1946bccea7d50063abdaada2903a0e8d1b3",
    "pegwitdec/pegwitdec_chain/l0-16": "925a507d90ba72630078306d3171d51d063d4758671e121cd016c2f0c0b15ee4",
    "pegwitdec/pegwitdec_chain/l0-unbounded": "a3675e9fd8c643d344a173cbea46abb9e1fb3937a1e843c20518bb6e06a88d3c",
    "pegwitenc/pegwitenc_sbox/l0-4": "45c775f06fa9eb2ba041a98d80611fcc926e4d89b6e6d27e479438c3dcac9aa8",
    "pegwitenc/pegwitenc_sbox/l0-8": "647b0e81c9847ef14e2d3b93c3c2ceaca0f2ad06ef02fc904edefa45bf23603d",
    "pegwitenc/pegwitenc_sbox/l0-16": "e169fb02bbb481478fd936a788843b53c14bad3f637b2413a2f16395d7f47b82",
    "pegwitenc/pegwitenc_sbox/l0-unbounded": "13c04094f97e5c75ac162eb312080953d67f72a4f91e5d4077c0d36ebd9eaa71",
    "pegwitenc/pegwitenc_hash/l0-4": "a138d6e982e188788b5f9ccdd55366630ef7b5ec2916365e5a57e3ad5ddb32ac",
    "pegwitenc/pegwitenc_hash/l0-8": "e3251d9d6b871ff3c7120ad79401e31a71425f5da95344fd4e30b8e8e51e00ba",
    "pegwitenc/pegwitenc_hash/l0-16": "28ba93b22fecf5d1e77c810b0df823f1571c4290f1715495db9d32c87ae6bb0c",
    "pegwitenc/pegwitenc_hash/l0-unbounded": "08cb0ade1346dcc29182d51e248638187ae9c06a382d3333c3aac9eaa188218a",
    "pegwitenc/pegwitenc_gf/l0-4": "dc5c6b7f513f964ddba6167d6fd16063c110ef969be0e4183ba2a9d19a7ce063",
    "pegwitenc/pegwitenc_gf/l0-8": "660490738c6664b61d52c7e37cc4b0bf59d477099d1e7e572f9772b86726a104",
    "pegwitenc/pegwitenc_gf/l0-16": "37cd848f7b52e3b4ae742040c83556921ed333d953d14d229c817a5b72d6d527",
    "pegwitenc/pegwitenc_gf/l0-unbounded": "d15aa742d34a3af3d93864d681e314e29a027d485c1e534359a73855483e6ea1",
    "pegwitenc/pegwitenc_chain/l0-4": "a9457760a43b21e38c4550458be90f2250a6f1207cb68675700a2e74a2dcd5ea",
    "pegwitenc/pegwitenc_chain/l0-8": "952add8b441ff5254030c9646dc88c3b99094bbc50f204786b5c4f54b697bb8a",
    "pegwitenc/pegwitenc_chain/l0-16": "dd1079c0d2d2fb7f8c4ca5a60fbaa1594e5818a4ebf76db50cc41c060560512b",
    "pegwitenc/pegwitenc_chain/l0-unbounded": "90acbb7d184de5bda30e44c8ba9b5f420c9320d6dfaeeaca4dc5393262f53142",
    "pgpdec/pgpd_mulmod/l0-4": "3c904dff993746ca490ffafe3bb5b8ab08738fd97b001a0e5a415129bdf2cda6",
    "pgpdec/pgpd_mulmod/l0-8": "5153203becb72c164f1284526e800ee7c60a6ff01321e425a09386f7a8375fab",
    "pgpdec/pgpd_mulmod/l0-16": "63e0b69577fcbb025da70aec98e4c45cdd7f489af1cd19bf48b116931c44a59c",
    "pgpdec/pgpd_mulmod/l0-unbounded": "220dde579cf16db952aecb3438e500375e69adbcdac907be83ae74c5201a8a19",
    "pgpdec/pgpd_idea/l0-4": "aa237dbafd8e7a9224884779f3387e35825a5681a9132095e3f783362cc04649",
    "pgpdec/pgpd_idea/l0-8": "50b34674ea046201ae25e7db6e221ddfd022086da8283025b01f50a5c22070d1",
    "pgpdec/pgpd_idea/l0-16": "319108bdee74e51d03dde3821c11c1ebfb75190ef99eda14bfd554d563955e27",
    "pgpdec/pgpd_idea/l0-unbounded": "1ea0c52c005e7083c1c82a8f3bb2e43a89eea5b6444a76767310c2051a6e9255",
    "pgpdec/pgpd_transpose/l0-4": "46f8fcbb439f9a2c691e4f4e3c16a8e21cea6a5acca79fd96c3c9e72c4baace5",
    "pgpdec/pgpd_transpose/l0-8": "92611f2e82e3c5597ef783d3ad5a13d1fa4c7e2d13bec6df965de554ace0e976",
    "pgpdec/pgpd_transpose/l0-16": "f380f7889f23262fb0a4a7bb6bbb6f03afb6f3fef42d5c0535910c8d7d6fe607",
    "pgpdec/pgpd_transpose/l0-unbounded": "5cb1d19b751ae527556d313e76b7038011f1cd1c5e261498abf4f3589ad161c0",
    "pgpdec/pgpd_borrow/l0-4": "5610e5260a523efd11f1054330e4716d6e4df89114e05835fd8ce48115decbe5",
    "pgpdec/pgpd_borrow/l0-8": "1cb20c95f04b1211d973e2afa0de044585b28527e8c11d6bc645705b4e828b90",
    "pgpdec/pgpd_borrow/l0-16": "453112f452c11b6678f30d34aa91ab48398fce67c5755038825ad7f2840866d3",
    "pgpdec/pgpd_borrow/l0-unbounded": "97f96de5f62c2a3b2a442654e31097fd9f1fad81d92386306d18e9491b602848",
    "pgpenc/pgpe_mulmod/l0-4": "ff04ca3a0deedbcc77b1a1783909661ce59aacc69559f2b7ed92e3188f837901",
    "pgpenc/pgpe_mulmod/l0-8": "46bf0bad82cd1c070cc8ea3f95e16517339cb091ce88abe1d6858458c69e6bad",
    "pgpenc/pgpe_mulmod/l0-16": "514803d80383eda6cc39325eeb8b5c052741a81f9c8b7a72bb5be07b0b358425",
    "pgpenc/pgpe_mulmod/l0-unbounded": "792142d972b578d262f8852a662f5e3f919ff03f97d573f41daa562485597d1d",
    "pgpenc/pgpe_idea/l0-4": "834a43a385a13b4e46a23adad4ee922dcaa7b7419f45bdd4c1baf5e5be864ecb",
    "pgpenc/pgpe_idea/l0-8": "28cc4c6a9ab8cd188dc723cc659539b833ed34d6e04a058c2ae8253eefef87ba",
    "pgpenc/pgpe_idea/l0-16": "fa32f8a5e25ca84ab7fd48b8868efa28b1d58f28a3b89dd54d386ae3ee4a7fb1",
    "pgpenc/pgpe_idea/l0-unbounded": "380a833b3945a4aa8f6cda751eb39d7bee1e4d9574704497203083000b19e069",
    "pgpenc/pgpe_keys/l0-4": "5a2a73c3c2622b55564aeaf30574907a0d5a8b6b7c324f7da166e73eefe1d218",
    "pgpenc/pgpe_keys/l0-8": "bb161c82ef5ac440cebe86a73fa8271510b367824be866c8bf3ad2dc4b954fba",
    "pgpenc/pgpe_keys/l0-16": "94414e142ed2bea4910375972cd2a731e1e4ec781d3ab1937697c9a006123802",
    "pgpenc/pgpe_keys/l0-unbounded": "e3676a0b41c66cad6a1e9e054bddd84f60c92e022af96df966cbb59f3c037b13",
    "pgpenc/pgpe_borrow/l0-4": "b668f44bc6e2b888396c4b60e0835fd2f1e2163b22d6e6e3497e313e2e148e29",
    "pgpenc/pgpe_borrow/l0-8": "e1abb6caaadf45e02051b59f4063732752d1af215abb4cabd6547a28fcc4c0c1",
    "pgpenc/pgpe_borrow/l0-16": "c460be94dc7cddcc6f6dc38d0123316ff6cb7d61eda431545ea913ccbf6618bb",
    "pgpenc/pgpe_borrow/l0-unbounded": "b10719318108e2ffff49966a13c463941aea6ae3a9ef98423d0503688fe1a946",
    "rasta/rasta_iir/l0-4": "31757cbf24faf38e7978659b557e6178dcb6aebbd5fb9f0349b2419b7b952b3c",
    "rasta/rasta_iir/l0-8": "ff39a34b59f6d55892b8df684bee141e343bcd36749b65059eb0b2034073207d",
    "rasta/rasta_iir/l0-16": "3522ba6d0bc51501fdede6ae2a8ca224dc763850d12865ba7f77df21c9f29255",
    "rasta/rasta_iir/l0-unbounded": "7d74b887e4ae9670c7cd069baf5157404e639a5224cd22bc7d07c78cc0e52f37",
    "rasta/rasta_bank/l0-4": "a1b34845ed083d39d442fb190e01d90681fd9d7691bb512e30a332bff798e2c6",
    "rasta/rasta_bank/l0-8": "ff090321836567c91da3decbb3d0b2fc65806de2fc6bf685815972fbbef3f1c0",
    "rasta/rasta_bank/l0-16": "21f9fbefdaa44eeb3f5ea65391f24fe9a6bd37b2fb680e46155419a67d137f53",
    "rasta/rasta_bank/l0-unbounded": "679769112c5b13fd623bb8f03c6ad33de269edff78cc941fb1dfed425444e724",
    "rasta/rasta_fft/l0-4": "150959c94ddb011ab65bf67ef2847f16ac1d84451ed066e66b61cdb9b3ba8411",
    "rasta/rasta_fft/l0-8": "83b3364f757233d4d60806f3d48852ea4182553577bff423df7cb9e340c3ba7d",
    "rasta/rasta_fft/l0-16": "7ce831b82ea38dca70ce78c3df558ada63694e717849f6d8b2e3977771c28a95",
    "rasta/rasta_fft/l0-unbounded": "5bff7c0d340ce4e9ee07d885c36e5600fe89dfde6b8bd90b003989a95aaaaf56",
    "rasta/rasta_nl/l0-4": "ff3ec1c078980bf2c6d6993fd4cb0ba42827c4e0397aa3dc6e54a2d22030aac1",
    "rasta/rasta_nl/l0-8": "380aac13cfc3c94146f093286b2f49fa7d529ab13592b2dd93cc117dee6c7b29",
    "rasta/rasta_nl/l0-16": "a94b319878f3390f6c5ea948d98400e604d734ea5d8e9f97b1c868d094d6c5e7",
    "rasta/rasta_nl/l0-unbounded": "ba375313cf9b12ccae7232b637cd2534edc120011a1e09830a9133a6767a0bc2",
}


@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_sms_sample_digest(name):
    digest = program_digest(name, SAMPLE_CONFIGS, first_only=True)
    assert digest == SAMPLE_DIGESTS[name]


@pytest.mark.parametrize("case", EXACT_SAMPLE, ids=_exact_key)
def test_exact_sample_digest(case):
    assert exact_case_digest(case) == EXACT_SAMPLE_DIGESTS[_exact_key(case)]


@pytest.mark.parametrize("case", EXACT_SAMPLE, ids=_exact_key)
def test_exact_sample_placement_digest(case):
    digest = exact_case_digest(case, trials=False)
    assert digest == EXACT_SAMPLE_PLACEMENT_DIGESTS[_exact_key(case)]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_fig5_sms_digest(name):
    digest = program_digest(name, FIG5_CONFIGS, first_only=False)
    assert digest == FIG5_DIGESTS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_schedcompare_exact_digest(name):
    assert schedcompare_digest(name) == SCHEDCOMPARE_DIGESTS[name]


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(PAPER_TABLE1))
def test_schedcompare_row_digests(name):
    rows = schedcompare_row_digests(name)
    expected = {key: SCHEDCOMPARE_ROW_DIGESTS[key] for key in rows}
    assert rows == expected


def _print_table(title: str, rows) -> None:
    print(f"{title} = {{")
    for key, value in rows:
        print(f'    "{key}": "{value}",')
    print("}\n")


def print_tables() -> None:
    """Print the digest tables of the tree as it stands."""
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
        "EXACT_SAMPLE_PLACEMENT_DIGESTS",
        [
            (_exact_key(case), exact_case_digest(case, trials=False))
            for case in EXACT_SAMPLE
        ],
    )
    _print_table(
        "FIG5_DIGESTS",
        [(n, program_digest(n, FIG5_CONFIGS, first_only=False)) for n in names],
    )
    _print_table("SCHEDCOMPARE_DIGESTS", [(n, schedcompare_digest(n)) for n in names])
    _print_table(
        "SCHEDCOMPARE_ROW_DIGESTS",
        [row for n in names for row in schedcompare_row_digests(n).items()],
    )


if __name__ == "__main__":
    print_tables()
