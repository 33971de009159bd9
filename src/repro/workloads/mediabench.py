"""The synthetic Mediabench suite.

The paper evaluates 13 Mediabench programs (Table 1).  Their sources and
inputs are not redistributable here, so each program is modelled as a
small set of weighted inner loops — the modulo-scheduled kernels that
make up ~80% of the paper's dynamic instruction stream — chosen to match
that program's published stride profile (Table 1: %S strided, %SG good
strides, %SO other strides) and the per-program behaviours the paper
narrates:

* g721/gsm/pgp — feedback recurrences and unit-stride streams over
  small (L1-resident) state arrays: the big L0 wins;
* jpegdec — a pathological block loop with every memory slot busy and
  heavy prefetching (L0 loses there), plus Huffman table lookups;
* epicdec/rasta — small-II loops whose prefetches arrive late;
* pegwit — large random working sets (low L1 hit rate, stall-bound
  even with unbounded L0);
* mpeg2dec — motion-compensation walks dominated by non-unit strides.

Each benchmark also carries ``loop_fraction``: modulo-scheduled inner
loops cover ~80% of the paper's dynamic stream, so experiment
normalisation adds an architecture-independent scalar-code residue
sized from the baseline run (see ``repro.eval``).

See DESIGN.md ("Substitutions") for the fidelity argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..ir.loop import Loop
from . import kernels


@dataclass(frozen=True)
class LoopSpec:
    """One inner loop plus how many times the program enters it."""

    loop: Loop
    invocations: int = 1

    def __post_init__(self) -> None:
        if type(self.invocations) is not int:
            raise TypeError(
                f"loop {self.loop.name!r}: invocations must be an int, "
                f"got {self.invocations!r}"
            )
        if self.invocations < 1:
            raise ValueError(
                f"loop {self.loop.name!r}: invocations must be >= 1, "
                f"got {self.invocations}"
            )


@dataclass(frozen=True)
class Benchmark:
    name: str
    loops: tuple[LoopSpec, ...]
    description: str = ""
    #: Fraction of dynamic execution spent in modulo-scheduled loops
    #: (the paper reports ~80%); the rest is architecture-independent.
    loop_fraction: float = 0.8


#: Paper Table 1 — (S, SG, SO) percentages per benchmark.
PAPER_TABLE1: dict[str, tuple[int, int, int]] = {
    "epicdec": (99, 66, 33),
    "g721dec": (100, 100, 0),
    "g721enc": (100, 100, 0),
    "gsmdec": (97, 97, 0),
    "gsmenc": (99, 99, 0),
    "jpegdec": (60, 39, 21),
    "jpegenc": (49, 40, 9),
    "mpeg2dec": (96, 42, 54),
    "pegwitdec": (50, 48, 2),
    "pegwitenc": (56, 54, 2),
    "pgpdec": (99, 98, 1),
    "pgpenc": (86, 86, 0),
    "rasta": (95, 87, 8),
}


def _epicdec() -> Benchmark:
    return Benchmark(
        name="epicdec",
        description="wavelet pyramid decoder: unit-stride filters + "
        "column subsampling walks in small-II loops",
        loops=(
            LoopSpec(
                kernels.fp_filter("epic_recon", trip=1200, n=1024, taps=2, fp_depth=3),
                invocations=4,
            ),
            LoopSpec(
                kernels.column_walk(
                    "epic_cols", trip=512, n=1024, elem=4, stride=8, alu_depth=3
                ),
                invocations=6,
            ),
            LoopSpec(
                kernels.stream_map(
                    "epic_unquant", trip=1600, n=1024, elem=4, taps=1, alu_depth=5
                ),
                invocations=3,
            ),
        ),
    )


def _g721(name: str) -> Benchmark:
    return Benchmark(
        name=name,
        description="ADPCM codec: predictor feedback recurrences over "
        "small state arrays; 100% good strides",
        loops=(
            LoopSpec(
                kernels.feedback(f"{name}_pred", trip=2400, n=1024, elem=2, work=4),
                invocations=3,
            ),
            LoopSpec(
                kernels.feedback(
                    f"{name}_adapt", trip=2400, n=1024, elem=2, work=5,
                    extra_stream=False,
                ),
                invocations=2,
            ),
            LoopSpec(
                kernels.stream_map(
                    f"{name}_io", trip=2400, n=1024, elem=2, taps=1, alu_depth=3
                ),
                invocations=2,
            ),
        ),
    )


def _gsmdec() -> Benchmark:
    return Benchmark(
        name="gsmdec",
        description="GSM decoder: LTP synthesis feedback + unit-stride "
        "postprocessing; ~3% non-strided side lookups",
        loops=(
            LoopSpec(
                kernels.feedback("gsmd_ltp", trip=2000, n=1024, elem=2, work=3),
                invocations=3,
            ),
            LoopSpec(
                kernels.stream_map(
                    "gsmd_deemph", trip=2000, n=1024, elem=2, taps=2, alu_depth=6
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.table_mix(
                    "gsmd_dequant", trip=640, n_stream=1024, n_table=256,
                    elem=2, random_loads=1, alu_depth=3,
                ),
                invocations=1,
            ),
        ),
    )


def _gsmenc() -> Benchmark:
    return Benchmark(
        name="gsmenc",
        description="GSM encoder: autocorrelation reductions + weighting "
        "filters; ~1% non-strided",
        loops=(
            LoopSpec(
                kernels.reduction(
                    "gsme_autoc", trip=2000, n=1024, elem=2, taps=2, alu_depth=4
                ),
                invocations=4,
            ),
            LoopSpec(
                kernels.stream_map(
                    "gsme_weight", trip=2000, n=1024, elem=2, taps=2, alu_depth=6
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.feedback("gsme_preemph", trip=2000, n=1024, elem=2, work=1),
                invocations=2,
            ),
        ),
    )


def _jpegdec() -> Benchmark:
    return Benchmark(
        name="jpegdec",
        description="JPEG decoder: Huffman table lookups (non-strided), "
        "the pathological all-memory-slots-busy IDCT column loop, and "
        "unit-stride color output",
        loops=(
            LoopSpec(
                # The loop the paper singles out: every memory slot busy,
                # column strides that want interleaved mapping but cannot
                # all get it, prefetching common.
                kernels.column_walk(
                    "jpgd_idct_col", trip=8, n=64, elem=2, stride=8, taps=3,
                    alu_depth=1,
                ),
                invocations=1000,
            ),
            LoopSpec(
                kernels.table_mix(
                    "jpgd_huff", trip=2000, n_stream=2048, n_table=512,
                    elem=2, random_loads=3, alu_depth=2,
                ),
                invocations=12,
            ),
            LoopSpec(
                kernels.multi_stream(
                    "jpgd_color", trip=2000, n=2048, elem=1, inputs=3, alu_depth=4
                ),
                invocations=2,
            ),
            LoopSpec(
                kernels.multi_stream(
                    "jpgd_upsample", trip=2000, n=2048, elem=2, inputs=3,
                    alu_depth=3,
                ),
                invocations=2,
            ),
        ),
    )


def _jpegenc() -> Benchmark:
    return Benchmark(
        name="jpegenc",
        description="JPEG encoder: forward DCT rows, quantization with "
        "table lookups, Huffman emit (heavily non-strided)",
        loops=(
            LoopSpec(
                kernels.column_walk(
                    "jpge_fdct", trip=8, n=64, elem=2, stride=8, alu_depth=3
                ),
                invocations=400,
            ),
            LoopSpec(
                kernels.table_mix(
                    "jpge_quant", trip=2000, n_stream=2048, n_table=512,
                    elem=2, random_loads=3, alu_depth=3,
                ),
                invocations=6,
            ),
            LoopSpec(
                kernels.stream_map(
                    "jpge_shift", trip=1600, n=2048, elem=1, taps=1, alu_depth=3
                ),
                invocations=2,
            ),
        ),
    )


def _mpeg2dec() -> Benchmark:
    return Benchmark(
        name="mpeg2dec",
        description="MPEG-2 decoder: motion compensation row/column walks "
        "(54% other strides) + IDCT output adds, II around 5-6",
        loops=(
            LoopSpec(
                kernels.column_walk(
                    "mpg_mocomp", trip=1024, n=8192, elem=1, stride=45,
                    alu_depth=4, store_stride=45,
                ),
                invocations=4,
            ),
            LoopSpec(
                kernels.column_walk(
                    "mpg_pred", trip=1024, n=8192, elem=1, stride=45, alu_depth=5
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.multi_stream(
                    "mpg_add", trip=1800, n=4096, elem=1, inputs=2, alu_depth=6
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.table_mix(
                    "mpg_vlc", trip=400, n_stream=2048, n_table=512,
                    elem=2, random_loads=1, alu_depth=2,
                ),
                invocations=1,
            ),
        ),
    )


def _pegwit(name: str) -> Benchmark:
    taps = 3 if name.endswith("enc") else 2
    return Benchmark(
        name=name,
        description="elliptic-curve crypto: big random S-box working set "
        "(low L1 hit rate; stall-bound even with unbounded L0)",
        loops=(
            LoopSpec(
                kernels.table_mix(
                    f"{name}_sbox", trip=2000, n_stream=1024,
                    n_table=8192, elem=4, random_loads=4, alu_depth=4,
                ),
                invocations=4,
            ),
            LoopSpec(
                kernels.stream_map(
                    f"{name}_hash", trip=2000, n=1024, elem=4,
                    taps=taps, alu_depth=7,
                ),
                invocations=1,
            ),
            LoopSpec(
                kernels.bignum(f"{name}_gf", trip=1200, n=1024, alu_depth=3),
                invocations=1,
            ),
            LoopSpec(
                kernels.feedback(
                    f"{name}_chain", trip=1000, n=1024, elem=4, work=3
                ),
                invocations=2,
            ),
        ),
    )


def _pgpdec() -> Benchmark:
    return Benchmark(
        name="pgpdec",
        description="RSA/IDEA decrypt: multiword arithmetic with carry "
        "recurrences; 98% good strides",
        loops=(
            LoopSpec(
                kernels.bignum("pgpd_mulmod", trip=2000, n=1024, alu_depth=3),
                invocations=4,
            ),
            LoopSpec(
                kernels.stream_map(
                    "pgpd_idea", trip=2000, n=2048, elem=2, taps=2, alu_depth=6
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.column_walk(
                    "pgpd_transpose", trip=256, n=1024, elem=4, stride=16,
                    alu_depth=2,
                ),
                invocations=1,
            ),
            LoopSpec(
                kernels.feedback(
                    "pgpd_borrow", trip=2000, n=1024, elem=4, work=2
                ),
                invocations=4,
            ),
        ),
    )


def _pgpenc() -> Benchmark:
    return Benchmark(
        name="pgpenc",
        description="RSA/IDEA encrypt: multiword arithmetic plus a "
        "non-strided key schedule (~14%)",
        loops=(
            LoopSpec(
                kernels.bignum("pgpe_mulmod", trip=2000, n=1024, alu_depth=3),
                invocations=4,
            ),
            LoopSpec(
                kernels.stream_map(
                    "pgpe_idea", trip=2000, n=2048, elem=2, taps=2, alu_depth=6
                ),
                invocations=2,
            ),
            LoopSpec(
                kernels.table_mix(
                    "pgpe_keys", trip=1200, n_stream=1024, n_table=1024,
                    elem=4, random_loads=2, alu_depth=2,
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.feedback(
                    "pgpe_borrow", trip=2000, n=1024, elem=4, work=2
                ),
                invocations=4,
            ),
        ),
    )


def _rasta() -> Benchmark:
    return Benchmark(
        name="rasta",
        description="RASTA-PLP speech analysis: FP IIR filterbank with "
        "small-II loops (late prefetches) + FFT-style strides",
        loops=(
            LoopSpec(
                kernels.fp_feedback("rasta_iir", trip=1600, n=1024, fp_depth=1),
                invocations=3,
            ),
            LoopSpec(
                kernels.fp_filter(
                    "rasta_bank", trip=1600, n=1024, taps=2, fp_depth=1
                ),
                invocations=3,
            ),
            LoopSpec(
                kernels.column_walk(
                    "rasta_fft", trip=512, n=1024, elem=4, stride=32, alu_depth=1
                ),
                invocations=2,
            ),
            LoopSpec(
                kernels.table_mix(
                    "rasta_nl", trip=400, n_stream=1024, n_table=256,
                    elem=4, random_loads=1, alu_depth=2,
                ),
                invocations=1,
            ),
        ),
    )


BENCHMARK_BUILDERS: dict[str, Callable[[], Benchmark]] = {
    "epicdec": _epicdec,
    "g721dec": lambda: _g721("g721dec"),
    "g721enc": lambda: _g721("g721enc"),
    "gsmdec": _gsmdec,
    "gsmenc": _gsmenc,
    "jpegdec": _jpegdec,
    "jpegenc": _jpegenc,
    "mpeg2dec": _mpeg2dec,
    "pegwitdec": lambda: _pegwit("pegwitdec"),
    "pegwitenc": lambda: _pegwit("pegwitenc"),
    "pgpdec": _pgpdec,
    "pgpenc": _pgpenc,
    "rasta": _rasta,
}

BENCHMARK_NAMES: tuple[str, ...] = tuple(BENCHMARK_BUILDERS)


def build(name: str) -> Benchmark:
    try:
        return BENCHMARK_BUILDERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {', '.join(BENCHMARK_NAMES)}"
        ) from None


def suite(names: tuple[str, ...] | None = None) -> list[Benchmark]:
    """The full 13-program suite (or a named subset), in paper order."""
    return [build(name) for name in (names or BENCHMARK_NAMES)]
