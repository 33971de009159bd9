"""The kernel corpus: hand-picked edge cases plus seeded random cases.

PSB2-style split (SNIPPETS.md snippet 3): a small committed **edge**
corpus of hand-written kernels with stable ids, each aimed at one known
cliff of the scheduler/simulator stack, and an unbounded population of
**seeded random** kernels drawn from the parametric generator's
structure profiles (``repro.workloads.generator.PROFILES``).

Every corpus member — edge or random — is a
:class:`~repro.workloads.generator.KernelGenotype`, so one shrinker,
one serialisation and one replay path cover the whole corpus.

Kernel ids are stable strings:

* ``edge:<name>``           — a committed edge kernel;
* ``seed:<n>``              — random kernel ``n`` of the default profile;
* ``seed:<profile>:<n>``    — random kernel ``n`` of a named profile.
"""

from __future__ import annotations

from ..workloads.generator import PROFILES, KernelGenotype, random_genotype


def _edge(name: str, trip: int, arrays, ops, alias=()) -> KernelGenotype:
    return KernelGenotype(
        name=f"edge_{name}",
        trip=trip,
        arrays=[dict(a) for a in arrays],
        ops=[dict(op) for op in ops],
        alias=[list(g) for g in alias],
    )


def _build_edge_corpus() -> dict[str, KernelGenotype]:
    corpus: dict[str, KernelGenotype] = {}

    def add(genotype: KernelGenotype) -> None:
        name = genotype.name.removeprefix("edge_")
        corpus[name] = genotype

    # The boundary kernel: one load, trip 1.  Exercises every layer's
    # degenerate path (prologue==epilogue, single window).
    add(
        _edge(
            "tiny",
            trip=1,
            arrays=[{"n": 64, "elem": 4}],
            ops=[{"k": "load", "a": 0, "stride": 1, "offset": 0}],
        )
    )

    # Max-recurrence ladder: a deep accumulate chain on top of one
    # stream — rec_mii dominates, the exact scheduler's anchoring and
    # the fast path's ALU-pruning proof both get a workout.
    add(
        _edge(
            "recurrence_ladder",
            trip=48,
            arrays=[{"n": 512, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "acc", "op": "IADD", "v": 2},
                {"k": "acc", "op": "IMAX", "v": 3},
                {"k": "acc", "op": "IADD", "v": 4},
                {"k": "acc", "op": "IXOR", "v": 5},
                {"k": "acc", "op": "IADD", "v": 6},
                {"k": "store", "a": 0, "v": 7, "stride": 1, "offset": 0},
            ],
        )
    )

    # Floating-point feedback: FADD accumulation (latency 2) forces a
    # recurrence the FP unit bounds.
    add(
        _edge(
            "fp_feedback",
            trip=40,
            arrays=[{"n": 512, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "alu", "op": "fmul", "x": 2, "y": 0},
                {"k": "acc", "op": "FADD", "v": 3},
                {"k": "acc", "op": "FADD", "v": 4},
                {"k": "store", "a": 0, "v": 5, "stride": 1, "offset": 1},
            ],
        )
    )

    # Bus storm: four streams in, two out, with integer glue — on
    # multi-cluster configs the cross-cluster register buses and the
    # greedy bus-row placement (the A014 frontier) become binding.
    add(
        _edge(
            "bus_storm",
            trip=32,
            arrays=[
                {"n": 1024, "elem": 4},
                {"n": 1024, "elem": 4},
                {"n": 1024, "elem": 4},
                {"n": 1024, "elem": 4},
            ],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "load", "a": 1, "stride": 1, "offset": 0},
                {"k": "load", "a": 2, "stride": 1, "offset": 0},
                {"k": "load", "a": 3, "stride": 1, "offset": 0},
                {"k": "alu", "op": "iadd", "x": 2, "y": 3},
                {"k": "alu", "op": "ixor", "x": 4, "y": 5},
                {"k": "alu", "op": "imax", "x": 6, "y": 7},
                {"k": "alu", "op": "iadd", "x": 6, "y": 7},
                {"k": "store", "a": 0, "v": 8, "stride": 1, "offset": 0},
                {"k": "store", "a": 1, "v": 9, "stride": 1, "offset": 0},
            ],
        )
    )

    # Register-pressure cliff: eight loads all consumed by a reduction
    # tree whose leaves stay live together.
    add(
        _edge(
            "regpressure_cliff",
            trip=24,
            arrays=[{"n": 4096, "elem": 4}, {"n": 4096, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 2, "offset": 0},
                {"k": "load", "a": 0, "stride": 2, "offset": 1},
                {"k": "load", "a": 1, "stride": 2, "offset": 0},
                {"k": "load", "a": 1, "stride": 2, "offset": 1},
                {"k": "load", "a": 0, "stride": 4, "offset": 2},
                {"k": "load", "a": 0, "stride": 4, "offset": 3},
                {"k": "load", "a": 1, "stride": 4, "offset": 2},
                {"k": "load", "a": 1, "stride": 4, "offset": 3},
                {"k": "alu", "op": "iadd", "x": 2, "y": 3},
                {"k": "alu", "op": "iadd", "x": 4, "y": 5},
                {"k": "alu", "op": "iadd", "x": 6, "y": 7},
                {"k": "alu", "op": "iadd", "x": 8, "y": 9},
                {"k": "alu", "op": "iadd", "x": 10, "y": 11},
                {"k": "alu", "op": "iadd", "x": 12, "y": 13},
                {"k": "alu", "op": "iadd", "x": 14, "y": 15},
                {"k": "store", "a": 0, "v": 16, "stride": 1, "offset": 0},
            ],
        )
    )

    # Store-heavy aliasing: two arrays the compiler must assume may
    # overlap, written and read at colliding offsets with a degenerate
    # stride-0 broadcast in the mix.
    add(
        _edge(
            "alias_storm",
            trip=32,
            arrays=[{"n": 128, "elem": 4}, {"n": 128, "elem": 4}],
            alias=[[0, 1]],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "load", "a": 1, "stride": 1, "offset": 1},
                {"k": "load", "a": 0, "stride": 0, "offset": 2},
                {"k": "alu", "op": "iadd", "x": 2, "y": 3},
                {"k": "store", "a": 1, "v": 5, "stride": 1, "offset": 0},
                {"k": "alu", "op": "isub", "x": 4, "y": 5},
                {"k": "store", "a": 0, "v": 6, "stride": -1, "offset": 3},
            ],
        )
    )

    # Random table lookups: non-affine streams take the trace executor's
    # inlined-hash address path; they also stress the late-load
    # interlocks.
    add(
        _edge(
            "random_table",
            trip=64,
            arrays=[{"n": 2048, "elem": 4}, {"n": 64, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "load", "a": 1, "random": True, "seed": 7},
                {"k": "load", "a": 1, "random": True, "seed": 11},
                {"k": "alu", "op": "ixor", "x": 3, "y": 4},
                {"k": "alu", "op": "iadd", "x": 2, "y": 5},
                {"k": "store", "a": 0, "v": 6, "stride": 1, "offset": 0},
            ],
        )
    )

    # Degenerate strides: stride-0 loads (scalar rebroadcast every
    # iteration) and a negative-stride store walk.
    add(
        _edge(
            "stride_zero_walk",
            trip=40,
            arrays=[{"n": 256, "elem": 2}, {"n": 256, "elem": 2}],
            ops=[
                {"k": "load", "a": 0, "stride": 0, "offset": 0},
                {"k": "load", "a": 1, "stride": -1, "offset": 0},
                {"k": "alu", "op": "imul", "x": 2, "y": 3},
                {"k": "alu", "op": "isat", "x": 4, "y": 2},
                {"k": "store", "a": 1, "v": 5, "stride": -1, "offset": 0},
            ],
        )
    )

    # Carry chain: bignum-style dependent integer adds between a load
    # and a store — long intra-iteration chains with span >> II.
    add(
        _edge(
            "carry_chain",
            trip=32,
            arrays=[{"n": 1024, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "alu", "op": "iadd", "x": 2, "y": 0},
                {"k": "alu", "op": "ishr", "x": 3, "y": 1},
                {"k": "alu", "op": "iadd", "x": 4, "y": 3},
                {"k": "alu", "op": "ishr", "x": 5, "y": 1},
                {"k": "alu", "op": "iadd", "x": 6, "y": 5},
                {"k": "store", "a": 0, "v": 7, "stride": 1, "offset": 0},
            ],
        )
    )

    # Wide FP pipeline: independent FP chains that saturate the FP unit
    # and leave the integer side idle (an FP-bound ResMII).
    add(
        _edge(
            "wide_fp",
            trip=32,
            arrays=[{"n": 1024, "elem": 4}, {"n": 1024, "elem": 4}],
            ops=[
                {"k": "load", "a": 0, "stride": 1, "offset": 0},
                {"k": "load", "a": 1, "stride": 1, "offset": 0},
                {"k": "alu", "op": "fmul", "x": 2, "y": 3},
                {"k": "alu", "op": "fadd", "x": 4, "y": 2},
                {"k": "alu", "op": "fmul", "x": 3, "y": 5},
                {"k": "alu", "op": "fsub", "x": 6, "y": 4},
                {"k": "store", "a": 0, "v": 7, "stride": 1, "offset": 0},
            ],
        )
    )

    return corpus


#: The committed edge corpus: stable name -> genotype.
EDGE_CORPUS: dict[str, KernelGenotype] = _build_edge_corpus()


def resolve_kernel(kernel_id: str) -> KernelGenotype:
    """Resolve a stable kernel id to its genotype."""
    head, _, rest = kernel_id.partition(":")
    if head == "edge":
        try:
            return EDGE_CORPUS[rest]
        except KeyError:
            raise ValueError(f"unknown edge kernel {kernel_id!r}") from None
    if head == "seed":
        profile, _, seed_text = rest.rpartition(":")
        profile = profile or "default"
        if profile not in PROFILES:
            raise ValueError(f"unknown profile in kernel id {kernel_id!r}")
        try:
            seed = int(seed_text)
        except ValueError:
            raise ValueError(f"malformed kernel id {kernel_id!r}") from None
        return random_genotype(seed, profile)
    raise ValueError(f"malformed kernel id {kernel_id!r}")


def edge_kernel_ids() -> list[str]:
    return [f"edge:{name}" for name in sorted(EDGE_CORPUS)]


def seed_kernel_ids(start: int, stop: int, profiles: list[str]) -> list[str]:
    """Kernel ids for a seed range, cycling profiles deterministically."""
    if not profiles:
        raise ValueError("no generator profile named")
    for profile in profiles:
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
    return [
        f"seed:{profiles[seed % len(profiles)]}:{seed}" for seed in range(start, stop)
    ]
