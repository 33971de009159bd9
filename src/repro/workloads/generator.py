"""Parametric random-kernel generation for stress tests and fuzzing.

Two generations of generator live here:

* :func:`random_loop` — the original direct generator.  Its output is
  pinned by seed in regression and property tests, so its construction
  is kept byte-for-byte stable.
* The **genotype** generator — :class:`KernelGenotype` is a JSON-able
  intermediate representation of a kernel (arrays, alias groups, a flat
  op list with *indexed* value references) that builds into a
  :class:`~repro.ir.loop.Loop`.  :func:`random_genotype` samples one
  from a named :class:`GenProfile` (tunable structure profiles:
  recurrence chains, bus-saturating traffic, register-pressure cliffs,
  store-heavy aliasing).  Because value/array references are indices
  resolved modulo the live population at build time, *any* subset of a
  genotype's ops still builds a structurally valid loop — which is what
  makes the fuzzer's shrinker (``repro.fuzz.shrink``) able to delete
  ops, drop arrays and clamp scalars freely while hunting a minimal
  reproducer.

Used by hypothesis tests to check scheduler invariants and by
``repro.fuzz`` as the random half of the kernel corpus.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

from ..ir.builder import LoopBuilder
from ..ir.loop import Loop
from ..isa.operations import Opcode
from ..isa.registers import VReg


def random_loop(
    seed: int,
    *,
    max_ops: int = 14,
    trip_count: int = 64,
    allow_random_patterns: bool = True,
    allow_feedback: bool = True,
) -> Loop:
    """A reproducible random loop with realistic structure."""
    rng = random.Random(seed)
    b = LoopBuilder(f"rand{seed}", trip_count=trip_count)
    n_arrays = rng.randint(1, 3)
    arrays = [
        b.array(f"a{idx}", rng.choice([256, 1024, 4096]), rng.choice([1, 2, 4]))
        for idx in range(n_arrays)
    ]
    values: list[VReg] = [b.live_in("k0"), b.live_in("k1")]
    n_ops = rng.randint(4, max_ops)
    has_store_target: dict[str, bool] = {}

    for _ in range(n_ops):
        kind = rng.random()
        if kind < 0.30:
            array = rng.choice(arrays)
            if allow_random_patterns and rng.random() < 0.2:
                values.append(b.load(array, random=True, seed=rng.randint(0, 99)))
            else:
                stride = rng.choice([1, 1, 1, -1, 0, 2, 8])
                offset = rng.randint(0, 4)
                values.append(b.load(array, stride=stride, offset=offset))
        elif kind < 0.45 and len(values) >= 1:
            array = rng.choice(arrays)
            stride = rng.choice([1, 1, -1, 8])
            offset = rng.randint(0, 4)
            b.store(array, rng.choice(values), stride=stride, offset=offset)
            has_store_target[array.name] = True
        elif kind < 0.55 and allow_feedback:
            values.append(b.accumulate(Opcode.IADD, rng.choice(values)))
        elif kind < 0.80:
            op = rng.choice([b.iadd, b.isub, b.imul, b.ixor, b.ishr, b.imax])
            values.append(op(rng.choice(values), rng.choice(values)))
        else:
            op = rng.choice([b.fadd, b.fmul, b.fsub])
            values.append(op(rng.choice(values), rng.choice(values)))

    # Guarantee at least one memory op so every loop exercises the
    # hierarchy.
    if not any(i.is_memory for i in b._body):  # noqa: SLF001 - test helper
        values.append(b.load(arrays[0], stride=1))
    return b.build()


# ----------------------------------------------------------------------
# Genotype representation
# ----------------------------------------------------------------------

#: Builder methods a genotype ``alu`` op may name.
ALU_OPS = (
    "iadd",
    "isub",
    "imul",
    "ixor",
    "ishr",
    "imin",
    "imax",
    "isat",
    "fadd",
    "fsub",
    "fmul",
)

#: Opcodes a genotype ``acc`` (recurrence) op may name.
ACC_OPS = ("IADD", "IMAX", "IXOR", "FADD")

GENOTYPE_SCHEMA = 1


@dataclass
class KernelGenotype:
    """A kernel as serialisable data: the fuzzer's unit of mutation.

    ``ops`` is a flat list of dicts; value operands (``v``/``x``/``y``)
    and array operands (``a``) are indices taken *modulo the population
    alive at build time* (two live-in registers seed the value list), so
    dropping any subset of ops or arrays leaves every remaining
    reference resolvable.  Op kinds:

    * ``{"k": "load", "a": i, "stride": s, "offset": o}`` (or
      ``"random": True, "seed": n`` for a random access pattern);
    * ``{"k": "store", "a": i, "v": j, "stride": s, "offset": o}``;
    * ``{"k": "acc", "op": "IADD", "v": j}`` — a loop-carried
      accumulation (distance-1 recurrence);
    * ``{"k": "alu", "op": "imul", "x": j, "y": m}`` — a pure op named
      by its :class:`LoopBuilder` helper.
    """

    name: str
    trip: int
    arrays: list[dict]  # {"n": n_elems, "elem": elem_size}
    ops: list[dict]
    alias: list[list[int]] = field(default_factory=list)  # array-index groups

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "schema": GENOTYPE_SCHEMA,
            "name": self.name,
            "trip": self.trip,
            "arrays": [dict(a) for a in self.arrays],
            "ops": [dict(op) for op in self.ops],
            "alias": [list(g) for g in self.alias],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KernelGenotype":
        schema = data.get("schema", GENOTYPE_SCHEMA)
        if schema != GENOTYPE_SCHEMA:
            raise ValueError(
                f"genotype has schema {schema!r}, this code reads {GENOTYPE_SCHEMA}"
            )
        return cls(
            name=data["name"],
            trip=int(data["trip"]),
            arrays=[dict(a) for a in data["arrays"]],
            ops=[dict(op) for op in data["ops"]],
            alias=[list(g) for g in data.get("alias", [])],
        )

    def fingerprint(self) -> str:
        """Content digest (name excluded: two routes to one kernel hit)."""
        payload = self.to_json()
        del payload["name"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    # -- phenotype -------------------------------------------------------

    def build(self) -> Loop:
        """Materialise the loop.  Total on any op/array subset: indices
        wrap modulo the live population, an empty memory profile gets a
        fallback load, and degenerate alias groups are dropped."""
        if not self.arrays:
            raise ValueError(f"genotype {self.name!r} declares no arrays")
        b = LoopBuilder(self.name, trip_count=self.trip)
        arrays = [
            b.array(f"a{i}", int(a["n"]), int(a.get("elem", 4)))
            for i, a in enumerate(self.arrays)
        ]
        for group in self.alias:
            members = sorted({arrays[i % len(arrays)].name for i in group})
            if len(members) >= 2:
                b.alias(*(b.array(name, *_shape(self, name)) for name in members))
        values: list[VReg] = [b.live_in("k0"), b.live_in("k1")]
        for op in self.ops:
            kind = op["k"]
            if kind == "load":
                array = arrays[op["a"] % len(arrays)]
                if op.get("random"):
                    seed = int(op.get("seed", 0))
                    values.append(b.load(array, random=True, seed=seed))
                else:
                    values.append(
                        b.load(
                            array,
                            stride=int(op.get("stride", 1)),
                            offset=int(op.get("offset", 0)),
                        )
                    )
            elif kind == "store":
                b.store(
                    arrays[op["a"] % len(arrays)],
                    values[op["v"] % len(values)],
                    stride=int(op.get("stride", 1)),
                    offset=int(op.get("offset", 0)),
                )
            elif kind == "acc":
                opcode = Opcode[op.get("op", "IADD")]
                values.append(b.accumulate(opcode, values[op["v"] % len(values)]))
            elif kind == "alu":
                helper = op.get("op", "iadd")
                if helper not in ALU_OPS:
                    raise ValueError(
                        f"genotype {self.name!r}: unknown alu op {helper!r}"
                    )
                emit = getattr(b, helper)
                values.append(
                    emit(values[op["x"] % len(values)], values[op["y"] % len(values)])
                )
            else:
                raise ValueError(f"genotype {self.name!r}: unknown op kind {kind!r}")
        if not any(i.is_memory for i in b._body):  # noqa: SLF001 - sibling builder
            b.load(arrays[0], stride=1)
        return b.build()


def _shape(genotype: KernelGenotype, name: str) -> tuple[int, int]:
    index = int(name[1:])
    spec = genotype.arrays[index]
    return int(spec["n"]), int(spec.get("elem", 4))


# ----------------------------------------------------------------------
# Structure profiles
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GenProfile:
    """Tunable structure profile: the knobs one kernel family turns.

    ``weights`` orders the (load, store, acc, alu, fp-alu) draw; the
    op-kind mix, operand bias and scalar ranges together aim the family
    at one stressor (recurrence chains, bus traffic, register-pressure
    cliffs, aliasing stores).
    """

    name: str
    ops: tuple[int, int]  # body length range (inclusive)
    trips: tuple[int, ...]  # trip-count choices
    n_arrays: tuple[int, int]
    array_sizes: tuple[int, ...]
    elem_sizes: tuple[int, ...]
    strides: tuple[int, ...]
    store_strides: tuple[int, ...]
    max_offset: int
    weights: tuple[float, float, float, float, float]  # load/store/acc/alu/fp
    p_random_pattern: float = 0.0
    p_alias: float = 0.0
    acc_chain: tuple[int, int] = (1, 1)  # accumulate run length range
    src_bias: str = "any"  # "any" | "old" (long live ranges)


PROFILES: dict[str, GenProfile] = {
    # Balanced mix, mirroring the legacy random_loop distribution.
    "default": GenProfile(
        name="default",
        ops=(4, 14),
        trips=(32, 48, 64),
        n_arrays=(1, 3),
        array_sizes=(256, 1024, 4096),
        elem_sizes=(1, 2, 4),
        strides=(1, 1, 1, -1, 0, 2, 8),
        store_strides=(1, 1, -1, 8),
        max_offset=4,
        weights=(0.30, 0.15, 0.10, 0.25, 0.20),
        p_random_pattern=0.2,
    ),
    # Max-recurrence chains: long accumulate runs force rec_mii up and
    # stress the exact scheduler's window anchoring.
    "recurrence": GenProfile(
        name="recurrence",
        ops=(6, 14),
        trips=(24, 32, 48),
        n_arrays=(1, 2),
        array_sizes=(256, 1024),
        elem_sizes=(2, 4),
        strides=(1, 1, 2),
        store_strides=(1,),
        max_offset=2,
        weights=(0.20, 0.08, 0.42, 0.18, 0.12),
        acc_chain=(2, 5),
    ),
    # Bus-saturating cross-cluster traffic: wide memory-heavy bodies
    # over several arrays (paired with multi-cluster configs at the job
    # layer) keep the inter-cluster buses binding.
    "bus": GenProfile(
        name="bus",
        ops=(10, 20),
        trips=(24, 32, 48),
        n_arrays=(3, 4),
        array_sizes=(512, 1024, 4096),
        elem_sizes=(2, 4),
        strides=(1, 1, -1, 2, 4),
        store_strides=(1, 1, 2),
        max_offset=4,
        weights=(0.42, 0.22, 0.04, 0.22, 0.10),
    ),
    # Register-pressure cliffs: many early loads whose consumers are
    # biased toward the *oldest* live values, stretching live ranges
    # toward the per-cluster cap.
    "regpressure": GenProfile(
        name="regpressure",
        ops=(12, 22),
        trips=(24, 32),
        n_arrays=(2, 3),
        array_sizes=(1024, 4096),
        elem_sizes=(4,),
        strides=(1, 1, 2, 8),
        store_strides=(1,),
        max_offset=2,
        weights=(0.34, 0.08, 0.06, 0.30, 0.22),
        src_bias="old",
    ),
    # Store-heavy aliasing: small arrays, alias groups, overlapping
    # offsets and degenerate strides exercise the memory-dependence
    # analysis and the L0 coherence schemes.
    "aliasing": GenProfile(
        name="aliasing",
        ops=(6, 16),
        trips=(24, 32, 48),
        n_arrays=(2, 3),
        array_sizes=(64, 128, 256),
        elem_sizes=(1, 2, 4),
        strides=(1, 1, -1, 0, 2),
        store_strides=(1, 1, -1, 0, 2),
        max_offset=3,
        weights=(0.26, 0.34, 0.06, 0.22, 0.12),
        p_alias=0.8,
    ),
}


def random_genotype(seed: int, profile: str = "default") -> KernelGenotype:
    """Sample one genotype from a named profile, reproducibly.

    The RNG is seeded on ``(profile, seed)``, so a seed range fans out
    to distinct kernels per profile and the mapping never shifts when
    profiles are added.
    """
    p = PROFILES[profile]
    rng = random.Random(f"{profile}:{seed}")
    n_arrays = rng.randint(*p.n_arrays)
    arrays = [
        {"n": rng.choice(p.array_sizes), "elem": rng.choice(p.elem_sizes)}
        for _ in range(n_arrays)
    ]
    alias: list[list[int]] = []
    if n_arrays >= 2 and rng.random() < p.p_alias:
        group = rng.sample(range(n_arrays), rng.randint(2, n_arrays))
        alias.append(sorted(group))

    kinds = ("load", "store", "acc", "alu", "fp")
    ops: list[dict] = []
    value_count = 2  # the two live-ins

    def pick_value() -> int:
        if p.src_bias == "old":
            return rng.randint(0, max(0, value_count // 3))
        return rng.randrange(value_count)

    n_ops = rng.randint(*p.ops)
    while len(ops) < n_ops:
        kind = rng.choices(kinds, weights=p.weights)[0]
        if kind == "load":
            if rng.random() < p.p_random_pattern:
                ops.append(
                    {
                        "k": "load",
                        "a": rng.randrange(n_arrays),
                        "random": True,
                        "seed": rng.randint(0, 99),
                    }
                )
            else:
                ops.append(
                    {
                        "k": "load",
                        "a": rng.randrange(n_arrays),
                        "stride": rng.choice(p.strides),
                        "offset": rng.randint(0, p.max_offset),
                    }
                )
            value_count += 1
        elif kind == "store":
            ops.append(
                {
                    "k": "store",
                    "a": rng.randrange(n_arrays),
                    "v": pick_value(),
                    "stride": rng.choice(p.store_strides),
                    "offset": rng.randint(0, p.max_offset),
                }
            )
        elif kind == "acc":
            for _ in range(rng.randint(*p.acc_chain)):
                ops.append(
                    {"k": "acc", "op": rng.choice(ACC_OPS), "v": pick_value()}
                )
                value_count += 1
        elif kind == "alu":
            int_ops = tuple(o for o in ALU_OPS if not o.startswith("f"))
            ops.append(
                {
                    "k": "alu",
                    "op": rng.choice(int_ops),
                    "x": pick_value(),
                    "y": pick_value(),
                }
            )
            value_count += 1
        else:  # fp
            fp_ops = tuple(o for o in ALU_OPS if o.startswith("f"))
            ops.append(
                {
                    "k": "alu",
                    "op": rng.choice(fp_ops),
                    "x": pick_value(),
                    "y": pick_value(),
                }
            )
            value_count += 1

    return KernelGenotype(
        name=f"fz_{profile}_{seed}",
        trip=rng.choice(p.trips),
        arrays=arrays,
        ops=ops,
        alias=alias,
    )
