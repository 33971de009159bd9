"""Deterministic shrinking of a mismatching kernel to a minimal one.

Given a genotype whose (config, check) job mismatches, the shrinker
greedily applies reductions — always in the same order, with no
randomness — keeping each candidate only if the mismatch still
reproduces, and loops until a full round changes nothing:

1. **Drop ops** — delta-debugging style: contiguous chunks of half the
   body, then quarters, down to single ops.  Genotype operand indices
   resolve modulo the live population, so every subset builds.
2. **Shrink the trip count** — the smallest value from a doubling
   ladder that still reproduces.
3. **Drop arrays** (down to one) and **shrink array sizes** down a
   ladder.
4. **Simplify scalars** — strides to 1, offsets to 0, random patterns
   to strided, accumulate/ALU opcodes to plain adds.
5. **Drop alias groups.**

Termination: every accepted step strictly shrinks a well-founded
measure (op count, trip, array count/sizes, non-canonical scalar
count), so the fixpoint loop is finite.  The result is 1-minimal by
construction — no single op can be dropped, nothing simplifies — and a
re-run from the same inputs retraces the identical path, which the
shrinker tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..machine.config import MachineConfig
from ..workloads.generator import KernelGenotype
from .checks import run_checks

#: Trip/array-size ladders tried smallest-first during shrinking.
TRIP_LADDER = (1, 2, 4, 8, 16, 32, 64, 128)
ARRAY_LADDER = (16, 32, 64, 128, 256, 512, 1024, 2048)


@dataclass
class ShrinkResult:
    genotype: KernelGenotype
    reproduced: bool  # the *original* genotype reproduced at all
    rounds: int = 0
    attempts: int = 0  # candidate rebuild+check executions
    removed_ops: int = 0

    def to_json(self) -> dict:
        return {
            "reproduced": self.reproduced,
            "rounds": self.rounds,
            "attempts": self.attempts,
            "removed_ops": self.removed_ops,
        }


@dataclass
class _Shrinker:
    config: MachineConfig
    check: str
    attempts: int = field(default=0)

    def reproduces(self, genotype: KernelGenotype) -> bool:
        self.attempts += 1
        found = run_checks(genotype, self.config, (self.check,))
        # A candidate that crashes outright (an ``error`` record) is a
        # *different* finding; keep the shrink aimed at the original one.
        return any(m["kind"] != "error" for m in found)

    # -- reduction passes (each returns the reduced genotype or None) ----

    def drop_ops(self, g: KernelGenotype) -> KernelGenotype | None:
        n = len(g.ops)
        size = max(n // 2, 1)
        while size >= 1:
            start = 0
            while start < len(g.ops):
                candidate = _with(g, ops=g.ops[:start] + g.ops[start + size :])
                if candidate.ops and self.reproduces(candidate):
                    return candidate
                start += size
            if size == 1:
                break
            size //= 2
        return None

    def shrink_trip(self, g: KernelGenotype) -> KernelGenotype | None:
        for trip in TRIP_LADDER:
            if trip >= g.trip:
                break
            candidate = _with(g, trip=trip)
            if self.reproduces(candidate):
                return candidate
        return None

    def drop_arrays(self, g: KernelGenotype) -> KernelGenotype | None:
        if len(g.arrays) <= 1:
            return None
        for index in range(len(g.arrays)):
            arrays = g.arrays[:index] + g.arrays[index + 1 :]
            alias = _remap_alias(g.alias, index, len(arrays))
            candidate = _with(g, arrays=arrays, alias=alias)
            if self.reproduces(candidate):
                return candidate
        return None

    def shrink_arrays(self, g: KernelGenotype) -> KernelGenotype | None:
        for index, spec in enumerate(g.arrays):
            for n in ARRAY_LADDER:
                if n >= int(spec["n"]):
                    break
                arrays = [dict(a) for a in g.arrays]
                arrays[index]["n"] = n
                candidate = _with(g, arrays=arrays)
                if self.reproduces(candidate):
                    return candidate
        return None

    def simplify_scalars(self, g: KernelGenotype) -> KernelGenotype | None:
        for index, op in enumerate(g.ops):
            for simplified in _scalar_candidates(op):
                ops = [dict(o) for o in g.ops]
                ops[index] = simplified
                candidate = _with(g, ops=ops)
                if self.reproduces(candidate):
                    return candidate
        return None

    def drop_alias(self, g: KernelGenotype) -> KernelGenotype | None:
        for index in range(len(g.alias)):
            alias = g.alias[:index] + g.alias[index + 1 :]
            candidate = _with(g, alias=alias)
            if self.reproduces(candidate):
                return candidate
        return None


def _with(g: KernelGenotype, **changes) -> KernelGenotype:
    data = g.to_json()
    data.update(changes)
    return KernelGenotype.from_json(data)


def _remap_alias(
    alias: list[list[int]], dropped: int, n_arrays: int
) -> list[list[int]]:
    groups = []
    for group in alias:
        survivors = (i for i in group if i != dropped)
        remapped = sorted(
            {(i if i < dropped else i - 1) % max(n_arrays, 1) for i in survivors}
        )
        if len(remapped) >= 2:
            groups.append(remapped)
    return groups


def _canonicalise(g: KernelGenotype) -> KernelGenotype:
    """Rewrite operand indices to their resolved (modulo-population)
    values so shrunk repro files read literally and fingerprint
    canonically.  Build-equivalent by construction."""
    n_arrays = max(len(g.arrays), 1)
    value_count = 2  # the live-ins
    ops = []
    for op in g.ops:
        op = dict(op)
        kind = op.get("k")
        if "a" in op:
            op["a"] %= n_arrays
        if kind == "store":
            op["v"] %= value_count
        elif kind == "acc":
            op["v"] %= value_count
            value_count += 1
        elif kind == "alu":
            op["x"] %= value_count
            op["y"] %= value_count
            value_count += 1
        elif kind == "load":
            value_count += 1
        ops.append(op)
    return _with(g, ops=ops)


def _scalar_candidates(op: dict) -> list[dict]:
    """Simpler variants of one op, most aggressive first."""
    candidates: list[dict] = []

    def variant(**changes) -> None:
        new = dict(op)
        new.update(changes)
        for key, value in changes.items():
            if value is None:
                new.pop(key, None)
        if new != op:
            candidates.append(new)

    kind = op.get("k")
    if kind == "load" and op.get("random"):
        variant(random=None, seed=None, stride=1, offset=0)
        if op.get("seed", 0) != 0:
            variant(seed=0)
    if kind in ("load", "store") and not op.get("random"):
        if op.get("stride", 1) != 1:
            variant(stride=1)
        if op.get("offset", 0) != 0:
            variant(offset=0)
    if kind == "acc" and op.get("op", "IADD") != "IADD":
        variant(op="IADD")
    if kind == "alu":
        helper = op.get("op", "iadd")
        if helper.startswith("f") and helper != "fadd":
            variant(op="fadd")
        elif not helper.startswith("f") and helper != "iadd":
            variant(op="iadd")
    return candidates


def shrink(genotype: KernelGenotype, config: MachineConfig, check: str) -> ShrinkResult:
    """Shrink ``genotype`` to a 1-minimal reproducer of ``check``'s
    mismatch under ``config``.  Pure function of its arguments."""
    shrinker = _Shrinker(config=config, check=check)
    if not shrinker.reproduces(genotype):
        return ShrinkResult(
            genotype=genotype, reproduced=False, attempts=shrinker.attempts
        )

    current = _with(genotype, name=genotype.name)
    original_ops = len(current.ops)
    rounds = 0
    passes = (
        shrinker.drop_ops,
        shrinker.shrink_trip,
        shrinker.drop_arrays,
        shrinker.shrink_arrays,
        shrinker.simplify_scalars,
        shrinker.drop_alias,
    )
    changed = True
    while changed:
        changed = False
        rounds += 1
        for reduction in passes:
            while True:
                reduced = reduction(current)
                if reduced is None:
                    break
                current = reduced
                changed = True
    current = _canonicalise(_with(current, name=f"{genotype.name}_min"))
    return ShrinkResult(
        genotype=current,
        reproduced=True,
        rounds=rounds,
        attempts=shrinker.attempts,
        removed_ops=original_ops - len(current.ops),
    )
