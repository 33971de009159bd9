"""Address-stream descriptions for static memory instructions.

The reproduction does not interpret address arithmetic functionally.
Instead each static memory instruction carries an :class:`AccessPattern`
that describes the address it touches on every iteration of its loop —
exactly the information the paper's compiler derives statically (stride
analysis) plus a deterministic pseudo-random mode for the accesses the
compiler cannot analyse (the non-strided fraction in Table 1).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ArrayRef:
    """A named array living in simulated memory.

    The base address is assigned later by :class:`MemoryLayout`; patterns
    refer to arrays symbolically so the same loop can be laid out at
    different addresses by different experiments.
    """

    name: str
    n_elems: int
    elem_size: int

    def __post_init__(self) -> None:
        if self.n_elems <= 0:
            raise ValueError(f"array {self.name!r} must have n_elems > 0")
        if self.elem_size not in (1, 2, 4, 8):
            raise ValueError(f"array {self.name!r}: elem_size must be 1/2/4/8")

    @property
    def size_bytes(self) -> int:
        return self.n_elems * self.elem_size


class PatternKind(enum.Enum):
    STRIDED = "strided"
    RANDOM = "random"


def _splitmix64(x: int) -> int:
    """Deterministic 64-bit mixer used for reproducible random streams."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


@dataclass(frozen=True)
class AccessPattern:
    """The per-iteration address stream of one static memory instruction.

    For ``STRIDED`` patterns, iteration ``i`` touches element
    ``(offset + i * stride) mod n_elems`` of the array (wrapping keeps the
    working set equal to the array size over long trip counts).  For
    ``RANDOM`` patterns the element index is a seeded hash of ``i``.
    """

    array: ArrayRef
    kind: PatternKind = PatternKind.STRIDED
    stride: int = 1
    offset: int = 0
    seed: int = 0

    @property
    def elem_size(self) -> int:
        return self.array.elem_size

    @property
    def is_strided(self) -> bool:
        return self.kind is PatternKind.STRIDED

    def element_index(self, iteration: int) -> int:
        if self.kind is PatternKind.STRIDED:
            return (self.offset + iteration * self.stride) % self.array.n_elems
        return _splitmix64(self.seed * 0x10001 + iteration) % self.array.n_elems

    def address(self, iteration: int, layout: "MemoryLayout") -> int:
        return (
            layout.base_of(self.array) + self.element_index(iteration) * self.elem_size
        )

    # ------------------------------------------------------------------
    # Affine export (the simulator fast path's contract)
    # ------------------------------------------------------------------

    def affine(self, layout: "MemoryLayout") -> tuple[int, int, int, int, int] | None:
        """``(base, offset, stride, n_elems, elem_size)`` or ``None``.

        Strided patterns export the closed form the trace executor
        inlines — iteration ``i`` touches byte address
        ``base + ((offset + i*stride) % n_elems) * elem_size`` — so
        per-access addresses need no method dispatch or layout lookup.
        Random patterns return ``None`` (the executor falls back to
        :meth:`address`).
        """
        if self.kind is not PatternKind.STRIDED:
            return None
        return (
            layout.base_of(self.array),
            self.offset,
            self.stride,
            self.array.n_elems,
            self.elem_size,
        )

    @property
    def input_period(self) -> int | None:
        """Iterations until this pattern's address stream repeats exactly.

        ``(offset + i*stride) mod n`` is periodic with period
        ``n / gcd(|stride|, n)``; random streams never repeat
        (``None``).  The trace executor's batch address memoisation uses
        the lcm of these periods as the window length at which every
        address provably recurs.
        """
        if self.kind is not PatternKind.STRIDED:
            return None
        n = self.array.n_elems
        if self.stride == 0:
            return 1
        return n // math.gcd(abs(self.stride), n)

    def unrolled_copy(self, copy_index: int, factor: int) -> "AccessPattern":
        """Pattern of the ``copy_index``-th body copy after unrolling.

        Copy ``k`` of a strided access starts ``k`` original iterations
        later and advances ``factor`` original iterations per new-loop
        iteration.  Random patterns get a distinct seed per copy so the
        copies don't collide on identical addresses.
        """
        if self.kind is PatternKind.STRIDED:
            return replace(
                self,
                offset=self.offset + copy_index * self.stride,
                stride=self.stride * factor,
            )
        return replace(self, seed=self.seed * factor + copy_index + 1)


class MemoryLayout:
    """Assigns base addresses to arrays, aligned to L1 block boundaries.

    The paper assumes (section 3.3) that padding/data-layout keeps
    mixed-granularity conflicts out of L0; aligning every array to a
    block boundary reproduces that assumption.
    """

    def __init__(self, align: int = 32, start: int = 0x1000) -> None:
        if align <= 0 or align & (align - 1):
            raise ValueError("alignment must be a positive power of two")
        self._align = align
        self._next = start
        self._bases: dict[str, int] = {}
        self._arrays: dict[str, ArrayRef] = {}

    def add(self, array: ArrayRef) -> int:
        """Place ``array`` (idempotent) and return its base address."""
        existing = self._bases.get(array.name)
        if existing is not None:
            if self._arrays[array.name] != array:
                raise ValueError(f"conflicting definitions of array {array.name!r}")
            return existing
        base = self._next
        self._bases[array.name] = base
        self._arrays[array.name] = array
        size = array.size_bytes
        self._next = base + ((size + self._align - 1) // self._align) * self._align
        return base

    def ensure(self, array: ArrayRef) -> int:
        """Registration contract for executors binding to a shared layout.

        A loop executor re-registers its loop's arrays against the
        program-wide layout ``plan_program`` already populated.  That
        re-add must be *exactly* idempotent: the same definition returns
        the established base; a conflicting redefinition means the
        executor was handed a stale layout whose addresses would
        silently shift the simulation, so it fails loudly instead.
        """
        try:
            return self.add(array)
        except ValueError as exc:
            raise ValueError(
                f"stale memory layout: loop array {array.name!r} "
                f"({array.n_elems}x{array.elem_size}B) conflicts with the "
                "layout's established definition "
                f"({self._arrays[array.name].n_elems}x"
                f"{self._arrays[array.name].elem_size}B); executors must "
                "bind to the layout the program was planned with"
            ) from exc

    def base_of(self, array: ArrayRef) -> int:
        try:
            return self._bases[array.name]
        except KeyError:
            raise KeyError(
                f"array {array.name!r} has no layout; call add() first"
            ) from None

    @property
    def arrays(self) -> list[ArrayRef]:
        return list(self._arrays.values())

    @property
    def footprint_bytes(self) -> int:
        return sum(a.size_bytes for a in self._arrays.values())
