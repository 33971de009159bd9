"""The loop-level IR: an innermost loop body as a list of instructions.

The paper's techniques target modulo-scheduled inner loops (~80% of the
dynamic instruction stream in its benchmarks).  A :class:`Loop` is the
unit the compiler consumes: a body of instructions in program order, a
trip count, and alias assertions describing which distinct arrays the
compiler must conservatively assume may overlap.

Register semantics: each virtual register has at most one def per
iteration.  A use reads the def from the same iteration when the def
appears earlier in body order, and the previous iteration's def
otherwise (a loop-carried flow dependence of distance 1).  Anti and
output register dependences are ignored: like the paper's IMPACT-based
framework we assume modulo variable expansion / rotating-register
renaming removes them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instruction import Instruction
from ..isa.memory_access import ArrayRef
from ..isa.registers import VReg


@dataclass
class Loop:
    """An innermost loop in scheduling form."""

    name: str
    body: list[Instruction]
    trip_count: int
    #: Groups of array names the compiler cannot disambiguate from one
    #: another (beyond same-array accesses, which are always analysed).
    alias_groups: tuple[frozenset[str], ...] = ()
    #: Unroll factor already applied to this body (1 = original).
    unroll_factor: int = 1

    def __post_init__(self) -> None:
        if self.trip_count < 1:
            raise ValueError(f"loop {self.name!r}: trip_count must be >= 1")
        seen: set[int] = set()
        for instr in self.body:
            if instr.uid in seen:
                raise ValueError(f"loop {self.name!r}: duplicate uid {instr.uid}")
            seen.add(instr.uid)
        defs: set[VReg] = set()
        for instr in self.body:
            if instr.dest is not None:
                if instr.dest in defs:
                    raise ValueError(
                        f"loop {self.name!r}: register {instr.dest} defined twice"
                    )
                defs.add(instr.dest)

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def instruction(self, uid: int) -> Instruction:
        for instr in self.body:
            if instr.uid == uid:
                return instr
        raise KeyError(f"no instruction with uid {uid} in loop {self.name!r}")

    @property
    def defs(self) -> dict[VReg, Instruction]:
        """Map from virtual register to its (unique) defining instruction."""
        return {i.dest: i for i in self.body if i.dest is not None}

    @property
    def live_ins(self) -> set[VReg]:
        """Registers read in the body but never defined there (invariants)."""
        defined = set(self.defs)
        used: set[VReg] = set()
        for instr in self.body:
            used.update(instr.srcs)
        return used - defined

    @property
    def memory_ops(self) -> list[Instruction]:
        return [i for i in self.body if i.is_memory]

    @property
    def loads(self) -> list[Instruction]:
        return [i for i in self.body if i.is_load]

    @property
    def stores(self) -> list[Instruction]:
        return [i for i in self.body if i.is_store]

    @property
    def arrays(self) -> list[ArrayRef]:
        """All arrays referenced by the body, in first-reference order."""
        seen: dict[str, ArrayRef] = {}
        for instr in self.body:
            if instr.pattern is not None:
                seen.setdefault(instr.pattern.array.name, instr.pattern.array)
        return list(seen.values())

    def position(self, uid: int) -> int:
        """Body-order index of an instruction (program order within one iteration)."""
        for idx, instr in enumerate(self.body):
            if instr.uid == uid:
                return idx
        raise KeyError(f"no instruction with uid {uid}")

    def may_alias_arrays(self, a: str, b: str) -> bool:
        """True when accesses to arrays ``a`` and ``b`` must be assumed to overlap."""
        if a == b:
            return True
        return any(a in group and b in group for group in self.alias_groups)

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        return (
            f"<Loop {self.name!r}: {len(self.body)} ops, trip={self.trip_count}, "
            f"unroll={self.unroll_factor}>"
        )
