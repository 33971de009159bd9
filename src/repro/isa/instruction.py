"""Instruction objects for the loop-level IR."""

from __future__ import annotations

from dataclasses import dataclass

from .memory_access import AccessPattern
from .operations import FUClass, Opcode
from .registers import VReg


@dataclass(eq=False)
class Instruction:
    """One operation in a loop body.

    Instructions use identity equality: two distinct body slots holding
    the same opcode/operands are different schedulable units.  ``uid`` is
    unique within a loop and stable across compiler passes; unrolled
    copies record the ``origin`` uid of the pre-unroll instruction and
    their ``copy_index``, which the L0-aware scheduler uses to recognise
    stride groups (paper section 4.3, step 3, mark ➑).
    """

    uid: int
    opcode: Opcode
    dest: VReg | None = None
    srcs: tuple[VReg, ...] = ()
    pattern: AccessPattern | None = None
    tag: str = ""
    origin: int = -1
    copy_index: int = 0

    def __post_init__(self) -> None:
        if self.origin < 0:
            self.origin = self.uid
        if self.opcode.is_memory and self.opcode is not Opcode.INVAL_L0:
            if self.pattern is None:
                raise ValueError(f"{self.opcode.mnemonic} instruction needs a pattern")
        if self.opcode is Opcode.STORE and self.dest is not None:
            raise ValueError("stores produce no register value")

    @property
    def fu_class(self) -> FUClass:
        return self.opcode.fu_class

    @property
    def is_memory(self) -> bool:
        return self.opcode.is_memory

    @property
    def is_load(self) -> bool:
        return self.opcode.is_load

    @property
    def is_store(self) -> bool:
        return self.opcode.is_store

    @property
    def access_width(self) -> int:
        """Memory access width in bytes (the element size of the pattern)."""
        if self.pattern is None:
            raise ValueError(f"{self} has no access pattern")
        return self.pattern.elem_size

    def __repr__(self) -> str:
        parts = [self.opcode.mnemonic]
        if self.dest is not None:
            parts.append(f"{self.dest} <-")
        if self.srcs:
            parts.append(", ".join(map(repr, self.srcs)))
        if self.pattern is not None:
            arr = self.pattern.array.name
            if self.pattern.is_strided:
                parts.append(f"[{arr}: stride {self.pattern.stride}]")
            else:
                parts.append(f"[{arr}: random]")
        label = self.tag or f"#{self.uid}"
        return f"<{label}: {' '.join(parts)}>"
