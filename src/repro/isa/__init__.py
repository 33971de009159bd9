"""VLIW instruction-set definitions: opcodes, registers, hints, patterns."""

from .hints import BYPASS_HINTS, AccessHint, HintBundle, MapHint, PrefetchHint
from .instruction import Instruction
from .memory_access import AccessPattern, ArrayRef, MemoryLayout, PatternKind
from .operations import FUClass, Opcode
from .registers import RegisterFactory, VReg

__all__ = [
    "AccessHint",
    "AccessPattern",
    "ArrayRef",
    "BYPASS_HINTS",
    "FUClass",
    "HintBundle",
    "Instruction",
    "MapHint",
    "MemoryLayout",
    "Opcode",
    "PatternKind",
    "PrefetchHint",
    "RegisterFactory",
    "VReg",
]
