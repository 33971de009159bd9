"""Opcode and functional-unit-class definitions for the clustered VLIW ISA.

The machine follows the paper's Table 2: each cluster has one integer,
one memory and one floating-point unit, all fully pipelined.  Inter-
cluster communication operations occupy a slot on one of the four
register-to-register buses instead of a functional unit.
"""

from __future__ import annotations

import enum


class FUClass(enum.Enum):
    """The resource class an operation occupies for one cycle at issue."""

    INT = "int"
    MEM = "mem"
    FP = "fp"
    BUS = "bus"  # inter-cluster register-to-register communication
    NONE = "none"  # pseudo-ops that consume no issue slot


class Opcode(enum.Enum):
    """Operation codes.  The value triple is (mnemonic, fu class, latency).

    Latencies are *default* producer-to-consumer latencies; the machine
    configuration may override them, and memory latencies are assigned by
    the scheduler (L0 vs L1) rather than taken from this table.
    """

    # Integer unit
    IADD = ("iadd", FUClass.INT, 1)
    ISUB = ("isub", FUClass.INT, 1)
    IMUL = ("imul", FUClass.INT, 2)
    IDIV = ("idiv", FUClass.INT, 8)
    IAND = ("iand", FUClass.INT, 1)
    IOR = ("ior", FUClass.INT, 1)
    IXOR = ("ixor", FUClass.INT, 1)
    ISHL = ("ishl", FUClass.INT, 1)
    ISHR = ("ishr", FUClass.INT, 1)
    ICMP = ("icmp", FUClass.INT, 1)
    IMOV = ("imov", FUClass.INT, 1)
    ISELECT = ("iselect", FUClass.INT, 1)
    IABS = ("iabs", FUClass.INT, 1)
    IMIN = ("imin", FUClass.INT, 1)
    IMAX = ("imax", FUClass.INT, 1)
    ISAT = ("isat", FUClass.INT, 1)  # saturating add, common in media code

    # Floating-point unit
    FADD = ("fadd", FUClass.FP, 2)
    FSUB = ("fsub", FUClass.FP, 2)
    FMUL = ("fmul", FUClass.FP, 2)
    FDIV = ("fdiv", FUClass.FP, 8)
    FMAC = ("fmac", FUClass.FP, 3)
    FMOV = ("fmov", FUClass.FP, 1)
    FCMP = ("fcmp", FUClass.FP, 1)

    # Memory unit
    LOAD = ("load", FUClass.MEM, 0)  # latency assigned by the scheduler
    STORE = ("store", FUClass.MEM, 1)
    PREFETCH = ("prefetch", FUClass.MEM, 1)  # explicit software prefetch
    INVAL_L0 = ("inval_l0", FUClass.MEM, 1)  # invalidate local L0 buffer

    # Inter-cluster communication (occupies a bus slot, not an FU)
    COMM = ("comm", FUClass.BUS, 2)

    # No-op / pseudo
    NOP = ("nop", FUClass.NONE, 0)

    def __init__(self, mnemonic: str, fu_class: FUClass, latency: int) -> None:
        self.mnemonic = mnemonic
        self.fu_class = fu_class
        self.default_latency = latency

    @property
    def is_memory(self) -> bool:
        return self in (Opcode.LOAD, Opcode.STORE, Opcode.PREFETCH, Opcode.INVAL_L0)

    @property
    def is_load(self) -> bool:
        return self is Opcode.LOAD

    @property
    def is_store(self) -> bool:
        return self is Opcode.STORE


#: Opcodes whose results feed other instructions (everything but stores,
#: prefetches, invalidates and nops produces a register value).
VALUE_PRODUCERS = frozenset(
    op
    for op in Opcode
    if op not in (Opcode.STORE, Opcode.PREFETCH, Opcode.INVAL_L0, Opcode.NOP)
)
