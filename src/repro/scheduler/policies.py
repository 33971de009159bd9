"""Memory policies: how each architecture schedules its memory instructions.

The engine consults a policy for (a) the latency each load is *planned*
to be scheduled with (used in MII, SMS ordering and window computation),
(b) the ordered (cluster, latency) options to try for a memory
instruction, and (c) finalisation — attaching hints and inserting
explicit prefetches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..isa.hints import BYPASS_HINTS
from ..isa.instruction import Instruction
from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..machine.config import MachineConfig
from .mrt import ModuloReservationTable
from .schedule import ModuloSchedule, PlacedOp

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClusterScheduler


class MemoryPolicy(Protocol):
    """Interface the scheduling engine expects."""

    name: str

    def planned_latency(self, uid: int) -> int:
        """Current planned producer latency for load ``uid``."""
        ...

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        ...

    def options(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        """Ordered (cluster, latency) candidates for a memory instruction."""
        ...

    #: Count of sticky decisions, ones no ejection reverts; a support the
    #: exact search cached under an older count is searched for anew.
    decisions: int

    def option_superset(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        """Every option :meth:`options` could still offer ``instr`` while
        placements are only added (it may also list options that
        :meth:`entry_shortage` rules out); a function of the sticky
        decisions alone, without side effects."""
        ...

    def entry_shortage(self, uid: int, cluster: int, latency: int) -> bool:
        """Whether ``(cluster, latency)`` is out of reach for ``uid`` only
        because the cluster's buffer lacks entries."""
        ...

    def committed(
        self, instr: Instruction, op: PlacedOp, engine: "ClusterScheduler"
    ) -> bool:
        """Record a placement; returning False vetoes it (engine rolls back)."""
        ...

    def ejected(self, op: PlacedOp, engine: "ClusterScheduler") -> None:
        """A previously committed placement was removed (ejection)."""
        ...

    def finalize(
        self,
        schedule: ModuloSchedule,
        ddg: DDG,
        mrt: ModuloReservationTable,
        engine: "ClusterScheduler",
    ) -> None:
        ...


class _PureOptions:
    """Options that are a pure function of the instruction (no
    cross-placement state), so the exact scheduler's refutations are
    complete and the options are their own superset."""

    SEARCH_EXACT = True
    decisions = 0

    def option_superset(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        return self.options(instr, clusters)  # type: ignore[attr-defined]

    def entry_shortage(self, uid: int, cluster: int, latency: int) -> bool:
        return False


class UnifiedPolicy(_PureOptions):
    """Baseline: every load is an L1 access; memory ops carry no hints."""

    name = "unified"

    def __init__(self, loop: Loop, config: MachineConfig) -> None:
        self.loop = loop
        self.config = config

    def planned_latency(self, uid: int) -> int:
        return self.config.l1_latency

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        return None

    def options(self, instr: Instruction, clusters: list[int]) -> list[tuple[int, int]]:
        latency = (
            self.config.l1_latency
            if instr.is_load
            else self.config.latency_of(instr.opcode)
        )
        return [(c, latency) for c in clusters]

    def committed(self, instr: Instruction, op: PlacedOp, engine) -> bool:
        return True

    def ejected(self, op: PlacedOp, engine) -> None:
        return None

    def finalize(self, schedule, ddg, mrt, engine) -> None:
        for op in schedule.placed.values():
            if op.instr.is_memory:
                op.hints = BYPASS_HINTS


class MultiVLIWPolicy(_PureOptions):
    """Distributed coherent L1: loads scheduled at the local-hit latency.

    The hardware moves/replicates blocks to the requesting cluster (MSI
    snooping), so the scheduler optimistically assumes local hits and the
    simulator charges remote/coherence penalties as stalls — matching
    how the MultiVLIW paper's scheduler treats the common case.
    """

    name = "multivliw"

    def __init__(self, loop: Loop, config: MachineConfig) -> None:
        self.loop = loop
        self.config = config

    def planned_latency(self, uid: int) -> int:
        return self.config.distributed_local_latency

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        return None

    def options(self, instr: Instruction, clusters: list[int]) -> list[tuple[int, int]]:
        latency = (
            self.config.distributed_local_latency
            if instr.is_load
            else self.config.latency_of(instr.opcode)
        )
        return [(c, latency) for c in clusters]

    def committed(self, instr: Instruction, op: PlacedOp, engine) -> bool:
        return True

    def ejected(self, op: PlacedOp, engine) -> None:
        return None

    def finalize(self, schedule, ddg, mrt, engine) -> None:
        for op in schedule.placed.values():
            if op.instr.is_memory:
                op.hints = BYPASS_HINTS


class InterleavedPolicy(_PureOptions):
    """Word-interleaved distributed L1 (Gibert et al., MICRO-35).

    Address word ``w`` lives in cluster ``w mod N``; a memory op is
    *local-stable* when every iteration's access lands in the same home
    cluster.  Both heuristics steer memory ops toward their dominant
    home cluster; they differ in the latency assumed for unstable ops:

    * ``Interleaved-1`` schedules every load with the local latency
      (short schedules, stalls on remote accesses);
    * ``Interleaved-2`` schedules home-unstable loads with the remote
      latency (longer schedules, fewer stalls) — remote accesses then
      rarely surprise the interlock.
    """

    name = "interleaved"

    #: Iterations sampled when classifying an op's home-cluster stability.
    HOME_SAMPLE = 16

    def __init__(
        self, loop: Loop, config: MachineConfig, heuristic: int = 1
    ) -> None:
        if heuristic not in (1, 2):
            raise ValueError("heuristic must be 1 or 2")
        self.loop = loop
        self.config = config
        self.heuristic = heuristic
        self.name = f"interleaved{heuristic}"
        self._home: dict[int, int | None] = {}
        for instr in loop.body:
            if instr.is_memory and instr.pattern is not None:
                self._home[instr.uid] = self._stable_home(instr)

    def _stable_home(self, instr: Instruction) -> int | None:
        """Home cluster if constant across iterations, else None.

        Homes are computed from element offsets (arrays are block-aligned
        by the layout, so offsets are congruent with final addresses).
        """
        pattern = instr.pattern
        assert pattern is not None
        word = 4  # word-interleaving granularity in bytes
        n = self.config.n_clusters
        homes = set()
        for i in range(self.HOME_SAMPLE):
            byte = pattern.element_index(i) * pattern.elem_size
            homes.add((byte // word) % n)
            if len(homes) > 1:
                return None
        return homes.pop()

    def planned_latency(self, uid: int) -> int:
        if self.heuristic == 1:
            return self.config.distributed_local_latency
        if self._home.get(uid) is not None:
            return self.config.distributed_local_latency
        return self.config.distributed_remote_latency

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        return None

    def options(self, instr: Instruction, clusters: list[int]) -> list[tuple[int, int]]:
        if not instr.is_load and not instr.is_store:
            latency = self.config.latency_of(instr.opcode)
            return [(c, latency) for c in clusters]
        latency = (
            self.planned_latency(instr.uid)
            if instr.is_load
            else self.config.latency_of(instr.opcode)
        )
        home = self._home.get(instr.uid)
        if home is None:
            return [(c, latency) for c in clusters]
        ordered = [home] + [c for c in clusters if c != home]
        return [(c, latency) for c in ordered]

    def committed(self, instr: Instruction, op: PlacedOp, engine) -> bool:
        return True

    def ejected(self, op: PlacedOp, engine) -> None:
        return None

    def finalize(self, schedule, ddg, mrt, engine) -> None:
        for op in schedule.placed.values():
            if op.instr.is_memory:
                op.hints = BYPASS_HINTS
