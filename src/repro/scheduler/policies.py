"""Memory policies: how each architecture schedules its memory instructions.

The engine consults a policy for (a) the latency each load is *planned*
to be scheduled with (used in MII, SMS ordering and window computation),
(b) the ordered (cluster, latency) options to try for a memory
instruction, and (c) finalisation — attaching hints and inserting
explicit prefetches.

There are two policies.  The L0 machine's is the paper's stateful
Figure-4 algorithm (:class:`~.l0policy.L0Policy`).  The unified,
MultiVLIW and word-interleaved machines share
:class:`FixedLatencyPolicy`, which plans each load with one latency and
may try a home cluster first.
:func:`~repro.pipeline.passes.make_policy` picks the policy for a
machine and computes those latencies and home clusters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from ..isa.instruction import Instruction
from ..ir.ddg import DDG
from ..machine.config import MachineConfig
from .mrt import ModuloReservationTable
from .schedule import ModuloSchedule, PlacedOp

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClusterScheduler


class MemoryPolicy(Protocol):
    """Interface the scheduling engine expects."""

    name: str

    #: Whether the options never depend on earlier placements, so that a
    #: search refuting an II proves it infeasible; the exact search
    #: claims optimality only then.
    SEARCH_EXACT: bool

    #: Whether stores may be replicated across clusters (partial store
    #: replication), which places ops the exact search cannot undo.
    allow_psr: bool

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

    def attempt_state(self) -> tuple:
        """Every piece of mutable state that the policy's later
        :meth:`options`, :meth:`committed` and :meth:`ejected` answers
        depend on, and the reservation-table slots the policy booked
        itself, as a hashable value.

        The SMS engine ends an attempt when its snapshot, this value
        included, repeats at a failed placement.  State left out makes
        that cut unsound: two equal snapshots would no longer promise the
        same future.  A policy without such state returns ``()``.
        """
        ...

    def finalize(
        self,
        schedule: ModuloSchedule,
        ddg: DDG,
        mrt: ModuloReservationTable,
        engine: "ClusterScheduler",
    ) -> None:
        ...


class FixedLatencyPolicy:
    """Plans each load with one fixed latency; offers every cluster.

    Serves the unified, MultiVLIW and word-interleaved machines, which
    differ only in ``load_latency`` (uid -> planned latency of each
    load) and ``home`` (uid -> the cluster a memory op tries first);
    :func:`~repro.pipeline.passes.make_policy` computes both.

    The options are a pure function of the instruction, so they are
    their own superset and the exact search's refutations are complete.
    There is no state to keep per attempt, nothing to veto, and no hint
    to attach: every ``PlacedOp`` already carries ``BYPASS_HINTS``.
    """

    SEARCH_EXACT = True
    allow_psr = False
    decisions = 0

    def __init__(
        self,
        name: str,
        config: MachineConfig,
        load_latency: dict[int, int],
        home: dict[int, int] | None = None,
    ) -> None:
        self.name = name
        self.config = config
        self.load_latency = load_latency
        self.home = home if home is not None else {}

    def planned_latency(self, uid: int) -> int:
        return self.load_latency[uid]

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        return None

    def options(self, instr: Instruction, clusters: list[int]) -> list[tuple[int, int]]:
        """Every cluster, the home cluster first, at the op's latency."""
        uid = instr.uid
        latency = (
            self.load_latency[uid]
            if instr.is_load
            else self.config.latency_of(instr.opcode)
        )
        home = self.home.get(uid)
        if home is not None:
            clusters = [home] + [c for c in clusters if c != home]
        return [(c, latency) for c in clusters]

    option_superset = options

    def entry_shortage(self, uid: int, cluster: int, latency: int) -> bool:
        return False

    def committed(self, instr: Instruction, op: PlacedOp, engine) -> bool:
        return True

    def ejected(self, op: PlacedOp, engine) -> None:
        return None

    def attempt_state(self) -> tuple:
        return ()

    def finalize(self, schedule, ddg, mrt, engine) -> None:
        return None
