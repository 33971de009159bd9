"""Result objects produced by the modulo scheduler.

A :class:`ModuloSchedule` records, for every instruction, the cluster it
was assigned to, its absolute start time within the flat schedule (stage
* II + row), the latency it was scheduled with (loads: L0 or L1), the
hint bundle attached to it, and any communication operations the
cluster assignment forced.  ``validate()`` re-checks every dependence
and resource constraint, which the property-based tests lean on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.diagnostics import Diagnostic
from ..isa.hints import BYPASS_HINTS, HintBundle
from ..isa.instruction import Instruction
from ..isa.operations import FUClass
from ..ir.ddg import DDG
from ..machine.config import MachineConfig


@dataclass
class PlacedOp:
    """One scheduled instruction."""

    instr: Instruction
    cluster: int
    start: int  # absolute schedule time (stage * II + row)
    latency: int  # producer-to-consumer latency used by the scheduler
    hints: HintBundle = BYPASS_HINTS
    #: For PSR store replicas: True only on the instance that performs
    #: the actual memory update (others just invalidate their local L0).
    is_primary: bool = True
    #: uid of the original store when this op is a PSR replica.
    replica_of: int | None = None

    @property
    def row(self) -> int:
        """Kernel row (start modulo II) — filled in via ModuloSchedule."""
        raise AttributeError("use ModuloSchedule.row_of(); PlacedOp has no II")


@dataclass
class PlacedComm:
    """An inter-cluster register copy occupying one bus slot."""

    producer_uid: int
    dst_cluster: int
    src_cluster: int
    start: int  # absolute cycle the bus transfer begins
    latency: int  # bus latency (value available at start + latency)


@dataclass
class PlacedPrefetch:
    """An explicit software prefetch inserted by step 5."""

    instr: Instruction  # a PREFETCH instruction (pattern = target stream)
    cluster: int
    start: int
    #: iterations of lookahead: instance i prefetches the address of
    #: iteration i + distance of the covered load.
    distance: int
    covers_uid: int  # the load this prefetch feeds


@dataclass
class ModuloSchedule:
    """A complete modulo schedule for one loop on one machine config."""

    loop_name: str
    ii: int
    config: MachineConfig
    placed: dict[int, PlacedOp]
    comms: list[PlacedComm] = field(default_factory=list)
    prefetches: list[PlacedPrefetch] = field(default_factory=list)
    replicas: list[PlacedOp] = field(default_factory=list)
    #: Scheduler-backend provenance: which backend produced this schedule
    #: and, for the exact backend, its search outcome (``mii``,
    #: ``ii_sms``, ``improved``, ``proved_optimal``, ``fallback``,
    #: ``nodes_explored``).  Purely informational — simulation and
    #: validation never read it.
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError("II must be >= 1")

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def stage_count(self) -> int:
        """Number of overlapped iterations (SC)."""
        span = max(op.start for op in self.placed.values()) + 1
        return max(1, -(-span // self.ii))

    @property
    def span(self) -> int:
        return max(op.start for op in self.placed.values()) + 1

    def row_of(self, uid: int) -> int:
        return self.placed[uid].start % self.ii

    # ------------------------------------------------------------------
    # Trace metadata (the simulators' static event order)
    # ------------------------------------------------------------------

    def kernel_items(self) -> list[tuple[int, str, object]]:
        """The kernel's schedulable units in canonical simulation order.

        Returns ``(start, kind, payload)`` triples — ``kind`` is
        ``"op"`` / ``"replica"`` / ``"prefetch"``, payload the placed
        record — stably sorted by start time over (placed ops in
        placement order, replicas, prefetches).  Both the reference
        interpreter's heap merge and the precompiled trace executor
        derive their event order from this list, so the two paths
        process instruction instances in provably the same sequence:
        iteration ``i`` of item ``k`` fires at ``start_k + i*II``, ties
        broken by position in this list.
        """
        items: list[tuple[int, str, object]] = []
        for op in self.placed.values():
            items.append((op.start, "op", op))
        for op in self.replicas:
            items.append((op.start, "replica", op))
        for prefetch in self.prefetches:
            items.append((prefetch.start, "prefetch", prefetch))
        items.sort(key=lambda item: item[0])
        return items

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def ops_by_row(self) -> dict[int, list[PlacedOp]]:
        rows: dict[int, list[PlacedOp]] = {r: [] for r in range(self.ii)}
        for op in self.all_placed_ops():
            rows[op.start % self.ii].append(op)
        return rows

    def all_placed_ops(self) -> list[PlacedOp]:
        return list(self.placed.values()) + list(self.replicas)

    def memory_ops(self) -> list[PlacedOp]:
        return [op for op in self.all_placed_ops() if op.instr.is_memory]

    def l0_loads(self) -> list[PlacedOp]:
        return [
            op
            for op in self.placed.values()
            if op.instr.is_load and op.hints.uses_l0
        ]

    def mem_busy(self, cluster: int, row: int) -> int:
        """Memory-unit occupancy of (cluster, kernel row)."""
        count = 0
        for op in self.all_placed_ops():
            if (
                op.instr.fu_class is FUClass.MEM
                and op.cluster == cluster
                and op.start % self.ii == row
            ):
                count += 1
        for pf in self.prefetches:
            if pf.cluster == cluster and pf.start % self.ii == row:
                count += 1
        return count

    # ------------------------------------------------------------------
    # Validation (used heavily by tests)
    # ------------------------------------------------------------------

    def validate(self, ddg: DDG) -> list[Diagnostic]:
        """Return the constraint violations found (empty = valid).

        Each violation is a typed :class:`~repro.analysis.Diagnostic`
        with a stable code; ``str(d)`` still yields the legacy message
        text, so truthiness/``== []`` consumers are unaffected.
        """
        problems: list[Diagnostic] = []
        problems.extend(self._validate_resources())
        problems.extend(self._validate_dependences(ddg))
        problems.extend(self._validate_comms(ddg))
        return [d.with_provenance(loop=self.loop_name) for d in problems]

    def _validate_resources(self) -> list[Diagnostic]:
        problems: list[Diagnostic] = []
        fu_use: dict[tuple[FUClass, int, int], int] = {}
        for op in self.all_placed_ops():
            fu = op.instr.fu_class
            if fu is FUClass.NONE:
                continue
            key = (fu, op.cluster, op.start % self.ii)
            fu_use[key] = fu_use.get(key, 0) + 1
        for pf in self.prefetches:
            key = (FUClass.MEM, pf.cluster, pf.start % self.ii)
            fu_use[key] = fu_use.get(key, 0) + 1
        caps = {
            FUClass.INT: self.config.int_units_per_cluster,
            FUClass.MEM: self.config.mem_units_per_cluster,
            FUClass.FP: self.config.fp_units_per_cluster,
        }
        for (fu, cluster, row), used in fu_use.items():
            if used > caps[fu]:
                problems.append(
                    Diagnostic.new(
                        "A006",
                        f"{fu.value} unit oversubscribed in cluster {cluster} "
                        f"row {row}: {used}",
                    )
                )
        bus_use: dict[int, int] = {}
        for comm in self.comms:
            row = comm.start % self.ii
            bus_use[row] = bus_use.get(row, 0) + 1
        for row, used in bus_use.items():
            if used > self.config.n_buses:
                problems.append(
                    Diagnostic.new(
                        "A007", f"buses oversubscribed in row {row}: {used}"
                    )
                )
        return problems

    def _comm_arrival(self, producer_uid: int, dst_cluster: int) -> int | None:
        """Cycle at which the producer's value lands in dst_cluster, if ever."""
        best: int | None = None
        for comm in self.comms:
            if comm.producer_uid == producer_uid and comm.dst_cluster == dst_cluster:
                arrival = comm.start + comm.latency
                if best is None or arrival < best:
                    best = arrival
        return best

    def _validate_dependences(self, ddg: DDG) -> list[Diagnostic]:
        problems: list[Diagnostic] = []
        lat_of = {uid: op.latency for uid, op in self.placed.items()}
        for edge in ddg.edges:
            src = self.placed.get(edge.src)
            dst = self.placed.get(edge.dst)
            if src is None or dst is None:
                problems.append(
                    Diagnostic.new(
                        "A001", f"edge {edge} references unplaced instruction"
                    )
                )
                continue
            latency = edge.latency(lat_of)
            ready = src.start + latency
            due = dst.start + self.ii * edge.distance
            if edge.kind.value == "reg" and src.cluster != dst.cluster:
                arrival = self._comm_arrival(edge.src, dst.cluster)
                if arrival is None:
                    problems.append(
                        Diagnostic.new(
                            "A003",
                            f"edge {edge}: cross-cluster value has no comm "
                            f"to c{dst.cluster}",
                        )
                    )
                    continue
                ready = arrival
            if ready > due:
                problems.append(
                    Diagnostic.new(
                        "A002",
                        f"edge {edge}: value ready at {ready} but consumer "
                        f"issues at {due}",
                    )
                )
        return problems

    def _validate_comms(self, ddg: DDG) -> list[Diagnostic]:
        problems: list[Diagnostic] = []
        lat_of = {uid: op.latency for uid, op in self.placed.items()}
        for comm in self.comms:
            producer = self.placed.get(comm.producer_uid)
            if producer is None:
                problems.append(
                    Diagnostic.new("A001", f"comm {comm} has unplaced producer")
                )
                continue
            produce_time = producer.start + lat_of.get(comm.producer_uid, 0)
            if producer.instr.is_load:
                produce_time = producer.start + producer.latency
            elif producer.instr.dest is not None:
                produce_time = producer.start + self.config.latency_of(
                    producer.instr.opcode
                )
            if comm.start < produce_time:
                problems.append(
                    Diagnostic.new(
                        "A004",
                        f"comm {comm} starts before its value is produced "
                        f"({produce_time})",
                    )
                )
            if producer.cluster != comm.src_cluster:
                problems.append(
                    Diagnostic.new("A005", f"comm {comm} src cluster mismatch")
                )
        return problems

    # ------------------------------------------------------------------
    # Pretty printing
    # ------------------------------------------------------------------

    def format_kernel(self) -> str:
        """Human-readable kernel table (one line per row, column per cluster)."""
        lines = [
            f"loop {self.loop_name!r}: II={self.ii} SC={self.stage_count} "
            f"(span {self.span} cycles)"
        ]
        rows = self.ops_by_row()
        for row in range(self.ii):
            cells: list[str] = []
            for cluster in range(self.config.n_clusters):
                here = [op for op in rows[row] if op.cluster == cluster]
                text = ",".join(
                    (op.instr.tag or op.instr.opcode.mnemonic)
                    + (f"@{op.latency}" if op.instr.is_load else "")
                    for op in here
                )
                pf_here = [
                    pf
                    for pf in self.prefetches
                    if pf.cluster == cluster and pf.start % self.ii == row
                ]
                if pf_here:
                    text = ",".join(filter(None, [text, "pf" * len(pf_here)]))
                cells.append(text or ".")
            comm_here = [c for c in self.comms if c.start % self.ii == row]
            bus = f" | bus: {len(comm_here)}" if comm_here else ""
            lines.append(
                f"  row {row}: " + " || ".join(f"{c:24s}" for c in cells) + bus
            )
        return "\n".join(lines)


class SchedulingError(RuntimeError):
    """Raised when no valid schedule is found within the II budget."""
