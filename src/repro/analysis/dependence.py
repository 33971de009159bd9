"""Checker 1: dependence, communication and reservation-table legality.

The project's one implementation of the schedule-legality rules
(A001-A007), run on every artifact ``compile_cached`` stores.  It also
states, once, the two timing facts the other checkers build on: when a
value is produced (:func:`produce_time`) and when it first reaches
another cluster (:func:`earliest_arrivals`).  It reads the *raw*
schedule records (``placed``, ``comms``, ``prefetches``,
``replicas``) rather than the scheduler's helper methods or
reservation table, so a bug in the scheduling engine's own
bookkeeping cannot hide here.  The rules:

* every DDG edge's value is ready no later than its consumer issues
  (``src.start + latency <= dst.start + II * distance``), with load
  producers charged the latency they were *scheduled* with;
* a REG value crossing clusters rides a bus comm whose arrival meets
  the consumer's deadline, starts no earlier than the value is
  produced, and departs from the producer's actual cluster;
* the modulo reservation table is re-counted from scratch: per
  ``(FU class, cluster, row)`` occupancy against the configured unit
  counts (prefetches occupy MEM slots; PSR replicas occupy MEM slots in
  their own clusters), and per-row bus occupancy against ``n_buses``.

PSR broadcast comms (``dst_cluster == -1``) carry the store *address*,
which must arrive by the replicas' issue cycle — a different legality
rule than value comms, checked as such.
"""

from __future__ import annotations

from ..ir.ddg import DDG, DepKind
from ..isa.operations import FUClass
from ..scheduler.schedule import ModuloSchedule
from .diagnostics import Diagnostic


def produce_time(schedule: ModuloSchedule, uid: int) -> int:
    """Cycle the value of ``uid`` becomes available in its own cluster."""
    op = schedule.placed[uid]
    if op.instr.is_load:
        return op.start + op.latency  # the latency it was scheduled with
    return op.start + schedule.config.latency_of(op.instr.opcode)


def earliest_arrivals(schedule: ModuloSchedule) -> dict[tuple[int, int], int]:
    """Earliest comm arrival per (producer uid, destination cluster)."""
    best: dict[tuple[int, int], int] = {}
    for comm in schedule.comms:
        key = (comm.producer_uid, comm.dst_cluster)
        arrival = comm.start + comm.latency
        if key not in best or arrival < best[key]:
            best[key] = arrival
    return best


def check_dependences(schedule: ModuloSchedule, ddg: DDG) -> list[Diagnostic]:
    """A001/A002/A003: every edge's value arrives before it is consumed."""
    out: list[Diagnostic] = []
    ii = schedule.ii
    arrivals = earliest_arrivals(schedule)
    for edge in ddg.edges:
        src = schedule.placed.get(edge.src)
        dst = schedule.placed.get(edge.dst)
        if src is None or dst is None:
            missing = edge.src if src is None else edge.dst
            out.append(
                Diagnostic.new(
                    "A001",
                    f"edge {edge.src}->{edge.dst} ({edge.kind.value}, "
                    f"distance {edge.distance}) references unplaced "
                    f"instruction {missing}",
                )
            )
            continue
        latency = (
            edge.fixed_latency if edge.fixed_latency is not None else src.latency
        )
        ready = src.start + latency
        due = dst.start + ii * edge.distance
        if edge.kind is DepKind.REG and src.cluster != dst.cluster:
            arrival = arrivals.get((edge.src, dst.cluster))
            if arrival is None:
                out.append(
                    Diagnostic.new(
                        "A003",
                        f"edge {edge.src}->{edge.dst}: value crosses from "
                        f"cluster {src.cluster} to {dst.cluster} with no comm",
                    )
                )
                continue
            ready = arrival
        if ready > due:
            out.append(
                Diagnostic.new(
                    "A002",
                    f"edge {edge.src}->{edge.dst} ({edge.kind.value}, "
                    f"distance {edge.distance}): value ready at {ready} but "
                    f"consumer issues at {due}",
                )
            )
    return out


def check_comms(schedule: ModuloSchedule) -> list[Diagnostic]:
    """A001/A004/A005: every placed comm is individually well-formed."""
    out: list[Diagnostic] = []
    for comm in schedule.comms:
        producer = schedule.placed.get(comm.producer_uid)
        if producer is None:
            out.append(
                Diagnostic.new(
                    "A001",
                    f"comm at cycle {comm.start} references unplaced "
                    f"producer {comm.producer_uid}",
                )
            )
            continue
        if comm.dst_cluster == -1:
            # PSR address broadcast: must reach every cluster by the
            # replicas' issue cycle (they fire at the primary's start).
            if comm.start + comm.latency > producer.start:
                out.append(
                    Diagnostic.new(
                        "A004",
                        f"broadcast comm for store {comm.producer_uid} "
                        f"arrives at {comm.start + comm.latency}, after the "
                        f"replicas issue at {producer.start}",
                    )
                )
        elif comm.start < produce_time(schedule, comm.producer_uid):
            out.append(
                Diagnostic.new(
                    "A004",
                    f"comm for value {comm.producer_uid} to cluster "
                    f"{comm.dst_cluster} starts at {comm.start}, before the "
                    f"value is produced at "
                    f"{produce_time(schedule, comm.producer_uid)}",
                )
            )
        if producer.cluster != comm.src_cluster:
            out.append(
                Diagnostic.new(
                    "A005",
                    f"comm for value {comm.producer_uid} departs cluster "
                    f"{comm.src_cluster} but its producer sits in cluster "
                    f"{producer.cluster}",
                )
            )
    return out


def check_reservations(schedule: ModuloSchedule) -> list[Diagnostic]:
    """A006/A007: re-count the MRT from the schedule's raw records."""
    out: list[Diagnostic] = []
    ii = schedule.ii
    config = schedule.config
    fu_use: dict[tuple[FUClass, int, int], int] = {}

    def occupy(fu: FUClass, cluster: int, start: int) -> None:
        key = (fu, cluster, start % ii)
        fu_use[key] = fu_use.get(key, 0) + 1

    for op in schedule.placed.values():
        if op.instr.fu_class is not FUClass.NONE:
            occupy(op.instr.fu_class, op.cluster, op.start)
    for op in schedule.replicas:
        if op.instr.fu_class is not FUClass.NONE:
            occupy(op.instr.fu_class, op.cluster, op.start)
    for pf in schedule.prefetches:
        occupy(FUClass.MEM, pf.cluster, pf.start)

    caps = {
        FUClass.INT: config.int_units_per_cluster,
        FUClass.MEM: config.mem_units_per_cluster,
        FUClass.FP: config.fp_units_per_cluster,
    }
    for (fu, cluster, row), used in sorted(
        fu_use.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])
    ):
        if used > caps[fu]:
            out.append(
                Diagnostic.new(
                    "A006",
                    f"{fu.value} units oversubscribed in cluster {cluster} "
                    f"row {row}: {used} placed, {caps[fu]} available",
                )
            )

    for row, used in sorted(_bus_rows(schedule).items()):
        if used > config.n_buses:
            out.append(
                Diagnostic.new(
                    "A007",
                    f"buses oversubscribed in row {row}: {used} comms, "
                    f"{config.n_buses} buses",
                )
            )
    return out


def _bus_rows(schedule: ModuloSchedule) -> dict[int, int]:
    rows: dict[int, int] = {}
    for comm in schedule.comms:
        row = comm.start % schedule.ii
        rows[row] = rows.get(row, 0) + 1
    return rows


def bus_binding_rows(schedule: ModuloSchedule) -> list[int]:
    """Kernel rows whose bus slots are fully occupied.

    The exact scheduler refutes candidate IIs through the same
    greedy-earliest bus placement the heuristic engine uses; that
    refutation is complete only while buses are never binding.  A row
    at full occupancy therefore voids search-based optimality proofs
    (``ii <= MII`` proofs survive: MII is bus-blind but still a valid
    lower bound).
    """
    return sorted(
        row
        for row, used in _bus_rows(schedule).items()
        if used >= schedule.config.n_buses
    )


def check_schedule(schedule: ModuloSchedule, ddg: DDG) -> list[Diagnostic]:
    """All schedule-legality checks (A001-A007)."""
    out = check_dependences(schedule, ddg)
    out.extend(check_comms(schedule))
    out.extend(check_reservations(schedule))
    return out
