"""Checker 2: register lifetimes under modulo variable expansion.

The paper's clustered register files cap the values simultaneously live
in a cluster (``MachineConfig.max_live_per_cluster``).  This module is
the project's one MaxLive: it derives per-cluster register pressure
from the schedule's raw records.

A value produced at cycle ``p`` and last consumed at cycle ``e``
occupies one register during every cycle of ``[p, e]``.  In steady
state the kernel repeats every II cycles, so at kernel row ``r`` the
value contributes one live instance per lifetime cycle congruent to
``r`` (mod II), counted directly, cycle by cycle.  Residency rules:

* the producing cluster holds the value from production until its last
  local consumer's issue, and at least until every bus transfer of the
  value has read it;
* a consuming cluster reached over a bus holds the comm'ed copy from
  the comm's arrival until its own last consumer's issue.

Per-cluster MaxLive beyond the configured cap is an A008 error.
"""

from __future__ import annotations

from ..ir.ddg import DDG, DepKind
from ..scheduler.schedule import ModuloSchedule
from .dependence import earliest_arrivals, produce_time
from .diagnostics import Diagnostic


def live_intervals(
    schedule: ModuloSchedule, ddg: DDG
) -> list[tuple[int, int, int, int]]:
    """``(producer_uid, cluster, first_cycle, last_cycle)`` per residency."""
    ii = schedule.ii
    arrivals = earliest_arrivals(schedule)
    intervals: list[tuple[int, int, int, int]] = []
    for uid, op in schedule.placed.items():
        if op.instr.dest is None:
            continue
        produce = produce_time(schedule, uid)
        # Last cycle the value must survive, per resident cluster.
        holds: dict[int, int] = {}
        for edge in ddg.succs[uid]:
            if edge.kind is not DepKind.REG:
                continue
            consumer = schedule.placed.get(edge.dst)
            if consumer is None:
                continue  # the dependence checker reports unplaced nodes
            due = consumer.start + edge.distance * ii
            if consumer.cluster == op.cluster:
                cluster = op.cluster
            else:
                if (uid, consumer.cluster) not in arrivals:
                    continue  # missing comm: reported as A003, not here
                cluster = consumer.cluster
            holds[cluster] = max(due, holds.get(cluster, due))
            # Any consumer at all keeps the value in its home register
            # until it is produced (zero-length floor).
            holds.setdefault(op.cluster, produce)
        for comm in schedule.comms:
            if comm.producer_uid == uid:
                holds[op.cluster] = max(holds.get(op.cluster, produce), comm.start)
        for cluster, end in holds.items():
            first = produce if cluster == op.cluster else arrivals[(uid, cluster)]
            if end >= first:
                intervals.append((uid, cluster, first, end))
    return intervals


def max_live_per_cluster(schedule: ModuloSchedule, ddg: DDG) -> dict[int, int]:
    """Steady-state MaxLive, by direct cycle counting over kernel rows."""
    ii = schedule.ii
    n = schedule.config.n_clusters
    per_row = [[0] * ii for _ in range(n)]
    for _uid, cluster, first, last in live_intervals(schedule, ddg):
        for cycle in range(first, last + 1):
            per_row[cluster][cycle % ii] += 1
    return {cluster: max(per_row[cluster]) for cluster in range(n)}


def check_register_pressure(schedule: ModuloSchedule, ddg: DDG) -> list[Diagnostic]:
    """A008: every cluster's MaxLive fits the configured register file."""
    cap = schedule.config.max_live_per_cluster
    out: list[Diagnostic] = []
    for cluster, live in sorted(max_live_per_cluster(schedule, ddg).items()):
        if live > cap:
            out.append(
                Diagnostic.new(
                    "A008",
                    f"cluster {cluster} needs {live} simultaneously live "
                    f"registers but the register file holds {cap}",
                )
            )
    return out
