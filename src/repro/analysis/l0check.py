"""Checker 3: L0 buffer occupancy and hint consistency.

Two static facts the compiled artifacts claim about the paper's
compiler-managed L0 buffers, re-proved here from the raw schedule:

* **Occupancy (A009)** — a load stream resident in an L0 buffer holds
  its current subblock plus the prefetched next one, so a cluster
  hosting ``k`` L0 load streams needs ``2k`` entries.  The scheduler
  budgets entries attempt-by-attempt; this check re-counts the *final*
  placement against the declared capacity.
* **Hint consistency (A010)** — on the L0 architecture a load was
  scheduled with exactly one of two latencies, and the hint bundle the
  schedule carries must agree: ``uses_l0`` hints with the L0 latency,
  bypass hints with the L1 latency.  A mismatch means the simulator
  and the scheduler disagree about where the load's data lives.

A011 (flush coverage) is retired: the simulator flushes every L0
buffer after every loop invocation, so there is no flush plan to audit.
"""

from __future__ import annotations

from ..machine.config import ArchKind
from ..scheduler.schedule import ModuloSchedule
from .diagnostics import Diagnostic

#: Steady-state entries one resident load stream occupies: the subblock
#: it is reading plus the one the automatic prefetch brought in.
#: (Restated from the paper's section 4.3 capacity argument, on purpose
#: not imported from the scheduler being checked.)
ENTRIES_PER_STREAM = 2


def check_l0_occupancy(schedule: ModuloSchedule) -> list[Diagnostic]:
    """A009: per-cluster resident streams fit the declared L0 capacity."""
    config = schedule.config
    if config.arch is not ArchKind.L0 or config.l0_entries is None:
        return []
    streams: dict[int, int] = {}
    for op in schedule.placed.values():
        if op.instr.is_load and op.hints.uses_l0:
            streams[op.cluster] = streams.get(op.cluster, 0) + 1
    out: list[Diagnostic] = []
    for cluster, count in sorted(streams.items()):
        need = count * ENTRIES_PER_STREAM
        if need > config.l0_entries:
            out.append(
                Diagnostic.new(
                    "A009",
                    f"cluster {cluster} hosts {count} L0 load streams "
                    f"needing {need} entries but the buffer holds "
                    f"{config.l0_entries}",
                )
            )
    return out


def check_hint_consistency(schedule: ModuloSchedule) -> list[Diagnostic]:
    """A010: every load's scheduled latency matches its access hints."""
    config = schedule.config
    if config.arch is not ArchKind.L0:
        return []  # other architectures bypass L0; latencies vary by policy
    out: list[Diagnostic] = []
    for uid, op in sorted(schedule.placed.items()):
        if not op.instr.is_load:
            continue
        expected = config.l0_latency if op.hints.uses_l0 else config.l1_latency
        if op.latency != expected:
            where = "L0" if op.hints.uses_l0 else "L1"
            out.append(
                Diagnostic.new(
                    "A010",
                    f"load {uid} was scheduled with latency {op.latency} "
                    f"but its hints say it reads through {where} "
                    f"(latency {expected})",
                )
            )
    return out


def check_l0(schedule: ModuloSchedule) -> list[Diagnostic]:
    """All single-schedule L0 checks (A009/A010)."""
    return check_l0_occupancy(schedule) + check_hint_consistency(schedule)
