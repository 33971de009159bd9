"""Minimum initiation interval: resource-bound and recurrence-bound.

``MII = max(ResMII, RecMII)`` (paper section 4.2).  ResMII counts issue
slots per FU class across all clusters; RecMII is found by searching for
the smallest II whose dependence constraints admit a fixed point (no
positive cycle in the constraint graph) — equivalent to the classic
max-cycle-ratio bound but robust for arbitrary edge sets.
"""

from __future__ import annotations

from ..isa.operations import FUClass
from ..ir.ddg import DDG, LoadLatency, earliest
from ..ir.loop import Loop
from ..machine.config import MachineConfig


def res_mii(loop: Loop, config: MachineConfig) -> int:
    """Resource-constrained MII over INT/MEM/FP issue slots."""
    counts = {FUClass.INT: 0, FUClass.MEM: 0, FUClass.FP: 0}
    for instr in loop.body:
        if instr.fu_class in counts:
            counts[instr.fu_class] += 1
    bound = 1
    per_cluster = {
        FUClass.INT: config.int_units_per_cluster,
        FUClass.MEM: config.mem_units_per_cluster,
        FUClass.FP: config.fp_units_per_cluster,
    }
    for fu_class, used in counts.items():
        slots = per_cluster[fu_class] * config.n_clusters
        if used:
            bound = max(bound, -(-used // slots))
    return bound


def rec_mii(ddg: DDG, load_latency: LoadLatency, upper: int | None = None) -> int:
    """Recurrence-constrained MII (1 when the DDG has no recurrences).

    ``upper`` is a *probe hint* — where the exponential search for a
    feasible II starts — never a clamp: a recurrence whose RecMII
    exceeds the hint (e.g. a caller passing ResMII, as the exact
    scheduler's deepening loop seeds with) is still resolved exactly by
    doubling past it.  The default hint is a genuine upper bound: every
    recurrence traverses each edge at most once, so its total latency —
    and therefore ``ceil(latency / distance) <= latency`` for distance
    >= 1 — cannot exceed the sum of all edge latencies.  (The previous
    default summed only distance-carrying edges, which is *not* an upper
    bound — a recurrence's latency is dominated by its distance-0 edges
    whenever the back edge is cheap — and only worked because of the
    doubling rescue below.)
    """
    return _least_feasible_ii(ddg, load_latency, 1, upper)


def _least_feasible_ii(
    ddg: DDG, load_latency: LoadLatency, low: int, upper: int | None = None
) -> int:
    """``max(low, RecMII)``: the least II from ``low`` up whose constraints
    have no positive cycle.

    Feasibility is monotone in II (a larger II only relaxes each
    constraint), so ``low`` is probed first and settles the answer
    whenever the recurrences fit; otherwise the search brackets and
    bisects above it, as :func:`rec_mii` describes.  The load latencies
    are read once for every probe.
    """
    plan = ddg.latency_plan(load_latency)
    n = ddg.n_nodes

    def feasible(ii: int) -> bool:
        return earliest(n, ddg.weighted(ii, plan)) is not None

    if feasible(low):
        return low
    if upper is None:
        upper = 1 + sum(edge.latency(plan) for edge in ddg.edges)
    lo, hi = low, max(low + 1, upper)
    while not feasible(hi):
        lo = hi
        hi *= 2
        if hi > 1 << 20:
            raise ValueError("RecMII search diverged; inconsistent DDG")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def compute_mii(
    loop: Loop, ddg: DDG, config: MachineConfig, load_latency: LoadLatency
) -> int:
    """``max(ResMII, RecMII)``; one relaxation at ResMII settles it when
    the recurrences fit."""
    return _least_feasible_ii(ddg, load_latency, res_mii(loop, config))
