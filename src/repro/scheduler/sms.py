"""Swing-Modulo-Scheduling node ordering (paper section 4.3, step 2).

The ordering preserves the two properties the scheduler relies on
(Llosa et al., PACT'96):

1. every node except the first of each connected component is a DDG
   neighbour of an already-ordered node, which keeps the placement
   window tight (at most II candidate cycles, anchored on a scheduled
   neighbour); and
2. critical nodes — those with the least slack at the target II, which
   includes every node on the binding recurrence — are ordered first.

Each ordered node carries the direction the placer should sweep:
``TOP_DOWN`` (ascending from its earliest start — used when the node was
reached through a predecessor) or ``BOTTOM_UP`` (descending from its
latest start — reached through a successor).  Nodes with ordered
neighbours on both sides default to top-down; the window is bounded on
both sides regardless.
"""

from __future__ import annotations

import enum

from ..ir.ddg import DDG, LoadLatency


class Direction(enum.Enum):
    TOP_DOWN = "top_down"
    BOTTOM_UP = "bottom_up"


def sms_order(
    ddg: DDG, ii: int, load_latency: LoadLatency
) -> list[tuple[int, Direction]]:
    """Order DDG nodes for placement at initiation interval ``ii``.

    Falls back to slack ordering at a feasible II if ``ii`` is below
    RecMII (the caller will fail placement and retry anyway, but the
    order must still be well defined).
    """
    paths = ddg.asap_slack(ii, load_latency)
    probe_ii = ii
    while paths is None:
        probe_ii *= 2
        if probe_ii > 1 << 20:
            raise ValueError("cannot find a feasible II for ordering")
        paths = ddg.asap_slack(probe_ii, load_latency)
    return order_by_slack(ddg, *paths)


def order_by_slack(
    ddg: DDG, asap: dict[int, int], slack: dict[int, int]
) -> list[tuple[int, Direction]]:
    """:func:`sms_order` given the ``(asap, slack)`` of
    :meth:`~repro.ir.ddg.DDG.asap_slack` at a feasible II, for callers
    that hold them already."""

    def priority(uid: int) -> tuple[int, int, int]:
        return (slack[uid], asap[uid], uid)

    ordered: list[tuple[int, Direction]] = []
    remaining = set(ddg.nodes)
    # Unordered nodes adjacent to an ordered node, each with its ordered
    # neighbour of least uid and the direction that neighbour gives it:
    # top-down when the neighbour feeds it, else bottom-up (reached
    # through a successor).
    frontier: dict[int, tuple[int, Direction]] = {}

    while remaining:
        if frontier:
            uid = min(frontier, key=priority)
            direction = frontier.pop(uid)[1]
        else:
            uid = min(remaining, key=priority)
            direction = Direction.TOP_DOWN
        ordered.append((uid, direction))
        remaining.discard(uid)
        fed = {edge.dst for edge in ddg.succs[uid]}
        for other in fed.union(edge.src for edge in ddg.preds[uid]):
            if other in remaining:
                known = frontier.get(other)
                if known is None or uid < known[0]:
                    frontier[other] = (
                        uid,
                        Direction.TOP_DOWN if other in fed else Direction.BOTTOM_UP,
                    )

    return ordered
