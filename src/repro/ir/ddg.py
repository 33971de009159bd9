"""The Data Dependence Graph used by the modulo scheduler.

Nodes are instruction uids; edges carry a dependence distance (in
iterations) and a latency.  Load latencies are *symbolic*: the L0-aware
scheduler decides per load whether it is scheduled with the L0 or the L1
latency (paper section 4.3), so edges sourced at a load defer to a
latency map supplied at query time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..isa.instruction import Instruction
from ..machine.config import MachineConfig
from . import memdep
from .loop import Loop


class DepKind(enum.Enum):
    REG = "reg"  # register flow dependence
    MEM = "mem"  # memory ordering dependence


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    distance: int
    kind: DepKind
    #: Fixed latency, or ``None`` when the source is a load whose latency
    #: (L0 vs L1) is assigned by the scheduler.
    fixed_latency: int | None

    def latency(self, load_latency: Mapping[int, int] | Callable[[int], int]) -> int:
        if self.fixed_latency is not None:
            return self.fixed_latency
        if callable(load_latency):
            return load_latency(self.src)
        return load_latency[self.src]


class DDG:
    """Dependence graph over one loop body."""

    def __init__(self, loop: Loop, edges: Iterable[Edge]) -> None:
        self.loop = loop
        self.nodes: list[int] = [i.uid for i in loop.body]
        self._instr = {i.uid: i for i in loop.body}
        self.edges: list[Edge] = list(edges)
        self.succs: dict[int, list[Edge]] = {uid: [] for uid in self.nodes}
        self.preds: dict[int, list[Edge]] = {uid: [] for uid in self.nodes}
        for edge in self.edges:
            self.succs[edge.src].append(edge)
            self.preds[edge.dst].append(edge)

    def instruction(self, uid: int) -> Instruction:
        return self._instr[uid]

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def reg_edges(self) -> list[Edge]:
        return [e for e in self.edges if e.kind is DepKind.REG]

    # ------------------------------------------------------------------
    # Longest-path machinery (shared by MII, SMS and the scheduler)
    # ------------------------------------------------------------------

    def earliest_times(
        self, ii: int, load_latency: Mapping[int, int] | Callable[[int], int]
    ) -> dict[int, int] | None:
        """Longest-path earliest start times under initiation interval ``ii``.

        Edge constraint: ``t(dst) >= t(src) + latency - ii * distance``.
        Returns ``None`` when the constraints contain a positive cycle
        (``ii`` below RecMII).  Times are normalised to ``min == 0``.
        """
        times = {uid: 0 for uid in self.nodes}
        for _round in range(self.n_nodes + 1):
            changed = False
            for edge in self.edges:
                bound = (
                    times[edge.src] + edge.latency(load_latency) - ii * edge.distance
                )
                if bound > times[edge.dst]:
                    times[edge.dst] = bound
                    changed = True
            if not changed:
                break
        else:  # no fixed point after n+1 rounds => positive cycle
            return None
        low = min(times.values())
        return {uid: t - low for uid, t in times.items()}

    def latest_times(
        self,
        ii: int,
        load_latency: Mapping[int, int] | Callable[[int], int],
        horizon: int,
    ) -> dict[int, int] | None:
        """Latest start times such that every node finishes by ``horizon``."""
        times = {uid: horizon for uid in self.nodes}
        for _round in range(self.n_nodes + 1):
            changed = False
            for edge in self.edges:
                bound = (
                    times[edge.dst] - edge.latency(load_latency) + ii * edge.distance
                )
                if bound < times[edge.src]:
                    times[edge.src] = bound
                    changed = True
            if not changed:
                break
        else:
            return None
        return times

    def slack(
        self, ii: int, load_latency: Mapping[int, int] | Callable[[int], int]
    ) -> dict[int, int] | None:
        """Per-node slack = ALAP - ASAP (criticality: smaller = more critical)."""
        asap = self.earliest_times(ii, load_latency)
        if asap is None:
            return None
        horizon = max(asap.values())
        alap = self.latest_times(ii, load_latency, horizon)
        if alap is None:
            return None
        return {uid: alap[uid] - asap[uid] for uid in self.nodes}


def build_ddg(
    loop: Loop,
    config: MachineConfig,
    dep_info: memdep.MemDepInfo | None = None,
) -> DDG:
    """Construct the DDG for ``loop``: register flow + memory order edges."""
    if dep_info is None:
        dep_info = memdep.analyze(loop)

    defs = loop.defs
    position = {instr.uid: idx for idx, instr in enumerate(loop.body)}
    edges: list[Edge] = []

    for instr in loop.body:
        for src_reg in instr.srcs:
            producer = defs.get(src_reg)
            if producer is None:
                continue  # live-in: always available
            distance = 0 if position[producer.uid] < position[instr.uid] else 1
            fixed = None if producer.is_load else config.latency_of(producer.opcode)
            edges.append(
                Edge(producer.uid, instr.uid, distance, DepKind.REG, fixed)
            )

    for order in memdep.order_edges(loop, dep_info):
        edges.append(
            Edge(
                order.src.uid, order.dst.uid, order.distance, DepKind.MEM, order.latency
            )
        )

    return DDG(loop, edges)
