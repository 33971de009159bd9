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
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from ..isa.instruction import Instruction
from ..machine.config import MachineConfig
from . import memdep
from .loop import Loop


#: Load latencies by uid, as a mapping or a function.
LoadLatency = Mapping[int, int] | Callable[[int], int]
#: :meth:`DDG.weighted`'s forward and back edges at one II.
Weighted = tuple[list[tuple[int, int, int]], list[tuple[int, int, int]]]


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

    def latency(self, load_latency: LoadLatency) -> int:
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

    def __getstate__(self) -> dict:
        # The edge tables are derived from the edges: a compiled artifact
        # is pickled without them and rebuilds them on first use.
        state = dict(self.__dict__)
        state.pop("_tables", None)
        return state

    def _edge_tables(self) -> tuple[list[tuple], list[tuple], list[int]]:
        """The edges as ``(source index, destination index, fixed latency,
        source uid, distance)`` rows, split in two: the *forward* edges,
        whose destination follows their source in body order (every
        distance-0 edge :func:`build_ddg` makes), by source index, and the
        *back* edges; then the uids of the loads that source an edge.
        Built once per DDG."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            index = {uid: i for i, uid in enumerate(self.nodes)}
            rows = sorted(
                (
                    (index[e.src], index[e.dst], e.fixed_latency, e.src, e.distance)
                    for e in self.edges
                ),
                key=itemgetter(0),
            )
            forward = [row for row in rows if row[1] > row[0]]
            back = [row for row in rows if row[1] <= row[0]]
            loads = sorted({row[3] for row in rows if row[2] is None})
            tables = self._tables = (forward, back, loads)
        return tables

    def latency_plan(self, load_latency: LoadLatency) -> dict[int, int]:
        """The latency of every load that sources an edge, read once."""
        loads = self._edge_tables()[2]
        if callable(load_latency):
            return {uid: load_latency(uid) for uid in loads}
        return {uid: load_latency[uid] for uid in loads}

    def weighted(self, ii: int, plan: dict[int, int]) -> Weighted:
        """The forward and back edges at ``ii`` under a
        :meth:`latency_plan`, as ``(source index, destination index,
        latency - ii * distance)`` rows in table order."""
        forward, back, _ = self._edge_tables()
        return tuple(
            [(s, d, (plan[u] if f is None else f) - ii * k) for s, d, f, u, k in rows]
            for rows in (forward, back)
        )

    def earliest_times(
        self, ii: int, load_latency: LoadLatency
    ) -> dict[int, int] | None:
        """Longest-path earliest start times under initiation interval ``ii``.

        Edge constraint: ``t(dst) >= t(src) + latency - ii * distance``.
        Returns ``None`` when the constraints contain a positive cycle
        (``ii`` below RecMII).  Times are normalised to ``min == 0``.
        """
        weighted = self.weighted(ii, self.latency_plan(load_latency))
        times = earliest(self.n_nodes, weighted)
        if times is None:
            return None
        low = min(times, default=0)
        return {uid: t - low for uid, t in zip(self.nodes, times)}

    def latest_times(
        self, ii: int, load_latency: LoadLatency, horizon: int
    ) -> dict[int, int] | None:
        """Latest start times such that every node finishes by ``horizon``."""
        weighted = self.weighted(ii, self.latency_plan(load_latency))
        times = latest(self.n_nodes, weighted, horizon)
        if times is None:
            return None
        return dict(zip(self.nodes, times))

    def asap_slack(
        self, ii: int, load_latency: LoadLatency
    ) -> tuple[dict[int, int], dict[int, int]] | None:
        """:meth:`earliest_times` and :meth:`slack` from one resolution of
        the latency plan: ``(asap, slack)``, or ``None`` below RecMII."""
        weighted = self.weighted(ii, self.latency_plan(load_latency))
        n = self.n_nodes
        early = earliest(n, weighted)
        if early is None:
            return None
        low = min(early, default=0)
        asap = [t - low for t in early]
        # No positive cycle, so the latest times settle as well.
        late = latest(n, weighted, max(asap, default=0))
        nodes = self.nodes
        return (
            dict(zip(nodes, asap)),
            {uid: b - a for uid, a, b in zip(nodes, asap, late)},
        )

    def slack(self, ii: int, load_latency: LoadLatency) -> dict[int, int] | None:
        """Per-node slack = ALAP - ASAP (criticality: smaller = more critical)."""
        paths = self.asap_slack(ii, load_latency)
        return None if paths is None else paths[1]


# Both sweeps below find the least (resp. greatest) fixed point of the
# constraints.  Each sweep relaxes the forward edges in source order (in
# reverse for latest times), which settles every path of forward edges,
# then the back edges.  A sweep in which no back edge moves a time ends
# the search: every constraint then holds.  A positive cycle moves a back
# edge in every sweep, and without one the times are final after n - 1
# sweeps, so ``n + 1`` sweeps tell the two apart (docs/architecture.md,
# "Longest paths").


def earliest(n: int, weighted: Weighted) -> list[int] | None:
    """Least times ``>= 0`` meeting every edge, by node index, or ``None``
    on a positive cycle."""
    forward, back = weighted
    times = [0] * n
    for _sweep in range(n + 1):
        for s, d, w in forward:
            bound = times[s] + w
            if bound > times[d]:
                times[d] = bound
        settled = True
        for s, d, w in back:
            bound = times[s] + w
            if bound > times[d]:
                times[d] = bound
                settled = False
        if settled:
            return times
    return None


def latest(n: int, weighted: Weighted, horizon: int) -> list[int] | None:
    """Greatest times ``<= horizon`` meeting every edge, by node index, or
    ``None`` on a positive cycle."""
    forward, back = weighted
    times = [horizon] * n
    for _sweep in range(n + 1):
        for s, d, w in reversed(forward):
            bound = times[d] - w
            if bound < times[s]:
                times[s] = bound
        settled = True
        for s, d, w in back:
            bound = times[d] - w
            if bound < times[s]:
                times[s] = bound
                settled = False
        if settled:
            return times
    return None


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
