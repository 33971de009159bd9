"""The cluster-aware modulo scheduling engine (paper sections 4.2-4.3).

One engine drives all four architectures; a :class:`MemoryPolicy`
(unified / L0 / MultiVLIW / word-interleaved) decides memory-instruction
latencies, cluster preferences and hints.  The engine implements the
BASE algorithm's skeleton: iterate the II upward from MII, order nodes
with the SMS heuristic, and place one instruction at a time in the
cluster that minimises inter-cluster communication while balancing
workload, inserting bus communication operations whenever a register
value crosses clusters.  An attempt whose placement/ejection loop comes
back to a state it was in before fails at once: from there it could
only cycle until its ejection budget ran out.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from ..isa.instruction import Instruction
from ..isa.operations import FUClass
from ..ir.ddg import DDG, DepKind
from ..machine.config import MachineConfig
from .mii import compute_mii
from .mrt import FU_CLASSES, FU_INDEX, ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp, SchedulingError
from .sms import Direction, sms_order


#: Node-table FU index of pseudo-ops that occupy no issue slot: one past
#: the reservation table's classes, so per-class counters keep a row for
#: them.
NO_FU = len(FU_CLASSES)


class ClusterScheduler:
    """Schedules one loop for one machine configuration.

    Construction builds the per-compile node tables the placement loops
    read by uid: each node's FU index (:data:`~.mrt.FU_INDEX`, or
    :data:`NO_FU`), whether the memory policy picks its latency, the
    fixed latency of every other node, and its dependence edges as plain
    tuples, with the register edges and neighbours derived from them.
    They replace per-trial ``Instruction`` property, config, ``Edge``
    attribute and enum-keyed dict lookups; every value is a pure
    function of the loop, its DDG and the config, so reading it from a
    table cannot change a schedule.
    """

    #: How many II values above MII to try before giving up.
    MAX_II_SLACK = 96

    def __init__(
        self,
        ddg: DDG,
        config: MachineConfig,
        policy: MemoryPolicy,
    ) -> None:
        self.ddg = ddg
        self.loop = ddg.loop
        self.config = config
        self.policy = policy

        # Per-compile node tables
        self._fu: dict[int, int] = {}
        self._is_memory: dict[int, bool] = {}
        self._latency: dict[int, int] = {}
        for instr in self.loop.body:
            uid = instr.uid
            fu_class = instr.fu_class
            self._fu[uid] = NO_FU if fu_class is FUClass.NONE else FU_INDEX[fu_class]
            self._is_memory[uid] = instr.is_memory
            if not instr.is_memory:
                self._latency[uid] = config.latency_of(instr.opcode)
        #: Each node's non-self predecessor and successor edges, in DDG
        #: order, as ``(other uid, distance, fixed latency, is REG)``.
        #: Self edges constrain the II alone: a node is never placed while
        #: it is being placed, so no placement loop needs them here.
        self._preds: dict[int, list[tuple[int, int, int | None, bool]]] = {}
        self._succs: dict[int, list[tuple[int, int, int | None, bool]]] = {}
        #: Register values each node reads from other nodes, and sends to
        #: them (none when it writes no register), as ``(other uid,
        #: distance, fixed latency)``: the transfers ``_plan_comms`` plans.
        self._reg_in: dict[int, list[tuple[int, int, int | None]]] = {}
        self._reg_out: dict[int, list[tuple[int, int, int | None]]] = {}
        #: Other ends of each node's register edges, one entry per edge.
        self._reg_neighbours: dict[int, list[int]] = {}
        for instr in self.loop.body:
            uid = instr.uid
            preds = [
                (e.src, e.distance, e.fixed_latency, e.kind is DepKind.REG)
                for e in ddg.preds[uid]
                if e.src != uid
            ]
            succs = [
                (e.dst, e.distance, e.fixed_latency, e.kind is DepKind.REG)
                for e in ddg.succs[uid]
                if e.dst != uid
            ]
            self._preds[uid], self._succs[uid] = preds, succs
            reg_in = [(o, d, f) for o, d, f, reg in preds if reg]
            reg_out = [(o, d, f) for o, d, f, reg in succs if reg]
            self._reg_in[uid] = reg_in
            self._reg_out[uid] = reg_out if instr.dest is not None else []
            self._reg_neighbours[uid] = [o for o, _, _ in reg_in + reg_out]

        # Per-attempt state
        self._asap: dict[int, int] | None = None
        self.mrt: ModuloReservationTable | None = None
        self.placed: dict[int, PlacedOp] = {}
        self.comms: list[PlacedComm] = []
        self._comm_index: dict[tuple[int, int], PlacedComm] = {}
        self._cluster_ops: list[int] = []
        #: Placed ops per FU index (NO_FU included) and cluster.
        self._cluster_fu_ops: list[list[int]] = []

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def schedule(self) -> ModuloSchedule:
        return self._schedule_from(self._mii())

    def _mii(self) -> int:
        latency = self.policy.planned_latency
        return compute_mii(self.loop, self.ddg, self.config, latency)

    def _schedule_from(self, mii: int) -> ModuloSchedule:
        """The SMS search from ``mii`` up, the engine's :meth:`schedule`
        once the MII is known (the exact scheduler reuses its own)."""
        for ii in range(mii, mii + self.MAX_II_SLACK + 1):
            result = self._attempt(ii)
            if result is None:
                # Dense dependence webs can defeat the SMS order + ejection
                # search; a plain top-down ASAP-topological pass is far
                # less efficient but essentially always placeable once the
                # II is large enough.
                result = self._attempt(ii, order_mode="asap")
            if result is not None:
                return result
        raise SchedulingError(
            f"no schedule for loop {self.loop.name!r} within II "
            f"[{mii}, {mii + self.MAX_II_SLACK}]"
        )

    # ------------------------------------------------------------------
    # One attempt at a fixed II
    # ------------------------------------------------------------------

    def _attempt(self, ii: int, order_mode: str = "sms") -> ModuloSchedule | None:
        n_clusters = self.config.n_clusters
        self.mrt = ModuloReservationTable(ii, self.config)
        self.current_ii = ii
        self.placed = {}
        self.comms = []
        self._comm_index = {}
        self._cluster_ops = [0] * n_clusters
        self._cluster_fu_ops = [[0] * n_clusters for _ in range(NO_FU + 1)]
        self.policy.begin_attempt(ii, self)

        # ASAP lower bounds for this attempt: placing any node earlier
        # than its longest incoming path (through *unscheduled* nodes
        # included) would wedge a later placement into an empty window.
        self._asap = self.ddg.earliest_times(ii, self.policy.planned_latency)
        if self._asap is None:
            return None  # II below RecMII under the current latency plan

        if order_mode == "sms":
            order = sms_order(self.ddg, ii, self.policy.planned_latency)
        else:
            order = [
                (uid, Direction.TOP_DOWN)
                for uid in sorted(
                    self.ddg.nodes, key=lambda u: (self._asap[u], u)
                )
            ]
        # A node sweeps in the direction its order gave it, requeued or not.
        direction_of = dict(order)
        work = deque(uid for uid, _ in order)
        ejection_budget = 12 * len(order)
        ejections = 0
        seen: set[tuple] = set()
        while work:
            uid = work.popleft()
            if uid in self.placed:
                continue
            direction = direction_of[uid]
            instr = self.ddg.instruction(uid)
            clusters = self._cluster_order(uid)
            is_memory = self._is_memory[uid]
            if is_memory:
                options = self.policy.options(instr, clusters)
            else:
                latency = self._latency[uid]
                options = [(c, latency) for c in clusters]
            placed_op = None
            for cluster, latency in options:
                attempt = self._try_place(instr, cluster, latency, direction, ii)
                if attempt is None:
                    continue
                op, new_comms = attempt
                if is_memory and not self.policy.committed(instr, op, self):
                    self._undo_place(op, new_comms)
                    continue
                placed_op = op
                break
            if placed_op is not None:
                self._note_placement(placed_op)
                continue
            # Placement failed: eject the placed neighbours pinning this
            # node's window and retry (iterative modulo scheduling).
            victims = self._placed_neighbours(uid)
            ejections += len(victims) + 1
            if not victims or ejections > ejection_budget:
                return None
            # From here the loop is a function of this snapshot, so a
            # repeat would cycle until the budget ran out: fail now
            # (docs/architecture.md, "SMS livelock cut").
            size = len(seen)
            seen.add(self._snapshot(uid, work))
            if len(seen) == size:
                return None
            for victim in victims:
                self._eject(victim)
                work.append(victim)
            work.appendleft(uid)

        schedule = ModuloSchedule(
            loop_name=self.loop.name,
            ii=ii,
            config=self.config,
            placed=dict(self.placed),
            comms=list(self.comms),
        )
        self.policy.finalize(schedule, self.ddg, self.mrt, self)
        self._normalize(schedule)
        return schedule

    def _note_placement(self, op: PlacedOp) -> None:
        self._cluster_ops[op.cluster] += 1
        self._cluster_fu_ops[self._fu[op.instr.uid]][op.cluster] += 1

    def _snapshot(self, uid: int, work: deque[int]) -> tuple:
        """The attempt's state at a failed placement of ``uid``: the work
        list, the placements (as a set), the comms in order, each with
        whether ``_comm_index`` maps its key to it, and the policy's
        :meth:`~.policies.MemoryPolicy.attempt_state`.  The reservation
        table and the per-cluster counters follow from these."""
        index = self._comm_index
        return (
            uid,
            tuple(work),
            frozenset(
                (u, op.cluster, op.start, op.latency) for u, op in self.placed.items()
            ),
            tuple(
                (
                    c.producer_uid,
                    c.dst_cluster,
                    c.src_cluster,
                    c.start,
                    c.latency,
                    index.get((c.producer_uid, c.dst_cluster)) is c,
                )
                for c in self.comms
            ),
            self.policy.attempt_state(),
        )

    # ------------------------------------------------------------------
    # Cluster preference (BASE heuristic: comms then balance)
    # ------------------------------------------------------------------

    def _cluster_order(self, uid: int) -> list[int]:
        # A placed register neighbour in cluster c costs a transfer in
        # every cluster but c: count placed neighbour edges per cluster.
        n_clusters = self.config.n_clusters
        local = [0] * n_clusters
        placed_edges = 0
        for other in self._reg_neighbours[uid]:
            op = self.placed.get(other)
            if op is not None:
                local[op.cluster] += 1
                placed_edges += 1
        fu_load = self._cluster_fu_ops[self._fu[uid]]
        scores = [
            (placed_edges - local[c], fu_load[c], self._cluster_ops[c], c)
            for c in range(n_clusters)
        ]
        scores.sort()
        return [cluster for (_, _, _, cluster) in scores]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    # An edge's latency is its fixed latency, else the latency its
    # source load was scheduled with: the placed producer's for an edge
    # into the node being placed, the candidate ``latency`` for an edge
    # out of it.  The placement helpers below inline that rule.

    def _window(
        self, instr: Instruction, cluster: int, latency: int, ii: int
    ) -> tuple[int | None, int | None]:
        """[earliest, latest] start bounds from already-placed neighbours."""
        bus = self.config.bus_latency
        placed = self.placed
        earliest: int | None = None
        latest: int | None = None
        for src, distance, fixed, is_reg in self._preds[instr.uid]:
            src_op = placed.get(src)
            if src_op is None:
                continue
            lat = src_op.latency if fixed is None else fixed
            low = src_op.start + lat - ii * distance
            if is_reg and src_op.cluster != cluster:
                existing = self._comm_index.get((src, cluster))
                if existing is not None:
                    low = existing.start + existing.latency - ii * distance
                else:
                    low += bus
            earliest = low if earliest is None else max(earliest, low)
        for dst, distance, fixed, is_reg in self._succs[instr.uid]:
            dst_op = placed.get(dst)
            if dst_op is None:
                continue
            lat = latency if fixed is None else fixed
            high = dst_op.start + ii * distance - lat
            if is_reg and dst_op.cluster != cluster:
                high -= bus
            latest = high if latest is None else min(latest, high)
        return earliest, latest

    def _try_place(
        self,
        instr: Instruction,
        cluster: int,
        latency: int,
        direction: Direction,
        ii: int,
    ) -> tuple[PlacedOp, list[PlacedComm]] | None:
        assert self.mrt is not None
        earliest, latest = self._window(instr, cluster, latency, ii)
        asap = self._asap[instr.uid] if self._asap is not None else 0
        if latest is None:
            # Top-down: no placed successor constrains us.  Clamp to the
            # static ASAP so nodes with long *unscheduled* incoming paths
            # are not placed so early that those paths can never fit.
            earliest = asap if earliest is None else max(earliest, asap)
            latest = earliest + ii - 1
        elif earliest is None:
            # Bottom-up: scan downward from the successor bound.  Going
            # below the static ASAP is fine (times are relative until
            # normalisation), but clamp the drift to one II: every
            # reservation row is reachable within II consecutive cycles,
            # so deeper descent only feeds ejection livelock.
            earliest = max(latest - ii + 1, asap - ii)
        # Never scan more than II consecutive cycles: rows repeat mod II.
        latest = min(latest, earliest + ii - 1)
        if latest < earliest:
            return None

        if direction is Direction.TOP_DOWN:
            candidates: Sequence[int] = range(earliest, latest + 1)
        else:
            candidates = range(latest, earliest - 1, -1)

        fu = self._fu[instr.uid]
        for start in candidates:
            if fu != NO_FU and not self.mrt.can_reserve(start, fu, cluster):
                continue
            plan = self._plan_comms(instr, cluster, start, latency, ii)
            if plan is None:
                continue
            if fu != NO_FU:
                self.mrt.reserve(start, fu, cluster)
            for comm in plan:
                self.mrt.bus_place(comm.start)
                self.comms.append(comm)
                self._comm_index[(comm.producer_uid, comm.dst_cluster)] = comm
            op = PlacedOp(instr=instr, cluster=cluster, start=start, latency=latency)
            self.placed[instr.uid] = op
            return op, plan
        return None

    def _undo_place(self, op: PlacedOp, new_comms: list[PlacedComm]) -> None:
        """Roll back a placement the policy vetoed."""
        assert self.mrt is not None
        fu = self._fu[op.instr.uid]
        if fu != NO_FU:
            self.mrt.release(op.start, fu, op.cluster)
        if new_comms:
            for comm in new_comms:
                self.mrt.bus_remove(comm.start)
                key = (comm.producer_uid, comm.dst_cluster)
                if self._comm_index.get(key) is comm:
                    del self._comm_index[key]
            # _try_place appended them last and the policy adds no engine
            # comms, so they are the tail: cut them off by position.
            del self.comms[-len(new_comms) :]
        del self.placed[op.instr.uid]

    def _placed_neighbours(self, uid: int) -> list[int]:
        """Placed DDG neighbours of ``uid`` (the nodes pinning its window)."""
        neighbours: dict[int, None] = {}
        for edges in (self._preds[uid], self._succs[uid]):
            for other, _, _, _ in edges:
                if other in self.placed:
                    neighbours[other] = None
        return list(neighbours)

    def _eject(self, uid: int) -> None:
        """Unplace a node: free its FU slot and producer-side comms."""
        assert self.mrt is not None
        op = self.placed.pop(uid)
        fu = self._fu[uid]
        if fu != NO_FU:
            self.mrt.release(op.start, fu, op.cluster)
        self._cluster_ops[op.cluster] -= 1
        self._cluster_fu_ops[fu][op.cluster] -= 1
        kept: list[PlacedComm] = []
        for comm in self.comms:
            if comm.producer_uid != uid:
                kept.append(comm)
                continue
            self.mrt.bus_remove(comm.start)
            index_key = (uid, comm.dst_cluster)
            if self._comm_index.get(index_key) is comm:
                del self._comm_index[index_key]
        self.comms = kept
        if self._is_memory[uid]:
            self.policy.ejected(op, self)

    def _plan_comms(
        self, instr: Instruction, cluster: int, start: int, latency: int, ii: int
    ) -> list[PlacedComm] | None:
        """Bus transfers needed if ``instr`` starts at ``start`` in ``cluster``.

        Returns the list of *new* comms (existing ones are reused when
        their arrival meets the deadline), or None if any transfer cannot
        be placed on a bus in time.
        """
        assert self.mrt is not None
        uid = instr.uid
        placed = self.placed
        bus = self.config.bus_latency
        new_comms: dict[tuple[int, int], PlacedComm] = {}
        pending_bus_rows: dict[int, int] = {}  # rows new_comms occupy

        # Values arriving from producers in other clusters.
        for src, distance, fixed in self._reg_in[uid]:
            src_op = placed.get(src)
            if src_op is None or src_op.cluster == cluster:
                continue
            deadline = start + ii * distance
            key = (src, cluster)
            existing = self._comm_index.get(key)
            if existing is not None and existing.start + existing.latency <= deadline:
                continue
            planned = new_comms.get(key)
            if planned is not None and planned.start + planned.latency <= deadline:
                continue
            comm = self._find_bus_slot(
                src_op.start + (src_op.latency if fixed is None else fixed),
                deadline - bus,
                src_op.cluster,
                cluster,
                src,
                ii,
                pending_bus_rows,
            )
            if comm is None:
                return None
            new_comms[key] = comm

        # Values this instruction produces for consumers in other clusters.
        for dst, distance, fixed in self._reg_out[uid]:
            dst_op = placed.get(dst)
            if dst_op is None or dst_op.cluster == cluster:
                continue
            deadline = dst_op.start + ii * distance
            key = (uid, dst_op.cluster)
            planned = new_comms.get(key)
            if planned is not None and planned.start + planned.latency <= deadline:
                continue
            comm = self._find_bus_slot(
                start + (latency if fixed is None else fixed),
                deadline - bus,
                cluster,
                dst_op.cluster,
                uid,
                ii,
                pending_bus_rows,
            )
            if comm is None:
                return None
            new_comms[key] = comm

        return list(new_comms.values())

    def _find_bus_slot(
        self,
        not_before: int,
        not_after: int,
        src_cluster: int,
        dst_cluster: int,
        producer_uid: int,
        ii: int,
        pending_bus_rows: dict[int, int],
    ) -> PlacedComm | None:
        """The earliest transfer starting in ``[not_before, not_after]`` on
        a row with a bus left after the table's and ``pending_bus_rows``'
        claims; that row is then claimed in ``pending_bus_rows``."""
        if not_after < not_before:
            return None
        assert self.mrt is not None
        booked = self.mrt.bus_booked
        capacity = self.mrt.bus_capacity
        # Scanning II consecutive cycles covers every kernel row.
        last = min(not_after, not_before + ii - 1)
        for cycle in range(not_before, last + 1):
            row = cycle % ii
            pending = pending_bus_rows.get(row, 0)
            if capacity - booked[row] > pending:
                pending_bus_rows[row] = pending + 1
                return PlacedComm(
                    producer_uid=producer_uid,
                    dst_cluster=dst_cluster,
                    src_cluster=src_cluster,
                    start=cycle,
                    latency=self.config.bus_latency,
                )
        return None

    # ------------------------------------------------------------------
    # Finalisation
    # ------------------------------------------------------------------

    def _normalize(self, schedule: ModuloSchedule) -> None:
        """Shift all times so the earliest op starts at cycle 0."""
        starts = [op.start for op in schedule.all_placed_ops()]
        starts.extend(c.start for c in schedule.comms)
        starts.extend(p.start for p in schedule.prefetches)
        shift = -min(starts)
        if shift == 0:
            return
        for op in schedule.all_placed_ops():
            op.start += shift
        for comm in schedule.comms:
            comm.start += shift
        for prefetch in schedule.prefetches:
            prefetch.start += shift
