"""The L0-aware memory policy: the paper's Figure-4 algorithm.

Implements, per scheduling attempt:

* ➊ per-cluster free-entry tracking (``num_free_L0_entries``);
* ➋ slack-based assignment of the L0 latency to the most critical
  ``N * NE`` candidate loads (ablation flag ``all_candidates`` disables
  the selection — every candidate is marked, reproducing the "+6% at 4
  entries" experiment of section 5.2);
* ➌/➑ recommended-cluster propagation between related strided loads so
  unrolled copies land in the consecutive clusters interleaved mapping
  expects;
* ➍ per-dependent-set coherence decision (1C when an L0-latency load
  exists and entries remain, else NL0; PSR available behind a flag);
* ➒ entry consumption on L0 placements; ➓ latency reassignment of the
  not-yet-scheduled candidates from their new slack;
* step 4 — hint assignment (SEQ/PAR, LINEAR/INTERLEAVED, prefetch
  hints with redundant-prefetch suppression in interleaved groups);
* step 5 — explicit software prefetch insertion for L0 loads whose
  stride does not match the automatic prefetch hints.
"""

from __future__ import annotations

import math
from itertools import count
from typing import TYPE_CHECKING

from ..isa.hints import AccessHint, HintBundle, MapHint, PrefetchHint
from ..isa.instruction import Instruction
from ..isa.operations import FUClass, Opcode
from ..ir import memdep
from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..ir.stride import StrideClass, classify, is_candidate
from ..machine.config import MachineConfig
from .coherence import CoherenceScheme, SetState
from .mrt import ModuloReservationTable
from .schedule import (
    ModuloSchedule,
    PlacedComm,
    PlacedOp,
    PlacedPrefetch,
)

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClusterScheduler

#: Instruction kinds the option protocol branches on, bound per uid at
#: construction.
_OTHER, _LOAD, _STORE, _PREFETCH_OR_INVAL = range(4)


def _kind_of(instr: Instruction) -> int:
    if instr.opcode in (Opcode.PREFETCH, Opcode.INVAL_L0):
        return _PREFETCH_OR_INVAL
    if instr.is_store:
        return _STORE
    if instr.is_load:
        return _LOAD
    return _OTHER


class L0Policy:
    """Memory policy for the proposed architecture (unified L1 + L0 buffers)."""

    name = "l0"
    #: Coherence-scheme decisions and candidate re-ranking are sticky
    #: across ejections (matching the heuristic engine), so a backtracking
    #: search over this policy's options is sound but not complete — the
    #: exact scheduler must not claim optimality proofs through it.
    SEARCH_EXACT = False

    #: Buffer entries a load stream occupies in steady state: its current
    #: subblock plus the prefetched next one.  The capacity budget uses
    #: this so "attention is paid not to overflow the buffers" (paper
    #: section 4.3) holds at run time, not just at schedule time.
    ENTRIES_PER_STREAM = 2

    #: Sticky decisions taken so far (a set's coherence scheme, a 1C set's
    #: cluster).  Ejection reverts neither, so :meth:`option_superset`
    #: changes only when this count does.
    decisions = 0

    def __init__(
        self,
        loop: Loop,
        config: MachineConfig,
        dep_info: memdep.MemDepInfo | None = None,
        *,
        all_candidates: bool = False,
        allow_psr: bool = False,
        prefetch_distance: int = 1,
    ) -> None:
        self.loop = loop
        self.config = config
        self.dep = dep_info if dep_info is not None else memdep.analyze(loop)
        self.all_candidates = all_candidates
        self.allow_psr = allow_psr
        self.prefetch_distance = prefetch_distance

        self.candidate_loads: list[int] = [
            i.uid for i in loop.body if i.is_load and is_candidate(i)
        ]
        self._candidates = frozenset(self.candidate_loads)
        self._instr = {i.uid: i for i in loop.body}
        self._kind = {i.uid: _kind_of(i) for i in loop.body}
        # The config is frozen, so its latencies are per-compile constants.
        self._l0_latency = config.l0_latency
        self._l1_latency = config.l1_latency
        self._store_latency = config.latency_of(Opcode.STORE)

        # Step-2 assumption: all candidates start planned at the L0
        # latency (used for MII and the SMS ordering before any attempt).
        self.l0_planned: set[int] = set(self.candidate_loads)
        self.recommended: dict[int, int] = {}
        self.sets: dict[int, SetState] = {}
        self.free: list[float] = []
        self.replicas: list[PlacedOp] = []
        self.replica_comms: list[PlacedComm] = []
        self._ii = 0
        self._slack_memo: dict[tuple[int, frozenset[int]], dict[int, int]] = {}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------

    @property
    def unbounded(self) -> bool:
        return self.config.l0_entries is None

    def _total_free(self) -> float:
        return sum(self.free)

    def planned_latency(self, uid: int) -> int:
        return self._l0_latency if uid in self.l0_planned else self._l1_latency

    def _slack_at(self, ddg: DDG, ii: int) -> dict[int, int]:
        """Per-node slack at ``ii`` under the current latency plan.

        The DDG and the config are fixed for an attempt, so slack is a
        pure function of ``ii`` and ``l0_planned``; it is memoised on
        those two until the next :meth:`begin_attempt`.  Callers only
        read the returned dict.
        """
        key = (ii, frozenset(self.l0_planned))
        slack = self._slack_memo.get(key)
        if slack is not None:
            return slack
        slack = ddg.slack(ii, self.planned_latency)
        probe = ii
        while slack is None:
            probe *= 2
            if probe > 1 << 20:
                raise ValueError("no feasible II while computing slack")
            slack = ddg.slack(probe, self.planned_latency)
        self._slack_memo[key] = slack
        return slack

    # ------------------------------------------------------------------
    # Figure 4 — initialisation (➊ ➋ ➌)
    # ------------------------------------------------------------------

    def begin_attempt(self, ii: int, engine: "ClusterScheduler") -> None:
        self._ii = ii
        self._slack_memo = {}
        n = self.config.n_clusters
        entries: float = math.inf if self.unbounded else float(self.config.l0_entries)
        self.free = [entries] * n
        self.recommended = {}
        self.replicas = []
        self.replica_comms = []
        self.sets = {}
        for dep_set in self.dep.sets:
            if self.dep.needs_coherence(dep_set):
                state = SetState(members=dep_set)
                for uid in dep_set:
                    self.sets[uid] = state

        if self.unbounded or self.all_candidates:
            self.l0_planned = set(self.candidate_loads)
            return
        budget = max(1, n * int(self.config.l0_entries) // self.ENTRIES_PER_STREAM)
        assume_all = set(self.candidate_loads)
        self.l0_planned = assume_all
        slack = self._slack_at(engine.ddg, ii)
        ranked = sorted(self.candidate_loads, key=lambda u: (slack[u], u))
        self.l0_planned = set(ranked[:budget])

    # ------------------------------------------------------------------
    # Figure 4 — per-instruction options (➍ ➎ ➏)
    # ------------------------------------------------------------------

    def _decide_scheme(self, state: SetState) -> None:
        if state.decided:
            return
        self.decisions += 1
        has_l0_load = any(
            uid in self.l0_planned and self._kind[uid] == _LOAD
            for uid in state.members
        )
        if self.allow_psr and has_l0_load:
            state.decide(CoherenceScheme.PSR)
            return
        if has_l0_load and self._total_free() > 0:
            state.decide(CoherenceScheme.ONE_CLUSTER)
            return
        state.decide(CoherenceScheme.NL0)
        for uid in state.members:
            self.l0_planned.discard(uid)

    def _l0_cluster_options(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        """L0-latency options: recommended cluster first, then free ones."""
        order: list[int] = []
        cost = self.ENTRIES_PER_STREAM
        rec = self.recommended.get(instr.uid)
        if rec is not None and self.free[rec] >= cost:
            order.append(rec)
        for cluster in clusters:
            if cluster not in order and self.free[cluster] >= cost:
                order.append(cluster)
        return [(c, self._l0_latency) for c in order]

    def options(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        kind = self._kind[instr.uid]
        if kind == _PREFETCH_OR_INVAL:
            return [(c, self._store_latency) for c in clusters]
        state = self.sets.get(instr.uid)
        if state is not None:
            self._decide_scheme(state)

        if kind == _STORE:
            if (
                state is not None
                and state.scheme is CoherenceScheme.ONE_CLUSTER
                and state.cluster is not None
            ):
                return [(state.cluster, self._store_latency)]
            return [(c, self._store_latency) for c in clusters]

        # Loads --------------------------------------------------------
        l1_options = [(c, self._l1_latency) for c in clusters]
        if instr.uid not in self.l0_planned:
            return l1_options
        if state is not None and state.scheme is CoherenceScheme.ONE_CLUSTER:
            if state.cluster is not None:
                opts: list[tuple[int, int]] = []
                if self.free[state.cluster] >= self.ENTRIES_PER_STREAM:
                    opts.append((state.cluster, self._l0_latency))
                return opts + l1_options
            return self._l0_cluster_options(instr, clusters) + l1_options
        if state is not None and state.scheme is CoherenceScheme.NL0:
            return l1_options
        return self._l0_cluster_options(instr, clusters) + l1_options

    def option_superset(
        self, instr: Instruction, clusters: list[int]
    ) -> list[tuple[int, int]]:
        """Every option :meth:`options` could offer ``instr`` from here on
        down a search, entry shortages aside (see :meth:`entry_shortage`).

        Built from the sticky decisions alone: the L0 plan is left out
        (re-ranking may plan any candidate load again), an undecided set
        may still become 1C or NL0, and a 1C set whose cluster is open may
        still take any cluster.  Side-effect free, unlike :meth:`options`.
        """
        uid = instr.uid
        kind = self._kind[uid]
        if kind == _PREFETCH_OR_INVAL:
            return [(c, self._store_latency) for c in clusters]
        state = self.sets.get(uid)
        pinned = (
            state.cluster
            if state is not None and state.scheme is CoherenceScheme.ONE_CLUSTER
            else None
        )
        if kind == _STORE:
            if pinned is not None:
                return [(pinned, self._store_latency)]
            return [(c, self._store_latency) for c in clusters]
        l1_options = [(c, self._l1_latency) for c in clusters]
        if uid not in self._candidates or (
            state is not None and state.scheme is CoherenceScheme.NL0
        ):
            return l1_options
        if pinned is not None:
            return [(pinned, self._l0_latency)] + l1_options
        return [(c, self._l0_latency) for c in clusters] + l1_options

    def entry_shortage(self, uid: int, cluster: int, latency: int) -> bool:
        """True when ``cluster`` lacks the entries an L0 option of load
        ``uid`` at ``latency`` needs.  ``free`` only falls deeper in a
        search, so such an option stays out of reach there.  Stores never
        take entries, although their latency equals the L0 one, and an L0
        latency equal to the L1 one is always offered as an L1 option.
        """
        return (
            latency == self._l0_latency != self._l1_latency
            and self._kind[uid] == _LOAD
            and self.free[cluster] < self.ENTRIES_PER_STREAM
        )

    # ------------------------------------------------------------------
    # Figure 4 — commitment bookkeeping (➑ ➒ ➓)
    # ------------------------------------------------------------------

    def _mark_related(self, instr: Instruction, op: PlacedOp, engine) -> None:
        """➑: recommend clusters for related strided loads.

        A load placed with the L0 latency in cluster c recommends cluster
        ``(c + Δ) mod N`` to every unscheduled candidate load of the same
        array and stride whose element offset differs by Δ — unrolled
        copies land in consecutive clusters (interleaved mapping) and
        same-subblock loads share a cluster.
        """
        pattern = instr.pattern
        assert pattern is not None
        if not pattern.is_strided:
            return
        n = self.config.n_clusters
        for uid in sorted(self.l0_planned):
            if uid == instr.uid or uid in engine.placed:
                continue
            other = self._instr[uid]
            other_pattern = other.pattern
            assert other_pattern is not None
            if (
                not other_pattern.is_strided
                or other_pattern.array.name != pattern.array.name
                or other_pattern.stride != pattern.stride
            ):
                continue
            delta = other_pattern.offset - pattern.offset
            if abs(pattern.stride) == 1:
                # Sequential streams share subblocks: keep them together.
                self.recommended.setdefault(uid, op.cluster)
            elif abs(pattern.stride) == self.loop.unroll_factor:
                self.recommended.setdefault(uid, (op.cluster + delta) % n)
            elif delta == 0:
                self.recommended.setdefault(uid, op.cluster)

    def _reassign_latencies(self, engine: "ClusterScheduler") -> None:
        """➓: re-rank unscheduled candidates by slack against free entries."""
        if self.unbounded or self.all_candidates:
            return
        nl0_members = {
            uid
            for uid, state in self.sets.items()
            if state.scheme is CoherenceScheme.NL0
        }
        unscheduled = [
            uid
            for uid in self.candidate_loads
            if uid not in engine.placed and uid not in nl0_members
        ]
        if not unscheduled:
            return
        nfree = int(self._total_free()) // self.ENTRIES_PER_STREAM
        slack = self._slack_at(engine.ddg, self._ii)
        ranked = sorted(unscheduled, key=lambda u: (slack[u], u))
        keep = set(ranked[:nfree])
        for uid in unscheduled:
            if uid in keep:
                self.l0_planned.add(uid)
            else:
                self.l0_planned.discard(uid)

    def committed(
        self, instr: Instruction, op: PlacedOp, engine: "ClusterScheduler"
    ) -> bool:
        kind = self._kind[instr.uid]
        state = self.sets.get(instr.uid)
        if kind == _LOAD:
            if op.latency == self._l0_latency:
                if not self.unbounded:
                    self.free[op.cluster] -= self.ENTRIES_PER_STREAM
                if (
                    state is not None
                    and state.scheme is CoherenceScheme.ONE_CLUSTER
                    and state.cluster is None
                ):
                    state.cluster = op.cluster
                    self.decisions += 1
                if state is not None:
                    state.l0_loads.add(instr.uid)
                self._mark_related(instr, op, engine)
            else:
                self.l0_planned.discard(instr.uid)
            self._reassign_latencies(engine)
            return True
        if kind == _STORE:
            if (
                state is not None
                and state.scheme is CoherenceScheme.ONE_CLUSTER
                and state.cluster is None
            ):
                state.cluster = op.cluster
                self.decisions += 1
            if state is not None and state.scheme is CoherenceScheme.PSR:
                return self._place_replicas(instr, op, engine)
        return True

    def ejected(self, op: PlacedOp, engine: "ClusterScheduler") -> None:
        """Refund buffer entries when the engine ejects an L0 load.

        Set-level state (1C cluster choice, recommendations) is left as
        is: it remains a valid — merely possibly suboptimal — constraint
        for the re-placement.
        """
        uid = op.instr.uid
        if self._kind[uid] == _LOAD and op.latency == self._l0_latency:
            if not self.unbounded:
                self.free[op.cluster] += self.ENTRIES_PER_STREAM
            self.l0_planned.add(uid)
            state = self.sets.get(uid)
            if state is not None:
                state.l0_loads.discard(uid)

    # ------------------------------------------------------------------
    # Partial store replication
    # ------------------------------------------------------------------

    def _place_replicas(
        self, store: Instruction, op: PlacedOp, engine: "ClusterScheduler"
    ) -> bool:
        """Place non-primary store instances in every other cluster.

        Each replica needs a MEM slot at the primary's cycle; the store
        address is broadcast on a bus early enough to arrive by then.
        """
        mrt = engine.mrt
        assert mrt is not None
        ii = engine.current_ii
        taken: list[tuple[int, int]] = []
        new_replicas: list[PlacedOp] = []
        for cluster in range(self.config.n_clusters):
            if cluster == op.cluster:
                continue
            if not mrt.fu_can_place(op.start, FUClass.MEM, cluster):
                for cycle, c in taken:
                    mrt.fu_remove(cycle, FUClass.MEM, c)
                return False
            mrt.fu_place(op.start, FUClass.MEM, cluster)
            taken.append((op.start, cluster))
            new_replicas.append(
                PlacedOp(
                    instr=store,
                    cluster=cluster,
                    start=op.start,
                    latency=op.latency,
                    is_primary=False,
                    replica_of=store.uid,
                )
            )
        bus_cycle = None
        deadline = op.start - self.config.bus_latency
        for cycle in range(deadline, deadline - ii, -1):
            if mrt.bus_can_place(cycle):
                bus_cycle = cycle
                break
        if bus_cycle is None:
            for cycle, c in taken:
                mrt.fu_remove(cycle, FUClass.MEM, c)
            return False
        mrt.bus_place(bus_cycle)
        self.replica_comms.append(
            PlacedComm(
                producer_uid=store.uid,
                dst_cluster=-1,  # broadcast
                src_cluster=op.cluster,
                start=bus_cycle,
                latency=self.config.bus_latency,
            )
        )
        self.replicas.extend(new_replicas)
        return True

    # ------------------------------------------------------------------
    # Step 4: hint assignment
    # ------------------------------------------------------------------

    def _interleaved_groups(self, schedule: ModuloSchedule) -> list[list[PlacedOp]]:
        """Complete unrolled load groups whose placement matches interleaving."""
        n = self.config.n_clusters
        if self.loop.unroll_factor != n:
            return []
        by_origin: dict[int, list[PlacedOp]] = {}
        for op in schedule.placed.values():
            if op.instr.is_load and op.latency == self._l0_latency:
                by_origin.setdefault(op.instr.origin, []).append(op)
        groups: list[list[PlacedOp]] = []
        for members in by_origin.values():
            if len(members) != n:
                continue
            members.sort(key=lambda o: o.instr.copy_index)
            patterns = [m.instr.pattern for m in members]
            if any(p is None or not p.is_strided for p in patterns):
                continue
            strides = {p.stride for p in patterns}
            if len(strides) != 1 or abs(strides.pop()) != n:
                continue
            base = members[0]
            base_pattern = base.instr.pattern
            assert base_pattern is not None
            consistent = True
            for member in members[1:]:
                mp = member.instr.pattern
                assert mp is not None
                delta = mp.offset - base_pattern.offset
                if member.cluster != (base.cluster + delta) % n:
                    consistent = False
                    break
            if consistent:
                groups.append(members)
        return groups

    def _seq_possible(self, schedule: ModuloSchedule, op: PlacedOp) -> bool:
        """SEQ_ACCESS needs the cluster's L1 bus free the cycle after issue."""
        if schedule.ii == 1:
            return False  # the next cycle re-issues this very load
        next_row = (op.start + 1) % schedule.ii
        return schedule.mem_busy(op.cluster, next_row) == 0

    def finalize(
        self,
        schedule: ModuloSchedule,
        ddg: DDG,
        mrt: ModuloReservationTable,
        engine: "ClusterScheduler",
    ) -> None:
        schedule.replicas.extend(self.replicas)
        schedule.comms.extend(self.replica_comms)

        interleaved_groups = self._interleaved_groups(schedule)
        interleaved_uids = {
            op.instr.uid for group in interleaved_groups for op in group
        }

        explicit_prefetch: list[PlacedOp] = []
        for op in schedule.placed.values():
            instr = op.instr
            if not instr.is_memory:
                continue
            if instr.is_load:
                if op.latency != self._l0_latency:
                    op.hints = HintBundle(access=AccessHint.NO_ACCESS)
                    continue
                access = (
                    AccessHint.SEQ_ACCESS
                    if self._seq_possible(schedule, op)
                    else AccessHint.PAR_ACCESS
                )
                mapping = (
                    MapHint.INTERLEAVED
                    if instr.uid in interleaved_uids
                    else MapHint.LINEAR
                )
                prefetch, needs_explicit = self._prefetch_plan(
                    instr, mapping
                )
                op.hints = HintBundle(
                    access=access,
                    mapping=mapping,
                    prefetch=prefetch,
                    prefetch_distance=self.prefetch_distance,
                )
                if needs_explicit:
                    explicit_prefetch.append(op)
            elif instr.is_store:
                op.hints = self._store_hints(instr)

        # Redundant-prefetch suppression: in an interleaved group only the
        # first load in final schedule order keeps its prefetch hint.
        for group in interleaved_groups:
            first = min(group, key=lambda o: o.start)
            for member in group:
                if member is not first:
                    member.hints = member.hints.replace(prefetch=PrefetchHint.NONE)

        for op in schedule.replicas:
            op.hints = HintBundle(access=AccessHint.PAR_ACCESS)

        self._insert_explicit_prefetches(schedule, mrt, explicit_prefetch)

    def _prefetch_plan(
        self, instr: Instruction, mapping: MapHint
    ) -> tuple[PrefetchHint, bool]:
        """(automatic prefetch hint, needs explicit software prefetch)."""
        pattern = instr.pattern
        assert pattern is not None
        if not pattern.is_strided or pattern.stride == 0:
            return PrefetchHint.NONE, False
        stride_class = classify(instr, self.loop.unroll_factor)
        direction = (
            PrefetchHint.POSITIVE if pattern.stride > 0 else PrefetchHint.NEGATIVE
        )
        if mapping is MapHint.INTERLEAVED:
            return direction, False
        if stride_class is StrideClass.GOOD and abs(pattern.stride) == 1:
            return direction, False
        # "Good" ±N strides that missed interleaved mapping, and all other
        # strides, need explicit prefetch (step 5).
        return PrefetchHint.NONE, True

    def _store_hints(self, instr: Instruction) -> HintBundle:
        state = self.sets.get(instr.uid)
        if state is None:
            return HintBundle(access=AccessHint.NO_ACCESS)
        if state.scheme is CoherenceScheme.ONE_CLUSTER and state.l0_loads:
            return HintBundle(access=AccessHint.PAR_ACCESS)
        if state.scheme is CoherenceScheme.PSR:
            return HintBundle(access=AccessHint.PAR_ACCESS)
        return HintBundle(access=AccessHint.NO_ACCESS)

    # ------------------------------------------------------------------
    # Step 5: explicit software prefetch
    # ------------------------------------------------------------------

    def _insert_explicit_prefetches(
        self,
        schedule: ModuloSchedule,
        mrt: ModuloReservationTable,
        loads: list[PlacedOp],
    ) -> None:
        if not loads:
            return
        ii = schedule.ii
        uid_counter = count(max(self._instr) + 1)
        for load in loads:
            pattern = load.instr.pattern
            assert pattern is not None
            row = None
            for candidate in range(ii):
                if mrt.fu_can_place(candidate, FUClass.MEM, load.cluster):
                    row = candidate
                    break
            if row is None:
                continue  # no free slot: the paper drops the prefetch too
            start = load.start - ((load.start - row) % ii)
            if start < 0:
                start += ii
            gap = load.start - start
            lookahead = max(
                self.prefetch_distance,
                -(-(self.config.l1_latency + 1 - gap) // ii),
            )
            mrt.fu_place(row, FUClass.MEM, load.cluster)
            pf_instr = Instruction(
                uid=next(uid_counter),
                opcode=Opcode.PREFETCH,
                dest=None,
                srcs=(),
                pattern=pattern,
                tag=f"pf_{load.instr.tag or load.instr.uid}",
            )
            schedule.prefetches.append(
                PlacedPrefetch(
                    instr=pf_instr,
                    cluster=load.cluster,
                    start=start,
                    distance=lookahead,
                    covers_uid=load.instr.uid,
                )
            )
