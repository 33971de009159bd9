"""Exact modulo scheduling: CP/branch-and-bound over the Roorda variables.

The heuristic engine (:class:`~repro.scheduler.engine.ClusterScheduler`)
iterates the II upward from MII and *hopes* SMS ordering plus ejection
finds a placement; nothing certifies that the II it settles on is
minimal.  This module adds the missing oracle: a complete backtracking
search over the decision variables of Roorda-style optimal software
pipelining — per instruction a kernel row, stage and cluster (folded
into one absolute start time) plus the bus placement of every
cross-cluster register transfer.  The formulation is *parametric in the
machine description* (Witterauf et al.'s symbolic-compilation argument):
cluster count, FU mix, latencies, bus count and the memory policy's
(cluster, latency) options all enter through the same
``MachineConfig``/``MemoryPolicy`` objects the heuristic uses, so one
searcher covers every cluster/L0 variant without per-config models.

Search strategy
---------------

* **SMS first.**  The heuristic schedule is computed up front; it is
  simultaneously the fallback result, the upper bound that terminates
  the deepening loop, and the span hint that sizes the stage horizon.
  ``MII <= II(exact) <= II(SMS)`` therefore holds *by construction*.
* **II deepening.**  For each candidate ``ii`` in
  ``[MII, II(SMS) - 1]`` (ascending), run a depth-first search; the
  first ``ii`` admitting a schedule is optimal provided every smaller
  ``ii`` was fully refuted (no budget exhaustion).
* **Anchored windows.**  Nodes are placed in SMS priority order (every
  node after the first of its weakly-connected component has a placed
  DDG neighbour).  A component's first node is anchored to ``ii``
  consecutive start cycles — any schedule can be shifted by a multiple
  of ``ii`` without changing rows, resources or dependences, so this
  loses no generality.  Every other node's window comes from its placed
  neighbours, clipped to ``anchor ± horizon``.
* **Budget / fallback.**  The search charges one unit per placement
  trial; when ``node_budget`` is exhausted the searcher abandons the
  deepening loop and returns the SMS schedule, marked ``fallback`` in
  ``schedule.meta``.

Exactness caveats (all recorded in ``meta`` where they matter):

* Optimality is relative to the stage horizon (``max_stages``), exactly
  as in Roorda's fixed-stage SMT formulation.  The default horizon
  covers the SMS span plus two extra stages.
* Bus rows for a needed transfer are taken greedily (earliest free
  slot), so completeness assumes buses are not the binding resource —
  on the paper's 4-bus machine they never are for these kernels.
* Stateful memory policies (the L0 candidate/coherence protocol) are
  driven through the same ``begin_attempt``/``options``/``committed``/
  ``ejected`` protocol as the heuristic engine, so the search is exact
  over the options the policy offers at each step, not over every
  conceivable candidate assignment.  Partial-store-replication
  placements cannot be backtracked through the policy protocol, so
  ``allow_psr`` compiles fall straight back to SMS.

The result is a plain :class:`ModuloSchedule` whose ``meta`` dict
records ``scheduler``, ``mii``, ``ii_sms``, ``improved``,
``proved_optimal``, ``fallback`` and ``nodes_explored`` — the eval
``schedcompare`` mode and the differential oracle tests read these.
"""

from __future__ import annotations

from ..ir.ddg import DDG, DepKind
from ..ir.stride import is_candidate
from ..machine.config import ArchKind, MachineConfig
from .engine import NO_FU, ClusterScheduler
from .mii import compute_mii
from .mrt import ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp
from .sms import sms_order

#: Default number of placement trials before the search gives up and
#: falls back to the SMS schedule.  A trial costs ~13.5 us (traced
#: schedcompare, 13.3 s over 982,464 trials on a 2-core x86 box, Python
#: 3.11; ~35 us there with a dict-keyed reservation table and
#: per-trial enum lookups), so the default bounds one compile's search
#: to under a second.
DEFAULT_NODE_BUDGET = 60_000


class BudgetExhausted(Exception):
    """Raised internally when the node budget runs out mid-search."""


class ExactScheduler(ClusterScheduler):
    """Branch-and-bound exact scheduler; falls back to SMS on budget.

    Subclasses the heuristic engine purely for its machinery — the
    per-compile node tables, bus-slot planning and final normalisation;
    :meth:`schedule` is replaced wholesale by the deepening search.
    """

    def __init__(
        self,
        ddg: DDG,
        config: MachineConfig,
        policy: MemoryPolicy,
        *,
        node_budget: int = DEFAULT_NODE_BUDGET,
        max_stages: int | None = None,
    ) -> None:
        super().__init__(ddg, config, policy)
        self.node_budget = node_budget
        self.max_stages = max_stages
        self.nodes_explored = 0
        # Lower-bound load latencies for MII/ASAP/ordering purposes: the
        # smallest latency any (cluster, latency) option could assign.
        # Computed once, while the policy is still pristine.
        self._floor: dict[int, int] = {
            instr.uid: self._latency_floor(instr.uid)
            for instr in self.loop.body
            if instr.is_load
        }
        # Weakly-connected DDG components (anchoring is per component).
        self._comp = self._components()
        self._self_edges = {
            uid: [e for e in ddg.succs[uid] if e.dst == uid] for uid in ddg.nodes
        }

    # ------------------------------------------------------------------
    # Top level: deepening loop around the SMS baseline
    # ------------------------------------------------------------------

    def schedule(self) -> ModuloSchedule:
        mii = compute_mii(self.loop, self.ddg, self.config, self.policy.planned_latency)
        baseline = ClusterScheduler.schedule(self)
        # A stateful policy (the L0 protocol) makes option enumeration
        # path-dependent: a refuted II may still be feasible under option
        # sequences the protocol no longer offers, so optimality proofs
        # are only claimed when the policy declares its options pure.
        search_exact = bool(getattr(self.policy, "SEARCH_EXACT", False))
        meta = {
            "scheduler": "exact",
            "mii": mii,
            "ii_sms": baseline.ii,
            "improved": False,
            "proved_optimal": False,
            "fallback": False,
            "search_exact": search_exact,
            "nodes_explored": 0,
        }
        if getattr(self.policy, "allow_psr", False):
            # PSR replica placement mutates policy/MRT state that the
            # committed/ejected protocol cannot roll back; searching
            # through it would corrupt the reservation table.
            meta["fallback"] = True
            meta["reason"] = "psr-unsupported"
            baseline.meta.update(meta)
            return baseline
        if baseline.ii <= mii:
            meta["proved_optimal"] = True
            baseline.meta.update(meta)
            return baseline

        self.nodes_explored = 0
        exhausted = False
        found: ModuloSchedule | None = None
        for ii in range(mii, baseline.ii):
            try:
                found = self._search(ii, span_hint=baseline.span)
            except BudgetExhausted:
                exhausted = True
                break
            if found is not None:
                if found.validate(self.ddg):
                    # Defensive: a schedule that fails re-validation is a
                    # searcher bug; never hand it to the simulator.
                    found = None
                    exhausted = True
                break
        meta["nodes_explored"] = self.nodes_explored
        if found is not None:
            meta["improved"] = True
            # Optimal iff every smaller II was *completely* refuted.
            meta["proved_optimal"] = search_exact or found.ii <= mii
            found.meta.update(meta)
            return found
        meta["fallback"] = exhausted
        meta["proved_optimal"] = not exhausted and search_exact
        baseline.meta.update(meta)
        return baseline

    # ------------------------------------------------------------------
    # One complete search at a fixed II
    # ------------------------------------------------------------------

    def _search(self, ii: int, span_hint: int) -> ModuloSchedule | None:
        asap = self.ddg.earliest_times(ii, self._floor)
        if asap is None:
            return None  # ii below RecMII even under floor latencies
        self.mrt = ModuloReservationTable(ii, self.config)
        self.current_ii = ii
        self.placed = {}
        self.comms = []
        self._comm_index = {}
        self._asap = asap
        self.policy.begin_attempt(ii, self)

        stages = self.max_stages
        if stages is None:
            span = max(span_hint, max(asap.values()) + 1)
            stages = -(-span // ii) + 2
        self._horizon = ii * max(1, stages)
        self._anchor: dict[int, int] = {}

        # No FU-demand pruning: the deepening loop starts at MII >= ResMII,
        # so every class already has enough issue slots at this II.

        order = [uid for uid, _ in sms_order(self.ddg, ii, self._floor)]
        if not self._dfs(order, 0, ii):
            return None
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

    def _dfs(self, order: list[int], depth: int, ii: int) -> bool:
        if depth == len(order):
            return True
        uid = order[depth]
        instr = self.ddg.instruction(uid)
        clusters = list(range(self.config.n_clusters))
        is_memory = self._is_memory[uid]
        if is_memory:
            options = self.policy.options(instr, clusters)
        else:
            latency = self._latency[uid]
            options = [(c, latency) for c in clusters]
        comp = self._comp[uid]
        tried: set[tuple[int, int]] = set()
        for cluster, latency in options:
            if (cluster, latency) in tried:
                continue
            tried.add((cluster, latency))
            if not self._self_edges_feasible(uid, latency, ii):
                continue
            bounds = self._bounds(instr, cluster, latency, ii, comp)
            if bounds is None:
                continue
            lo, hi = bounds
            for start in range(lo, hi + 1):
                self._charge()
                applied = self._apply(instr, cluster, latency, start, ii)
                if applied is None:
                    continue
                op, plan, replaced = applied
                anchored = comp not in self._anchor
                if anchored:
                    self._anchor[comp] = start
                committed = True
                if is_memory:
                    committed = self.policy.committed(instr, op, self)
                if committed:
                    if self._dfs(order, depth + 1, ii):
                        return True
                    if is_memory:
                        self.policy.ejected(op, self)
                if anchored:
                    del self._anchor[comp]
                self._revert(op, plan, replaced)
        return False

    # ------------------------------------------------------------------
    # Placement bookkeeping (fully reversible, unlike the engine's)
    # ------------------------------------------------------------------

    def _apply(
        self, instr, cluster: int, latency: int, start: int, ii: int
    ) -> tuple[PlacedOp, list[PlacedComm], list] | None:
        assert self.mrt is not None
        fu = self._fu[instr.uid]
        if fu != NO_FU and not self.mrt.can_reserve(start, fu, cluster):
            return None
        plan = self._plan_comms(instr, cluster, start, latency, ii)
        if plan is None:
            return None
        if fu != NO_FU:
            self.mrt.reserve(start, fu, cluster)
        replaced: list[tuple[tuple[int, int], PlacedComm | None]] = []
        for comm in plan:
            self.mrt.bus_place(comm.start)
            self.comms.append(comm)
            key = (comm.producer_uid, comm.dst_cluster)
            replaced.append((key, self._comm_index.get(key)))
            self._comm_index[key] = comm
        op = PlacedOp(instr=instr, cluster=cluster, start=start, latency=latency)
        self.placed[instr.uid] = op
        return op, plan, replaced

    def _revert(self, op: PlacedOp, plan: list[PlacedComm], replaced: list) -> None:
        assert self.mrt is not None
        del self.placed[op.instr.uid]
        for key, old in reversed(replaced):
            if old is None:
                self._comm_index.pop(key, None)
            else:
                self._comm_index[key] = old
        for comm in plan:
            self.mrt.bus_remove(comm.start)
            self.comms.remove(comm)
        fu = self._fu[op.instr.uid]
        if fu != NO_FU:
            self.mrt.release(op.start, fu, op.cluster)

    # ------------------------------------------------------------------
    # Windows, pruning and budgets
    # ------------------------------------------------------------------

    def _bounds(
        self, instr, cluster: int, latency: int, ii: int, comp: int
    ) -> tuple[int, int] | None:
        """Complete start window for ``instr`` under current placements."""
        anchor = self._anchor.get(comp)
        if anchor is None:
            # First node of its component: any schedule can be shifted by
            # a multiple of II, so II consecutive candidates suffice.
            base = self._asap[instr.uid] if self._asap is not None else 0
            return base, base + ii - 1
        bus = self.config.bus_latency
        lo = anchor - self._horizon
        hi = anchor + self._horizon
        for edge in self.ddg.preds[instr.uid]:
            if edge.src == instr.uid:
                continue
            src_op = self.placed.get(edge.src)
            if src_op is None:
                continue
            lat = edge.fixed_latency
            if lat is None:
                lat = src_op.latency
            low = src_op.start + lat - ii * edge.distance
            if edge.kind is DepKind.REG and src_op.cluster != cluster:
                # Optimistic: a fresh transfer can arrive at produce+bus;
                # _plan_comms verifies an actual bus slot exists.
                low += bus
            if low > lo:
                lo = low
        for edge in self.ddg.succs[instr.uid]:
            if edge.dst == instr.uid:
                continue
            dst_op = self.placed.get(edge.dst)
            if dst_op is None:
                continue
            lat = edge.fixed_latency
            if lat is None:
                lat = latency
            high = dst_op.start + ii * edge.distance - lat
            if edge.kind is DepKind.REG and dst_op.cluster != cluster:
                high -= bus
            if high < hi:
                hi = high
        if hi < lo:
            return None
        return lo, hi

    def _self_edges_feasible(self, uid: int, latency: int, ii: int) -> bool:
        for edge in self._self_edges[uid]:
            lat = edge.fixed_latency if edge.fixed_latency is not None else latency
            if lat > ii * edge.distance:
                return False
        return True

    def _charge(self) -> None:
        self.nodes_explored += 1
        if self.nodes_explored > self.node_budget:
            raise BudgetExhausted

    # ------------------------------------------------------------------
    # Construction-time helpers
    # ------------------------------------------------------------------

    def _latency_floor(self, uid: int) -> int:
        """Smallest latency any option could schedule load ``uid`` with."""
        instr = self.ddg.instruction(uid)
        if self.config.arch is ArchKind.L0 and is_candidate(instr):
            return min(self.config.l0_latency, self.config.l1_latency)
        return self.policy.planned_latency(uid)

    def _components(self) -> dict[int, int]:
        """Map uid -> weakly-connected component id of the DDG."""
        parent = {uid: uid for uid in self.ddg.nodes}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for edge in self.ddg.edges:
            a, b = find(edge.src), find(edge.dst)
            if a != b:
                parent[a] = b
        return {uid: find(uid) for uid in self.ddg.nodes}
