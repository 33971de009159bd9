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

from ..ir.ddg import DDG
from ..ir.stride import is_candidate
from ..machine.config import ArchKind, MachineConfig
from .engine import NO_FU, ClusterScheduler
from .mii import compute_mii
from .mrt import ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp
from .sms import sms_order

#: Default number of placement trials before the search gives up and
#: falls back to the SMS schedule.  A trial costs ~5.6 us (traced
#: schedcompare: the exact pass took 5.5 s over 982,464 trials, SMS
#: baselines included, on a 2-core x86 box, Python 3.11; ~8.6 us there
#: with each option's window re-derived from ``Edge`` objects), so the
#: default bounds one compile's search to about a third of a second.
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
        if node_budget < 1 or (max_stages is not None and max_stages < 1):
            raise ValueError(
                f"node_budget and max_stages must be >= 1, got {node_budget} "
                f"and {max_stages}"
            )
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
        #: ``(distance, fixed latency)`` of each self edge, for the nodes
        #: that have one.
        self._self_edges: dict[int, list[tuple[int, int | None]]] = {}
        for edge in ddg.edges:
            if edge.src == edge.dst:
                self._self_edges.setdefault(edge.src, []).append(
                    (edge.distance, edge.fixed_latency)
                )

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
        self._horizon = ii * stages
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
            # A policy may offer an option twice (say, an L0 latency equal
            # to the L1 one); try each once, in first-offered order.
            options = list(dict.fromkeys(self.policy.options(instr, clusters)))
        else:
            latency = self._latency[uid]
            options = [(c, latency) for c in clusters]
        comp = self._comp[uid]
        # Every deeper placement is reverted before the next option is
        # tried, so the anchor and the placed neighbours are the same for
        # all of this node's options: gather their window terms once.
        anchor = self._anchor.get(comp)
        anchored = anchor is None
        lo, hi, pred_terms, succ_terms = self._window_terms(uid, anchor, ii)
        bus = self.config.bus_latency
        self_edges = self._self_edges.get(uid)
        for cluster, latency in options:
            if self_edges and not self._self_edges_feasible(self_edges, latency, ii):
                continue
            first = lo
            for low, src_cluster in pred_terms:
                if src_cluster != cluster:
                    low += bus
                if low > first:
                    first = low
            last = hi
            for high, variable, dst_cluster in succ_terms:
                if variable:
                    high -= latency
                if dst_cluster is not None and dst_cluster != cluster:
                    high -= bus
                if high < last:
                    last = high
            for start in range(first, last + 1):
                # One budget unit per placement trial.
                self.nodes_explored += 1
                if self.nodes_explored > self.node_budget:
                    raise BudgetExhausted
                applied = self._apply(instr, cluster, latency, start, ii)
                if applied is None:
                    continue
                op, plan, replaced = applied
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
        if plan:
            for comm in plan:
                self.mrt.bus_remove(comm.start)
            # _apply appended the plan last and every deeper placement is
            # already reverted, so the plan is the tail of comms.
            del self.comms[-len(plan) :]
        fu = self._fu[op.instr.uid]
        if fu != NO_FU:
            self.mrt.release(op.start, fu, op.cluster)

    # ------------------------------------------------------------------
    # Windows and pruning
    # ------------------------------------------------------------------

    def _window_terms(
        self, uid: int, anchor: int | None, ii: int
    ) -> tuple[int, int, list, list]:
        """Start-window terms of ``uid`` under the current placements.

        Returns ``(lo, hi, pred_terms, succ_terms)``.  ``lo``/``hi`` fold
        every bound that is the same for all options: the anchor window
        and the placed neighbours' non-REG edges with a fixed latency.
        ``pred_terms`` holds ``(low, producer cluster)`` per placed REG
        predecessor, and ``succ_terms`` ``(high, takes the option's
        latency, consumer cluster or None)`` per other placed successor
        edge; ``_dfs`` adds the bus latency to a REG term whose cluster
        differs from the option's, and subtracts the option's latency
        from a successor term without a fixed latency.
        """
        pred_terms: list[tuple[int, int]] = []
        succ_terms: list[tuple[int, bool, int | None]] = []
        if anchor is None:
            # First node of its component: any schedule can be shifted by
            # a multiple of II, so II consecutive candidates suffice.
            lo = self._asap[uid]
            return lo, lo + ii - 1, pred_terms, succ_terms
        lo = anchor - self._horizon
        hi = anchor + self._horizon
        placed = self.placed
        for src, distance, fixed, is_reg in self._preds[uid]:
            src_op = placed.get(src)
            if src_op is None:
                continue
            low = src_op.start + (src_op.latency if fixed is None else fixed)
            low -= ii * distance
            if is_reg:
                # Optimistic: a fresh transfer can arrive at produce+bus;
                # _plan_comms verifies an actual bus slot exists.
                pred_terms.append((low, src_op.cluster))
            elif low > lo:
                lo = low
        for dst, distance, fixed, is_reg in self._succs[uid]:
            dst_op = placed.get(dst)
            if dst_op is None:
                continue
            high = dst_op.start + ii * distance
            if fixed is not None:
                high -= fixed
                if not is_reg:
                    if high < hi:
                        hi = high
                    continue
            succ_terms.append((high, fixed is None, dst_op.cluster if is_reg else None))
        return lo, hi, pred_terms, succ_terms

    @staticmethod
    def _self_edges_feasible(
        self_edges: list[tuple[int, int | None]], latency: int, ii: int
    ) -> bool:
        for distance, fixed in self_edges:
            if (latency if fixed is None else fixed) > ii * distance:
                return False
        return True

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
