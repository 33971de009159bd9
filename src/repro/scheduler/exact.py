"""Exact modulo scheduling: CP/branch-and-bound over the Roorda variables.

The heuristic engine (:class:`~repro.scheduler.engine.ClusterScheduler`)
iterates the II upward from MII and *hopes* SMS ordering plus ejection
finds a placement; nothing certifies that the II it settles on is
minimal.  This module adds the missing oracle: a complete backtracking
search over the decision variables of Roorda-style optimal software
pipelining — per instruction a kernel row, stage and cluster (folded
into one absolute start time) plus the bus placement of every
cross-cluster register transfer.  The formulation is *parametric in the
machine description* (Witterauf et al.'s symbolic-compilation argument).
Cluster count, FU mix, latencies and bus count enter through the
``MachineConfig``; everything about the memory system enters through
the ``MemoryPolicy``: its (cluster, latency) options and their
superset, which also gives each load's latency floor, and its
``SEARCH_EXACT`` and ``allow_psr`` declarations.  The search never asks
which architecture it is scheduling for, so one searcher covers every
cluster/L0 variant without per-config models, and its optimality claims
rest on the policy's declarations alone.

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
* **Sound pruning.**  Three devices skip subtrees that hold no
  schedule, and nothing else.  The search tries the remaining
  placements in the same order, so under a stateless policy it finds
  the same first schedule as plain backtracking would:

  - *path bounds*: every start is also bounded by the longest DDG
    paths (floor latencies) from and to each placed node, and from
    every node of the component, which lies within ``anchor ±
    horizon``;
  - *forward checking*: after each placement, every unplaced node with
    a placed neighbour must keep a *support* — an option from the
    policy's :meth:`option_superset` and a start in its window whose FU
    row has a free slot — or the placement is undone;
  - *conflict-directed backjumping*: a failed subtree returns the set
    of placed nodes (window sources, FU-row holders, transfer owners,
    the loads holding a cluster's L0 entries) that caused the failure,
    and every node outside that set returns it unchanged.

  ``docs/architecture.md`` ("Exact search semantics") gives the
  argument, including why it holds for the sticky L0 protocol.
* **Budget / fallback.**  The search charges one unit per placement
  trial (a start it tries for an option, full FU rows included); when
  ``node_budget`` is exhausted the searcher abandons the deepening loop
  and returns the SMS schedule, marked ``fallback`` in
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
from ..machine.config import MachineConfig
from .engine import NO_FU, ClusterScheduler
from .mrt import ModuloReservationTable
from .policies import MemoryPolicy
from .schedule import ModuloSchedule, PlacedComm, PlacedOp
from .sms import order_by_slack

#: Default number of placement trials before the search gives up and
#: falls back to the SMS schedule.  A trial costs ~11 us on average
#: (schedcompare: 0.65 s of search over 57,414 trials, SMS baselines
#: excluded, on a 2-core x86 box, Python 3.11).  The forward check after
#: each placement makes a trial about twice as dear as one of plain
#: chronological backtracking, so the default bounds one compile's
#: search to about two thirds of a second.
DEFAULT_NODE_BUDGET = 60_000

#: Unbounded start bound, and "no path" in the longest-path tables (any
#: value at or below ``NEG_HALF`` is one).
INF = 1 << 50
NEG = -INF
NEG_HALF = NEG // 2


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
        if policy.decisions:
            # The floors below need the superset no decision has narrowed.
            raise ValueError("the exact search needs a policy without sticky decisions")
        super().__init__(ddg, config, policy)
        self.node_budget = node_budget
        self.max_stages = max_stages
        self.nodes_explored = 0
        # Lower-bound latencies for MII/ASAP/ordering and the path bounds:
        # for a load the smallest latency any (cluster, latency) option
        # could assign, computed once while the policy is still pristine;
        # for any other node its fixed latency.
        self._floor: dict[int, int] = {
            instr.uid: (
                self._latency_floor(instr.uid)
                if instr.is_load
                else config.latency_of(instr.opcode)
            )
            for instr in self.loop.body
        }
        #: The options of every node that is not a memory op.
        self._plain_options = {
            uid: [(c, latency) for c in range(config.n_clusters)]
            for uid, latency in self._latency.items()
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
        mii = self._mii()
        baseline = self._schedule_from(mii)
        # A stateful policy (the L0 protocol) makes option enumeration
        # path-dependent: a refuted II may still be feasible under option
        # sequences the protocol no longer offers, so optimality proofs
        # are only claimed when the policy declares its options pure.
        search_exact = self.policy.SEARCH_EXACT
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
        if self.policy.allow_psr:
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
        paths = self.ddg.asap_slack(ii, self._floor)
        if paths is None:
            return None  # ii below RecMII even under floor latencies
        asap = paths[0]
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

        # No FU-demand pruning: the deepening loop starts at MII >= ResMII,
        # so every class already has enough issue slots at this II.

        self._prepare([uid for uid, _ in order_by_slack(self.ddg, *paths)], ii)
        if self._descend(0) is not None:
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

    def _prepare(self, order: list[int], ii: int) -> None:
        """Build the search state for placing ``order`` at ``ii``.

        Every table is indexed by position in ``order``, which is also the
        depth at which the search places that node, and a conflict set is
        a bit mask over those depths.  A node's start bounds stay at
        ``-INF``/``INF`` until its component is anchored.
        """
        n = len(order)
        pos = {uid: i for i, uid in enumerate(order)}
        self._order = order
        self._pos = pos
        self._down, self._up, self._span = self._path_tables(order, pos, ii)
        self._anchor = {}
        #: Start bounds that hold for every option: ``lo`` from below, and
        #: from above ``hi_fixed`` and ``hi_var`` less the node's own
        #: latency, each with the mask of the placed node that set it.
        self._lo, self._lo_src = [-INF] * n, [0] * n
        self._hi_fixed, self._hi_fixed_src = [INF] * n, [0] * n
        self._hi_var, self._hi_var_src = [INF] * n, [0] * n
        #: ``(values, sources, position, old value, old source)`` per bound
        #: change, undone on backtracking.
        self._trail: list[tuple[list[int], list[int], int, int, int]] = []
        #: Placed DDG neighbours per node: the frontier is every unplaced
        #: node with at least one.
        self._placed_count = [0] * n
        self._neighbour_pos = [
            sorted({pos[o] for o, *_ in self._preds[uid] + self._succs[uid]})
            for uid in order
        ]
        #: Register edges to later positions, as ``(position, produces,
        #: distance, fixed latency)``: ``produces`` when the node at this
        #: position is the edge's producer.
        self._reg_after: list[list[tuple[int, bool, int, int | None]]] = []
        for i, uid in enumerate(order):
            out = [(pos[o], True, d, f) for o, d, f, reg in self._succs[uid] if reg]
            into = [(pos[o], False, d, f) for o, d, f, reg in self._preds[uid] if reg]
            self._reg_after.append([edge for edge in out + into if edge[0] > i])
        #: Depth masks of the placed ops holding each (FU, cluster, row),
        #: of those that own a placed transfer, and of the placed loads
        #: per (cluster, latency).
        n_clusters = self.config.n_clusters
        self._holders = [[[0] * ii for _ in range(n_clusters)] for _ in range(NO_FU)]
        self._comm_owners = 0
        self._loads_at: dict[tuple[int, int], int] = {}
        #: A start each frontier node can still take, as ``(policy
        #: decisions, start, latency, booked row counts, row, capacity,
        #: (uid, cluster, latency) of a memory option or None, cluster)``;
        #: restored on backtracking.
        self._witness: list[tuple | None] = [None] * n
        self._witness_trail: list[tuple[int, tuple | None]] = []

    def _path_tables(self, order: list[int], pos: dict[int, int], ii: int):
        """Longest-path tables of the DDG at ``ii`` under floor latencies.

        Returns ``(down, up, span)``, by position.  ``down[i]`` holds
        ``(j, fixed, var)`` for every later position ``j`` that node ``i``
        reaches: ``fixed`` is the longest path whose first edge has a fixed
        latency, ``var`` the longest one whose first edge takes node ``i``'s
        own latency, less that latency (``NEG`` where there is none).
        ``up[i]`` holds the same for the paths from every later ``j`` into
        ``i``.  ``span[i]`` holds ``(j, into, out_fixed, out_var)`` for every
        later ``j`` of the component: the longest path into ``j`` (at least
        the empty one) and the longest fixed-first and variable-first paths
        out of it.
        """
        n = len(order)
        floor = self._floor
        longest = [[NEG] * n for _ in range(n)]
        fixed_out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        var_out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for edge in self.ddg.edges:
            if edge.src == edge.dst:
                continue
            i, j = pos[edge.src], pos[edge.dst]
            shift = -ii * edge.distance
            if edge.fixed_latency is None:
                var_out[i].append((j, shift))
                weight = floor[edge.src] + shift
            else:
                fixed_out[i].append((j, edge.fixed_latency + shift))
                weight = edge.fixed_latency + shift
            if weight > longest[i][j]:
                longest[i][j] = weight
        for k in range(n):
            row_k = longest[k]
            for i in range(n):
                d_ik = longest[i][k]
                if d_ik > NEG_HALF:
                    longest[i] = [
                        a if a >= b + d_ik else b + d_ik
                        for a, b in zip(longest[i], row_k)
                    ]
        # The empty path (the search only runs where no cycle is positive).
        for i in range(n):
            longest[i][i] = 0

        def first_edge(out: list[tuple[int, int]]) -> list[int]:
            row = [NEG] * n
            for y, weight in out:
                row = [
                    a if a >= b + weight else b + weight
                    for a, b in zip(row, longest[y])
                ]
            return row

        fixed = [first_edge(fixed_out[i]) for i in range(n)]
        var = [first_edge(var_out[i]) for i in range(n)]
        comp = [self._comp[uid] for uid in order]
        down: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        up: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        span: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
        for j in range(n):
            into = max((longest[x][j] for x in range(n) if x != j), default=0)
            out_fixed = max((fixed[j][x] for x in range(n) if x != j), default=NEG)
            out_var = max((var[j][x] for x in range(n) if x != j), default=NEG)
            entry = (j, max(into, 0), max(out_fixed, 0), out_var)
            for i in range(j):
                if comp[i] == comp[j]:
                    span[i].append(entry)
                if fixed[i][j] > NEG_HALF or var[i][j] > NEG_HALF:
                    down[i].append((j, fixed[i][j], var[i][j]))
                if fixed[j][i] > NEG_HALF or var[j][i] > NEG_HALF:
                    up[i].append((j, fixed[j][i], var[j][i]))
        return down, up, span

    def _descend(self, depth: int) -> int | None:
        """Place ``order[depth:]``: None on success, else a conflict set.

        The conflict set masks the depths of placed nodes whose placements
        together leave this subtree without a schedule.  A node missing
        from the set its subtree returns cannot rescue that subtree, so it
        hands the set on without trying its other options
        (conflict-directed backjumping).
        """
        order = self._order
        if depth == len(order):
            return None
        uid = order[depth]
        instr = self.ddg.instruction(uid)
        clusters = list(range(self.config.n_clusters))
        is_memory = self._is_memory[uid]
        policy = self.policy
        below = (1 << depth) - 1
        conflict = 0
        if is_memory:
            # A policy may offer an option twice (say, an L0 latency equal
            # to the L1 one); try each once, in first-offered order.
            options = list(dict.fromkeys(policy.options(instr, clusters)))
            # An option the protocol could offer but did not is charged to
            # the loads holding the entries it lacks, or else to the path.
            offered = set(options)
            for cluster, latency in policy.option_superset(instr, clusters):
                if (cluster, latency) in offered:
                    continue
                if not policy.entry_shortage(uid, cluster, latency):
                    conflict = below
                    break
                conflict |= self._loads_at.get((cluster, latency), 0)
        else:
            options = self._plain_options[uid]
        ii = self.current_ii
        if self._comp[uid] in self._anchor:
            bounds = self._bounds(depth)
        else:
            # First node of its component: any schedule can be shifted by
            # a multiple of II, so II consecutive candidates suffice.
            base = self._asap[uid]
            bounds = (base, 0, base + ii - 1, 0, INF, 0, [], [])
        assert self.mrt is not None
        fu = self._fu[uid]
        if fu != NO_FU:
            booked = self.mrt.fu_booked[fu]
            capacity = self.mrt.fu_capacity[fu]
            holders = self._holders[fu]
        self_edges = self._self_edges.get(uid)
        for cluster, latency in options:
            if self_edges and not self._self_edges_feasible(self_edges, latency, ii):
                continue
            window = self._option_window(bounds, cluster, latency)
            first, first_src, last, last_src = window
            conflict |= first_src | last_src
            if last < first:
                continue
            if fu == NO_FU:
                starts: range | list[int] = range(first, last + 1)
            else:
                # A start on a full row fails before any bookkeeping; its
                # holders are blamed once per row.
                rows, held = booked[cluster], holders[cluster]
                for start in range(first, min(last, first + ii - 1) + 1):
                    if rows[start % ii] >= capacity:
                        conflict |= held[start % ii]
                starts = [s for s in range(first, last + 1) if rows[s % ii] < capacity]
            counted = first - 1
            for start in starts:
                # One budget unit per placement trial: this start and the
                # full-row starts skipped since the last one charged.
                self._charge(start - counted)
                counted = start
                applied = self._apply(instr, cluster, latency, start, ii)
                if applied is None:
                    conflict |= self._comm_blame(uid)
                    continue
                op, plan, replaced = applied
                if is_memory and not policy.committed(instr, op, self):
                    self._revert(op, plan, replaced)
                    conflict |= below
                    continue
                marks = self._push(op, depth, bool(plan))
                wipeout = self._forward_check(depth)
                if wipeout is None:
                    wipeout = self._descend(depth + 1)
                    if wipeout is None:
                        return None
                self._pop(marks, op, depth)
                if is_memory:
                    policy.ejected(op, self)
                self._revert(op, plan, replaced)
                if not wipeout >> depth & 1:
                    return wipeout
                conflict |= wipeout
            self._charge(last - counted)
        return conflict & below

    def _charge(self, trials: int) -> None:
        """Spend ``trials`` budget units; past the budget, stop at exactly
        one unit over it, as if charged one by one."""
        self.nodes_explored += trials
        if self.nodes_explored > self.node_budget:
            self.nodes_explored = self.node_budget + 1
            raise BudgetExhausted

    # ------------------------------------------------------------------
    # Forward checking
    # ------------------------------------------------------------------

    def _forward_check(self, depth: int) -> int | None:
        """None if every frontier node still has a support, else the
        conflict set of the first one that has none.

        A support is a superset option and a start inside the option's
        window whose FU row has a free slot; transfer slots and the
        policy's veto are left out, so a support may not be placeable, but
        a node without one is not.  A node's cached support is re-checked
        first (:meth:`_push` already re-checked its bus terms), and only
        searched for anew when it no longer holds.
        """
        stamp = self.policy.decisions
        count = self._placed_count
        witness = self._witness
        lo, hi_fixed, hi_var = self._lo, self._hi_fixed, self._hi_var
        shortage = self.policy.entry_shortage
        for j in range(depth + 1, len(count)):
            if not count[j]:
                continue
            held = witness[j]
            if held is not None and held[0] == stamp:
                _, start, latency, rows, row, capacity, option, _ = held
                if (
                    lo[j] <= start <= hi_fixed[j]
                    and start <= hi_var[j] - latency
                    and rows[row] < capacity
                    and (option is None or not shortage(*option))
                ):
                    continue
            blame = self._support(j, stamp)
            if blame is not None:
                return blame
        return None

    def _support(self, j: int, stamp: int) -> int | None:
        """Find and cache a support for the node at position ``j``; None
        when found, else the mask of the placed nodes that ruled out every
        option and start."""
        uid = self._order[j]
        ii = self.current_ii
        fu = self._fu[uid]
        is_memory = self._is_memory[uid]
        if is_memory:
            clusters = list(range(self.config.n_clusters))
            options = self.policy.option_superset(self.ddg.instruction(uid), clusters)
            shortage = self.policy.entry_shortage
        else:
            options = self._plain_options[uid]
        if fu != NO_FU:
            booked = self.mrt.fu_booked[fu]
            capacity = self.mrt.fu_capacity[fu]
            holders = self._holders[fu]
        bounds = self._bounds(j)
        blame = 0
        for cluster, latency in options:
            if is_memory and shortage(uid, cluster, latency):
                blame |= self._loads_at.get((cluster, latency), 0)
                continue
            window = self._option_window(bounds, cluster, latency)
            first, first_src, last, last_src = window
            if last - first + 1 < ii:
                # The bounds rule out some rows (or every start).
                blame |= first_src | last_src
            option = (uid, cluster, latency) if is_memory else None
            if fu == NO_FU:
                if first <= last:
                    held = (stamp, first, latency, [0], 0, 1, option, cluster)
                    return self._hold(j, held)
                continue
            rows = booked[cluster]
            for start in range(first, min(last, first + ii - 1) + 1):
                row = start % ii
                if rows[row] < capacity:
                    held = (stamp, start, latency, rows, row, capacity, option, cluster)
                    return self._hold(j, held)
                blame |= holders[cluster][row]
        return blame

    def _hold(self, j: int, witness: tuple) -> None:
        """Cache ``witness`` as the support of position ``j``."""
        self._witness_trail.append((j, self._witness[j]))
        self._witness[j] = witness

    def _bounds(self, j: int) -> tuple:
        """The start bounds of the unplaced node at position ``j``, whose
        component is anchored: the common bounds with their source masks,
        then the bus terms of :meth:`_bus_terms`."""
        return (
            self._lo[j],
            self._lo_src[j],
            self._hi_fixed[j],
            self._hi_fixed_src[j],
            self._hi_var[j],
            self._hi_var_src[j],
            *self._bus_terms(self._order[j]),
        )

    @staticmethod
    def _option_window(
        bounds: tuple, cluster: int, latency: int
    ) -> tuple[int, int, int, int]:
        """``(first, source, last, source)``: the start window of one
        option under :meth:`_bounds`, with the masks of the placed nodes
        that set each end."""
        first, first_src, last, last_src, hi_var, hi_var_src, pred_terms, succ_terms = (
            bounds
        )
        for low, src_cluster, src in pred_terms:
            if src_cluster != cluster and low > first:
                first, first_src = low, src
        if hi_var - latency < last:
            last, last_src = hi_var - latency, hi_var_src
        for high, fixed, dst_cluster, src in succ_terms:
            if dst_cluster != cluster:
                high -= latency if fixed is None else fixed
                if high < last:
                    last, last_src = high, src
        return first, first_src, last, last_src

    # ------------------------------------------------------------------
    # Placement bookkeeping (fully reversible, unlike the engine's)
    # ------------------------------------------------------------------

    def _apply(
        self, instr, cluster: int, latency: int, start: int, ii: int
    ) -> tuple[PlacedOp, list[PlacedComm], list] | None:
        """Place ``instr`` on a row the caller found free; None when a
        transfer finds no bus slot."""
        assert self.mrt is not None
        plan = self._plan_comms(instr, cluster, start, latency, ii)
        if plan is None:
            return None
        fu = self._fu[instr.uid]
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

    def _push(self, op: PlacedOp, depth: int, transfers: bool) -> tuple:
        """Enter a committed placement into the search state; returns what
        :meth:`_pop` needs to take it out again."""
        bit = 1 << depth
        uid = op.instr.uid
        start = op.start
        comp = self._comp[uid]
        anchors = comp not in self._anchor
        marks = (len(self._trail), len(self._witness_trail), self._comm_owners, anchors)
        trail = self._trail
        lo, lo_src = self._lo, self._lo_src
        hi_fixed, hi_fixed_src = self._hi_fixed, self._hi_fixed_src
        hi_var, hi_var_src = self._hi_var, self._hi_var_src
        if anchors:
            # Every node of the component starts within anchor +- horizon,
            # so each path into or out of a node bounds it from there too.
            self._anchor[comp] = start
            low, high = start - self._horizon, start + self._horizon
            for j, into, out_fixed, out_var in self._span[depth]:
                trail.append((lo, lo_src, j, lo[j], lo_src[j]))
                trail.append((hi_fixed, hi_fixed_src, j, hi_fixed[j], hi_fixed_src[j]))
                trail.append((hi_var, hi_var_src, j, hi_var[j], hi_var_src[j]))
                lo[j], lo_src[j] = low + into, bit
                hi_fixed[j], hi_fixed_src[j] = high - out_fixed, bit
                if out_var > NEG_HALF:
                    hi_var[j], hi_var_src[j] = high - out_var, bit
        latency = op.latency
        for j, fixed, var in self._down[depth]:
            var += latency
            bound = start + (fixed if fixed >= var else var)
            if bound > lo[j]:
                trail.append((lo, lo_src, j, lo[j], lo_src[j]))
                lo[j], lo_src[j] = bound, bit
        for j, fixed, var in self._up[depth]:
            bound = start - fixed
            if bound < hi_fixed[j]:
                trail.append((hi_fixed, hi_fixed_src, j, hi_fixed[j], hi_fixed_src[j]))
                hi_fixed[j], hi_fixed_src[j] = bound, bit
            bound = start - var
            if bound < hi_var[j]:
                trail.append((hi_var, hi_var_src, j, hi_var[j], hi_var_src[j]))
                hi_var[j], hi_var_src[j] = bound, bit
        # A support in another cluster than a new register neighbour's must
        # leave room for the transfer; the common bounds do not hold it.
        ii = self.current_ii
        bus = self.config.bus_latency
        witness = self._witness
        for j, produces, distance, fixed in self._reg_after[depth]:
            held = witness[j]
            if held is None or held[7] == op.cluster:
                continue
            if produces:
                edge = latency if fixed is None else fixed
                room = held[1] >= start + edge - ii * distance + bus
            else:
                edge = held[2] if fixed is None else fixed
                room = held[1] <= start + ii * distance - bus - edge
            if not room:
                self._witness_trail.append((j, held))
                witness[j] = None
        count = self._placed_count
        for j in self._neighbour_pos[depth]:
            count[j] += 1
        fu = self._fu[uid]
        if fu != NO_FU:
            self._holders[fu][op.cluster][start % ii] |= bit
        if op.instr.is_load:
            key = (op.cluster, latency)
            self._loads_at[key] = self._loads_at.get(key, 0) | bit
        if transfers:
            self._comm_owners |= bit
        return marks

    def _pop(self, marks: tuple, op: PlacedOp, depth: int) -> None:
        """Undo :meth:`_push` (every deeper push is already undone)."""
        trail_mark, witness_mark, self._comm_owners, anchored = marks
        trail = self._trail
        while len(trail) > trail_mark:
            values, sources, j, value, source = trail.pop()
            values[j], sources[j] = value, source
        witness_trail = self._witness_trail
        witness = self._witness
        while len(witness_trail) > witness_mark:
            j, held = witness_trail.pop()
            witness[j] = held
        count = self._placed_count
        for j in self._neighbour_pos[depth]:
            count[j] -= 1
        uid = op.instr.uid
        keep = ~(1 << depth)
        fu = self._fu[uid]
        if fu != NO_FU:
            self._holders[fu][op.cluster][op.start % self.current_ii] &= keep
        if op.instr.is_load:
            self._loads_at[(op.cluster, op.latency)] &= keep
        if anchored:
            del self._anchor[self._comp[uid]]

    # ------------------------------------------------------------------
    # Conflict terms
    # ------------------------------------------------------------------

    def _bus_terms(self, uid: int) -> tuple[list, list]:
        """Bounds from placed register neighbours in another cluster.

        The common bounds already hold every edge's latency; a REG edge
        adds the bus latency when the option's cluster differs from the
        neighbour's.  Returns ``(pred_terms, succ_terms)``: ``(low,
        producer cluster, source mask)`` per placed REG predecessor and
        ``(high, fixed latency or None, consumer cluster, source mask)``
        per placed REG successor, where a successor term still has to
        subtract the edge latency.
        """
        ii = self.current_ii
        bus = self.config.bus_latency
        placed = self.placed
        pos = self._pos
        pred_terms: list[tuple[int, int, int]] = []
        for src, distance, fixed, is_reg in self._preds[uid]:
            src_op = placed.get(src) if is_reg else None
            if src_op is not None:
                low = src_op.start + (src_op.latency if fixed is None else fixed)
                low += bus - ii * distance
                pred_terms.append((low, src_op.cluster, 1 << pos[src]))
        succ_terms: list[tuple[int, int | None, int, int]] = []
        for dst, distance, fixed, is_reg in self._succs[uid]:
            dst_op = placed.get(dst) if is_reg else None
            if dst_op is not None:
                high = dst_op.start + ii * distance - bus
                succ_terms.append((high, fixed, dst_op.cluster, 1 << pos[dst]))
        return pred_terms, succ_terms

    def _comm_blame(self, uid: int) -> int:
        """Conflict set of a transfer plan that found no bus slot: the
        placed register neighbours, whose starts bound each transfer, and
        every op that owns a placed transfer."""
        blame = self._comm_owners
        for other in self._reg_neighbours[uid]:
            if other in self.placed:
                blame |= 1 << self._pos[other]
        return blame

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
        """Smallest latency any option could schedule load ``uid`` with:
        the least one in the policy's option superset, read before any
        attempt, when no sticky decision has narrowed it yet."""
        clusters = list(range(self.config.n_clusters))
        superset = self.policy.option_superset(self.ddg.instruction(uid), clusters)
        return min(latency for _, latency in superset)

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
