"""The schedulers' search bookkeeping against reference models.

The exact search keeps each unplaced node's start bounds in per-attempt
tables that every placement tightens and every backtrack restores, and
both schedulers roll a placement back by cutting its comms off the tail
of ``comms``.  These tests pin those mechanisms without going through a
whole compile:

* **Per-node windows.**  ``reference_bounds`` derives one option's
  window from the DDG's ``Edge`` objects alone: ``anchor ± horizon``,
  the direct edges to placed neighbours (bus latency included), and the
  longest paths (floor latencies) from and to every placed node and from
  every node of the component.  Over random partial placements of the
  tier-1 exact-sample loops and of random loops, the starts ``_descend``
  tries for every ``(cluster, latency)`` option must be exactly that
  window, in order, or none when it is empty.
* **Rollback.**  A search that refutes an II has undone every
  placement: no placements, comms, comm-index entries or anchors, zero
  in every reservation row, no FU-row holders, placed-neighbour counts
  or cached supports, every start bound back at its initial value, and
  the L0 policy's free entries as ``begin_attempt`` left them.  A
  placement the policy vetoes leaves the SMS engine's ``comms`` holding
  the same objects as before it was tried.
* **First schedule unchanged.**  Under a stateless policy the pruned
  search finds exactly the schedule (or the refutation) of plain
  chronological backtracking over the same options, windows and
  placement primitives, which ``chronological_search`` drives here.
* **Option supersets.**  After random commits on each of the four
  policies, every option ``policy.options`` offers a memory node was in
  the node's ``option_superset`` (less its entry shortages) at every
  earlier point.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.ddg import DDG, DepKind, Edge
from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import CompileOptions, scheduler_inputs
from repro.scheduler import ClusterScheduler, ExactScheduler
from repro.scheduler.engine import NO_FU
from repro.scheduler.exact import INF
from repro.scheduler.mii import compute_mii
from repro.scheduler.mrt import ModuloReservationTable
from repro.scheduler.policies import UnifiedPolicy
from repro.scheduler.schedule import PlacedOp
from repro.scheduler.sms import sms_order
from repro.workloads import random_loop
from repro.workloads.mediabench import build

QUICK = settings(max_examples=40, deadline=None)

#: The loops and machines of ``test_schedule_golden.EXACT_SAMPLE``.
EXACT_SAMPLE = (
    ("gsmenc", "gsme_autoc", l0_config(4)),
    ("gsmenc", "gsme_autoc", unified_config()),
    ("pgpdec", "pgpd_mulmod", l0_config(8)),
    ("pegwitdec", "pegwitdec_gf", interleaved_config()),
    ("g721dec", "g721dec_pred", l0_config(None)),
    ("pgpenc", "pgpe_borrow", multivliw_config()),
    ("jpegdec", "jpgd_idct_col", l0_config(4)),
)


def _frontend(loop, config, **options):
    """The compile products the schedulers start from (DDG and policy)."""
    state = scheduler_inputs(loop, config, CompileOptions(**options))
    return state.ddg, state.policy


# ----------------------------------------------------------------------
# Per-node windows
# ----------------------------------------------------------------------


def reference_paths(ddg, floor, ii: int):
    """Longest walk from each node to each node it reaches (0 to itself)
    at ``ii``, every edge taking its fixed latency or its source's floor
    one; self edges are left out.  None when a cycle is positive."""
    edges = [e for e in ddg.edges if e.src != e.dst]
    paths = {}
    for source in ddg.nodes:
        reach = {source: 0}
        for _ in range(len(ddg.nodes) + 1):
            changed = False
            for e in edges:
                if e.src in reach:
                    length = reach[e.src] + e.latency(floor) - ii * e.distance
                    if e.dst not in reach or length > reach[e.dst]:
                        reach[e.dst] = length
                        changed = True
            if not changed:
                break
        else:
            return None
        paths[source] = reach
    return paths


def path_from(ddg, paths, node: int, latency: int, target: int, ii: int):
    """Longest walk ``node`` -> ``target`` whose first edge takes
    ``latency`` when its latency is not fixed; None without one."""
    best = None
    for e in ddg.succs[node]:
        if e.dst == node or target not in paths[e.dst]:
            continue
        first = latency if e.fixed_latency is None else e.fixed_latency
        length = first - ii * e.distance + paths[e.dst][target]
        best = length if best is None else max(best, length)
    return best


def reference_bounds(engine, paths, uid: int, cluster: int, latency: int, ii: int):
    """Complete start window for ``uid`` as one option, edge by edge
    (without the path bounds when ``paths`` is None)."""
    comp = engine._comp[uid]
    anchor = engine._anchor.get(comp)
    if anchor is None:
        base = engine._asap[uid]
        return base, base + ii - 1
    ddg = engine.ddg
    bus = engine.config.bus_latency
    lo = anchor - engine._horizon
    hi = anchor + engine._horizon
    # Every node of the component starts within anchor +- horizon.
    for other in ddg.nodes if paths is not None else ():
        if other == uid or engine._comp[other] != comp:
            continue
        into = paths[other].get(uid)
        if into is not None:
            lo = max(lo, anchor - engine._horizon + into)
        out = path_from(ddg, paths, uid, latency, other, ii)
        if out is not None:
            hi = min(hi, anchor + engine._horizon - out)
    for other, op in engine.placed.items() if paths is not None else ():
        into = path_from(ddg, paths, other, op.latency, uid, ii)
        if into is not None:
            lo = max(lo, op.start + into)
        out = path_from(ddg, paths, uid, latency, other, ii)
        if out is not None:
            hi = min(hi, op.start - out)
    for edge in ddg.preds[uid]:
        if edge.src == uid:
            continue
        src_op = engine.placed.get(edge.src)
        if src_op is None:
            continue
        lat = edge.fixed_latency
        if lat is None:
            lat = src_op.latency
        low = src_op.start + lat - ii * edge.distance
        if edge.kind is DepKind.REG and src_op.cluster != cluster:
            low += bus
        lo = max(lo, low)
    for edge in ddg.succs[uid]:
        if edge.dst == uid:
            continue
        dst_op = engine.placed.get(edge.dst)
        if dst_op is None:
            continue
        lat = edge.fixed_latency
        if lat is None:
            lat = latency
        high = dst_op.start + ii * edge.distance - lat
        if edge.kind is DepKind.REG and dst_op.cluster != cluster:
            high -= bus
        hi = min(hi, high)
    if hi < lo:
        return None
    return lo, hi


def reference_trials(engine, paths, uid: int, options, ii: int):
    """The ``(cluster, latency, start)`` trials of ``uid``, option by option."""
    trials = []
    tried = set()
    for cluster, latency in options:
        if (cluster, latency) in tried:
            continue
        tried.add((cluster, latency))
        if any(
            (latency if e.fixed_latency is None else e.fixed_latency)
            > ii * e.distance
            for e in engine.ddg.succs[uid]
            if e.dst == uid
        ):
            continue
        bounds = reference_bounds(engine, paths, uid, cluster, latency, ii)
        if bounds is not None:
            lo, hi = bounds
            trials.extend((cluster, latency, start) for start in range(lo, hi + 1))
    return trials


class _EveryOption:
    """Offers every memory op each cluster at each latency, one repeated."""

    decisions = 0

    def __init__(self, latencies):
        self.latencies = latencies

    def options(self, instr, clusters):
        offered = [(c, lat) for lat in self.latencies for c in clusters]
        return offered + offered[:1]

    option_superset = options

    def entry_shortage(self, uid, cluster, latency):
        return False


def _descend_trials(engine, depth: int):
    """The trials ``_descend`` makes at ``depth`` when every placement fails."""
    trials = []

    def record(instr, cluster, latency, start, ii):
        trials.append((cluster, latency, start))
        return None

    engine._apply = record
    assert engine._descend(depth) is not None
    return trials


def check_windows(ddg, config, policy, rng: random.Random) -> int:
    """Compare every unplaced node's trials under one random partial
    placement; returns how many nodes had a placed neighbour."""
    engine = ExactScheduler(ddg, config, policy, node_budget=10**9)
    latencies = sorted({config.l0_latency, config.l1_latency, 1, 3})
    engine.policy = _EveryOption(latencies)
    # The search runs only at an II without a positive cycle.
    for ii in range(rng.randint(1, 6), 64):
        paths = reference_paths(ddg, engine._floor, ii)
        if paths is not None:
            break
    else:
        return 0
    engine.current_ii = ii
    engine.mrt = ModuloReservationTable(ii, config)
    engine._asap = {uid: rng.randint(0, 12) for uid in ddg.nodes}
    engine._horizon = ii * rng.randint(1, 4)
    placed = [uid for uid in ddg.nodes if rng.random() < 0.5]
    rng.shuffle(placed)
    ops = {
        uid: PlacedOp(
            instr=ddg.instruction(uid),
            cluster=rng.randrange(config.n_clusters),
            start=rng.randint(-12, 36),
            latency=rng.choice(latencies),
        )
        for uid in placed
    }
    with_neighbours = 0
    for uid in ddg.nodes:
        if uid in ops:
            continue
        # Place the partial placement in a random order, then ``uid``;
        # the first placed node of each component anchors it.
        rest = [u for u in ddg.nodes if u not in ops and u != uid]
        engine._prepare(placed + [uid] + rest, ii)
        engine.placed = {}
        for depth, other in enumerate(placed):
            engine.placed[other] = ops[other]
            engine._push(ops[other], depth, False)
        if engine._is_memory[uid]:
            options = engine.policy.options(None, list(range(config.n_clusters)))
        else:
            options = [(c, engine._latency[uid]) for c in range(config.n_clusters)]
        expected = reference_trials(engine, paths, uid, options, ii)
        assert _descend_trials(engine, len(placed)) == expected, uid
        del engine._apply
        neighbours = [e.src for e in ddg.preds[uid]] + [e.dst for e in ddg.succs[uid]]
        with_neighbours += any(other in engine.placed for other in neighbours)
    return with_neighbours


@pytest.mark.parametrize(
    "case", EXACT_SAMPLE, ids=lambda case: f"{case[0]}/{case[1]}/{case[2].arch.name}"
)
def test_windows_match_reference_on_exact_sample(case):
    name, loop_name, config = case
    (loop,) = [s.loop for s in build(name).loops if s.loop.name == loop_name]
    ddg, policy = _frontend(loop, config)
    rng = random.Random(loop_name)
    assert sum(check_windows(ddg, config, policy, rng) for _ in range(6)) > 0


def _with_random_edges(ddg, rng: random.Random) -> DDG:
    """``ddg`` plus edges the DDG builder never emits: MEM edges without a
    fixed latency, self edges and repeated pairs of either kind."""
    extra = [
        Edge(
            rng.choice(ddg.nodes),
            rng.choice(ddg.nodes),
            rng.randint(0, 2),
            rng.choice((DepKind.REG, DepKind.MEM)),
            rng.choice((None, 0, 1, 4)),
        )
        for _ in range(rng.randint(0, len(ddg.nodes)))
    ]
    return DDG(ddg.loop, ddg.edges + extra)


@QUICK
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    placement=st.integers(min_value=0, max_value=10_000),
    config=st.sampled_from([l0_config(4), unified_config(), multivliw_config()]),
)
def test_windows_match_reference_on_random_loops(seed, placement, config):
    ddg, policy = _frontend(random_loop(seed), config)
    rng = random.Random(placement)
    check_windows(_with_random_edges(ddg, rng), config, policy, rng)


# ----------------------------------------------------------------------
# Rollback
# ----------------------------------------------------------------------


def test_refuted_search_leaves_no_trace():
    """Refute an II below a ResMII-bound kernel's MII, then inspect.

    None of the paper's compiles fully refutes an II, so the search is
    driven directly.  The kernel is chosen so the refutation places
    cross-cluster transfers, consumes L0 entries and caches supports on
    the way.
    """
    config = l0_config(4)
    loop = random_loop(1, max_ops=8, trip_count=16)
    ddg, policy = _frontend(loop, config, unroll_factor=2)
    engine = ExactScheduler(ddg, config, policy, node_budget=100_000)
    mii = compute_mii(engine.loop, ddg, config, policy.planned_latency)
    assert ddg.earliest_times(mii - 1, engine._floor) is not None

    seen = {"free": None, "l0_commits": 0, "reverts_under_comms": 0, "supports": 0}
    begin_attempt, committed = policy.begin_attempt, policy.committed
    apply, revert, hold = engine._apply, engine._revert, engine._hold
    before_apply: list[list] = []

    def begin(ii, eng):
        begin_attempt(ii, eng)
        seen["free"] = list(policy.free)

    def commit(instr, op, eng):
        seen["l0_commits"] += op.latency == config.l0_latency
        return committed(instr, op, eng)

    def tracked_apply(*args):
        before = list(engine.comms)
        applied = apply(*args)
        if applied is not None:
            before_apply.append(before)
        return applied

    def tracked_revert(op, plan, replaced):
        # Each revert restores comms to the same objects as before its
        # _apply, even with other placements' comms ahead of the plan.
        revert(op, plan, replaced)
        before = before_apply.pop()
        assert len(engine.comms) == len(before)
        assert all(a is b for a, b in zip(engine.comms, before))
        seen["reverts_under_comms"] += bool(plan and before)

    def tracked_hold(j, witness):
        seen["supports"] += 1
        hold(j, witness)

    policy.begin_attempt, policy.committed = begin, commit
    engine._apply, engine._revert = tracked_apply, tracked_revert
    engine._hold = tracked_hold
    assert engine._search(mii - 1, span_hint=mii) is None
    # The premise held: transfers were rolled back from under other
    # placements' transfers, L0 entries were consumed and supports cached.
    assert seen["reverts_under_comms"] > 0 and seen["l0_commits"] > 0
    assert seen["supports"] > 0
    assert engine.placed == {}
    assert engine.comms == []
    assert engine._comm_index == {}
    assert engine._anchor == {}
    for per_class in engine.mrt.fu_booked:
        for row in per_class:
            assert row == [0] * (mii - 1)
    assert engine.mrt.bus_booked == [0] * (mii - 1)
    assert policy.free == seen["free"]
    # The search tables are back where _prepare left them.
    n = len(engine._order)
    assert engine._trail == [] and engine._witness_trail == []
    assert engine._lo == [-INF] * n
    assert engine._hi_fixed == engine._hi_var == [INF] * n
    assert engine._lo_src == engine._hi_fixed_src == engine._hi_var_src == [0] * n
    assert engine._placed_count == [0] * n
    assert engine._witness == [None] * n
    assert not any(
        mask for per_fu in engine._holders for rows in per_fu for mask in rows
    )
    assert engine._comm_owners == 0
    assert not any(engine._loads_at.values())


class _VetoEveryOther(UnifiedPolicy):
    """Unified policy that refuses every other memory placement."""

    def __init__(self, loop, config):
        super().__init__(loop, config)
        self.calls = 0

    def committed(self, instr, op, engine):
        self.calls += 1
        return self.calls % 2 == 0


#: Random loops in which some vetoed placement had planned a transfer.
VETO_SEEDS = (0, 4, 8, 11)


@pytest.mark.parametrize("seed", VETO_SEEDS)
def test_vetoed_placement_restores_comms_by_identity(seed):
    config = unified_config()
    ddg, _ = _frontend(random_loop(seed), config)
    engine = ClusterScheduler(ddg, config, _VetoEveryOther(ddg.loop, config))
    vetoes_with_comms = []
    try_place, undo_place = engine._try_place, engine._undo_place
    before: list = []

    def tracked_try(*args):
        before[:] = engine.comms
        return try_place(*args)

    def tracked_undo(op, new_comms):
        undo_place(op, new_comms)
        assert len(engine.comms) == len(before)
        assert all(a is b for a, b in zip(engine.comms, before))
        vetoes_with_comms.append(bool(new_comms))

    engine._try_place, engine._undo_place = tracked_try, tracked_undo
    engine.schedule()
    assert any(vetoes_with_comms)  # the premise held


# ----------------------------------------------------------------------
# Option supersets
# ----------------------------------------------------------------------


@QUICK
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    commits=st.integers(min_value=0, max_value=10_000),
    config=st.sampled_from(
        [
            l0_config(4),
            l0_config(8),
            unified_config(),
            multivliw_config(),
            interleaved_config(),
        ]
    ),
)
def test_superset_covers_later_options(seed, commits, config):
    """Commit random options of random memory nodes, as a search going
    deeper does (no ejection), and compare each node's offered options
    with every superset it was given before."""
    ddg, policy = _frontend(random_loop(seed), config, unroll_factor=2)
    engine = ClusterScheduler(ddg, config, policy)
    ii = compute_mii(engine.loop, ddg, config, policy.planned_latency)
    engine.mrt = ModuloReservationTable(ii, config)
    engine.current_ii = ii
    engine.placed = {}
    policy.begin_attempt(ii, engine)
    clusters = list(range(config.n_clusters))
    rng = random.Random(commits)
    memory = [uid for uid in ddg.nodes if engine._is_memory[uid]]
    before: dict[int, list[set]] = {uid: [] for uid in memory}
    offered = 0
    for _ in memory:
        unplaced = [uid for uid in memory if uid not in engine.placed]
        for uid in unplaced:
            instr = ddg.instruction(uid)
            before[uid].append(
                {
                    option
                    for option in policy.option_superset(instr, clusters)
                    if not policy.entry_shortage(uid, *option)
                }
            )
        uid = rng.choice(unplaced)
        instr = ddg.instruction(uid)
        options = policy.options(instr, clusters)
        for superset in before[uid]:
            assert set(options) <= superset, (uid, options, superset)
        offered += len(options)
        if not options:
            continue
        cluster, latency = rng.choice(options)
        start = rng.randint(0, 24)
        op = PlacedOp(instr=instr, cluster=cluster, start=start, latency=latency)
        engine.placed[uid] = op
        assert policy.committed(instr, op, engine)
    assert offered > 0 or not memory


# ----------------------------------------------------------------------
# First schedule unchanged
# ----------------------------------------------------------------------


class _TooLong(Exception):
    pass


def chronological_search(engine, ii: int, span_hint: int, budget: int):
    """Plain chronological backtracking at ``ii``: every option the
    policy offers, every start of its window without path bounds, in
    the search's order.  Returns the placement, or None when ``ii`` is
    refuted; raises ``_TooLong`` past ``budget`` trials."""
    asap = engine.ddg.earliest_times(ii, engine._floor)
    if asap is None:
        return None
    engine.mrt = ModuloReservationTable(ii, engine.config)
    engine.current_ii = ii
    engine.placed, engine.comms, engine._comm_index = {}, [], {}
    engine._asap = asap
    engine.policy.begin_attempt(ii, engine)
    span = max(span_hint, max(asap.values()) + 1)
    engine._horizon = ii * (-(-span // ii) + 2)
    engine._anchor = {}
    order = [uid for uid, _ in sms_order(engine.ddg, ii, engine._floor)]
    clusters = list(range(engine.config.n_clusters))
    trials = 0

    def place(depth: int) -> bool:
        nonlocal trials
        if depth == len(order):
            return True
        uid = order[depth]
        instr = engine.ddg.instruction(uid)
        if engine._is_memory[uid]:
            options = list(dict.fromkeys(engine.policy.options(instr, clusters)))
        else:
            options = [(c, engine._latency[uid]) for c in clusters]
        comp = engine._comp[uid]
        first = comp not in engine._anchor
        fu = engine._fu[uid]
        # Every trial's placement is undone before the next, so the windows
        # can be taken up front.
        for cluster, latency, start in reference_trials(
            engine, None, uid, options, ii
        ):
            trials += 1
            if trials > budget:
                raise _TooLong
            if fu != NO_FU and not engine.mrt.can_reserve(start, fu, cluster):
                continue
            applied = engine._apply(instr, cluster, latency, start, ii)
            if applied is None:
                continue
            op, plan, replaced = applied
            memory = engine._is_memory[uid]
            if memory and not engine.policy.committed(instr, op, engine):
                engine._revert(op, plan, replaced)
                continue
            if first:
                engine._anchor[comp] = start
            if place(depth + 1):
                return True
            if memory:
                engine.policy.ejected(op, engine)
            if first:
                del engine._anchor[comp]
            engine._revert(op, plan, replaced)
        return False

    if not place(0):
        return None
    return _normalised(engine.placed.values(), engine.comms)


def _normalised(ops, comms):
    ops, comms = list(ops), list(comms)
    shift = min([op.start for op in ops] + [comm.start for comm in comms])
    return (
        sorted((op.instr.uid, op.cluster, op.start - shift, op.latency) for op in ops),
        sorted(
            (c.producer_uid, c.src_cluster, c.dst_cluster, c.start - shift)
            for c in comms
        ),
    )


#: Stateless-policy machines for the chronological comparison; the few-
#: cluster ones make loops of a dozen ops backtrack deep enough that a
#: conflict set missing a window source or an FU-row holder changes the
#: outcome (in about one case in a hundred).
STATELESS_CONFIGS = st.sampled_from(
    [
        unified_config(),
        multivliw_config(),
        interleaved_config(),
        unified_config(n_clusters=2),
        multivliw_config(n_clusters=2),
        unified_config(n_clusters=1),
    ]
)


def _check_first_schedule(seed: int, config) -> None:
    loop = random_loop(seed, max_ops=12, trip_count=16)
    ddg, policy = _frontend(loop, config, unroll_factor=2)
    reference = ExactScheduler(ddg, config, policy, node_budget=10**9)
    pruned = ExactScheduler(ddg, config, policy, node_budget=10**9)
    mii = compute_mii(reference.loop, ddg, config, policy.planned_latency)
    span_hint = 2 * mii
    for ii in range(mii, mii + 3):
        try:
            expected = chronological_search(reference, ii, span_hint, 20_000)
        except _TooLong:
            return
        found = pruned._search(ii, span_hint)
        if expected is None:
            assert found is None, ii
            continue
        assert found is not None, ii
        assert _normalised(found.placed.values(), found.comms) == expected
        return


@QUICK
@given(seed=st.integers(min_value=0, max_value=10_000), config=STATELESS_CONFIGS)
def test_first_schedule_matches_chronological_search(seed, config):
    _check_first_schedule(seed, config)


@pytest.mark.slow
@settings(max_examples=600, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), config=STATELESS_CONFIGS)
def test_first_schedule_matches_chronological_search_long(seed, config):
    _check_first_schedule(seed, config)
