"""The schedulers' search bookkeeping against reference models.

The exact search gathers a node's start-window terms once per DFS node
and derives every option's window from them, and both schedulers roll a
placement back by cutting its comms off the tail of ``comms``.  These
tests pin both mechanisms without going through a whole compile:

* **Per-node windows.**  ``reference_bounds`` is the per-option window
  the exact search computed before (``ExactScheduler._bounds``, read
  straight off the DDG's ``Edge`` objects).  Over random partial
  placements of the tier-1 exact-sample loops and of random loops, the
  starts ``_dfs`` tries for every ``(cluster, latency)`` option must be
  exactly that window, in order, or none when it is empty.
* **Rollback.**  A search that refutes an II has undone every
  placement: no placements, comms, comm-index entries or anchors, zero
  in every reservation row, and the L0 policy's free entries as
  ``begin_attempt`` left them.  A placement the policy vetoes leaves the
  SMS engine's ``comms`` holding the same objects as before it was tried.
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
from repro.pipeline import DEFAULT_PIPELINE, CompileOptions, PassManager
from repro.scheduler import ClusterScheduler, ExactScheduler
from repro.scheduler.mii import compute_mii
from repro.scheduler.mrt import ModuloReservationTable
from repro.scheduler.policies import UnifiedPolicy
from repro.scheduler.schedule import PlacedOp
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
    artifact = PassManager(DEFAULT_PIPELINE[:-1]).run(
        loop, config, CompileOptions(**options)
    )
    return artifact.ddg, artifact.policy


# ----------------------------------------------------------------------
# Per-node windows
# ----------------------------------------------------------------------


def reference_bounds(engine, uid: int, cluster: int, latency: int, ii: int):
    """Complete start window for ``uid`` as one option, edge by edge."""
    anchor = engine._anchor.get(engine._comp[uid])
    if anchor is None:
        base = engine._asap[uid]
        return base, base + ii - 1
    bus = engine.config.bus_latency
    lo = anchor - engine._horizon
    hi = anchor + engine._horizon
    for edge in engine.ddg.preds[uid]:
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
        if low > lo:
            lo = low
    for edge in engine.ddg.succs[uid]:
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
        if high < hi:
            hi = high
    if hi < lo:
        return None
    return lo, hi


def reference_trials(engine, uid: int, options, ii: int):
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
        bounds = reference_bounds(engine, uid, cluster, latency, ii)
        if bounds is not None:
            lo, hi = bounds
            trials.extend((cluster, latency, start) for start in range(lo, hi + 1))
    return trials


class _EveryOption:
    """Offers every memory op each cluster at each latency, one repeated."""

    def __init__(self, latencies):
        self.latencies = latencies

    def options(self, instr, clusters):
        offered = [(c, lat) for lat in self.latencies for c in clusters]
        return offered + offered[:1]


def _dfs_trials(engine, uid: int, ii: int):
    """The trials ``_dfs`` makes for ``uid`` when every placement fails."""
    trials = []

    def record(instr, cluster, latency, start, ii):
        trials.append((cluster, latency, start))
        return None

    engine._apply = record
    assert not engine._dfs([uid], 0, ii)
    return trials


def check_windows(ddg, config, policy, rng: random.Random) -> int:
    """Compare every unplaced node's trials under one random partial
    placement; returns how many nodes had a placed neighbour."""
    engine = ExactScheduler(ddg, config, policy, node_budget=10**9)
    latencies = sorted({config.l0_latency, config.l1_latency, 1, 3})
    engine.policy = _EveryOption(latencies)
    ii = rng.randint(1, 6)
    engine.current_ii = ii
    engine.mrt = ModuloReservationTable(ii, config)
    engine._asap = {uid: rng.randint(0, 12) for uid in ddg.nodes}
    engine._horizon = ii * rng.randint(1, 4)
    engine._anchor = {
        comp: rng.randint(-6, 24)
        for comp in sorted(set(engine._comp.values()))
        if rng.random() < 0.85
    }
    engine.placed = {}
    for uid in ddg.nodes:
        if rng.random() < 0.5:
            engine.placed[uid] = PlacedOp(
                instr=ddg.instruction(uid),
                cluster=rng.randrange(config.n_clusters),
                start=rng.randint(-12, 36),
                latency=rng.choice(latencies),
            )
    with_neighbours = 0
    for uid in ddg.nodes:
        if uid in engine.placed:
            continue
        if engine._is_memory[uid]:
            options = engine.policy.options(None, list(range(config.n_clusters)))
        else:
            options = [(c, engine._latency[uid]) for c in range(config.n_clusters)]
        expected = reference_trials(engine, uid, options, ii)
        assert _dfs_trials(engine, uid, ii) == expected, uid
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
    cross-cluster transfers and consumes L0 entries on the way.
    """
    config = l0_config(4)
    loop = random_loop(1, max_ops=8, trip_count=16)
    ddg, policy = _frontend(loop, config, unroll_factor=2)
    engine = ExactScheduler(ddg, config, policy, node_budget=100_000)
    mii = compute_mii(engine.loop, ddg, config, policy.planned_latency)
    assert ddg.earliest_times(mii - 1, engine._floor) is not None

    seen = {"free": None, "l0_commits": 0, "reverts_under_comms": 0}
    begin_attempt, committed = policy.begin_attempt, policy.committed
    apply, revert = engine._apply, engine._revert
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

    policy.begin_attempt, policy.committed = begin, commit
    engine._apply, engine._revert = tracked_apply, tracked_revert
    assert engine._search(mii - 1, span_hint=mii) is None
    # The premise held: transfers were rolled back from under other
    # placements' transfers, and L0 entries were consumed.
    assert seen["reverts_under_comms"] > 0 and seen["l0_commits"] > 0
    assert engine.placed == {}
    assert engine.comms == []
    assert engine._comm_index == {}
    assert engine._anchor == {}
    for per_class in engine.mrt._fu:
        for row in per_class:
            assert row == [0] * (mii - 1)
    assert engine.mrt.bus_booked == [0] * (mii - 1)
    assert policy.free == seen["free"]


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
