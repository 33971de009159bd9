"""The DDG's longest-path kernel against a plain edge-list Bellman-Ford.

``DDG.earliest_times``, ``latest_times``, ``slack`` and ``asap_slack``
relax index tables in an order that settles in few sweeps, and
``rec_mii`` / ``compute_mii`` probe ResMII first and bisect over one
resolved latency plan.  The longest-path fixed point is unique and
feasibility is monotone in the II, so every answer must equal the
reference below: a Bellman-Ford over the ``Edge`` objects in list
order, one ``Edge.latency`` call per edge per round, ``n + 1`` rounds,
with ``rec_mii`` bisecting up from the sum of all edge latencies.

The random DDGs have shuffled edge lists, uids out of body order, self
edges, carried edges, distance-0 edges against body order and positive
cycles; each is queried at several IIs under a mapping and a callable
latency plan.  The DDGs ``build_ddg`` makes for the paper's loops run
too.  The tier-1 sample is small; the ``slow`` variant runs many more.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.ir import DDG, DepKind, Edge, build_ddg, unroll
from repro.ir.loop import Loop
from repro.isa.instruction import Instruction
from repro.isa.operations import Opcode
from repro.machine import l0_config, unified_config
from repro.scheduler import compute_mii, rec_mii, res_mii
from repro.workloads.mediabench import BENCHMARK_NAMES, build

QUICK_DDGS = 150
SLOW_DDGS = 3000
CONFIG = unified_config()


# ----------------------------------------------------------------------
# The reference: edge-list Bellman-Ford
# ----------------------------------------------------------------------


def ref_earliest(ddg, ii, lat):
    times = {uid: 0 for uid in ddg.nodes}
    for _round in range(ddg.n_nodes + 1):
        changed = False
        for edge in ddg.edges:
            bound = times[edge.src] + edge.latency(lat) - ii * edge.distance
            if bound > times[edge.dst]:
                times[edge.dst] = bound
                changed = True
        if not changed:
            break
    else:
        return None
    low = min(times.values())
    return {uid: t - low for uid, t in times.items()}


def ref_latest(ddg, ii, lat, horizon):
    times = {uid: horizon for uid in ddg.nodes}
    for _round in range(ddg.n_nodes + 1):
        changed = False
        for edge in ddg.edges:
            bound = times[edge.dst] - edge.latency(lat) + ii * edge.distance
            if bound < times[edge.src]:
                times[edge.src] = bound
                changed = True
        if not changed:
            break
    else:
        return None
    return times


def ref_slack(ddg, ii, lat):
    asap = ref_earliest(ddg, ii, lat)
    if asap is None:
        return None
    alap = ref_latest(ddg, ii, lat, max(asap.values()))
    return {uid: alap[uid] - asap[uid] for uid in ddg.nodes}


def ref_rec_mii(ddg, lat, upper=None):
    """``rec_mii`` as it was: probe 1, then bracket and bisect up from
    the sum of all edge latencies."""
    if upper is None:
        upper = 1 + sum(edge.latency(lat) for edge in ddg.edges)
    if ref_earliest(ddg, 1, lat) is not None:
        return 1
    lo, hi = 1, max(2, upper)
    while ref_earliest(ddg, hi, lat) is None:
        lo, hi = hi, hi * 2
        if hi > 1 << 20:
            raise ValueError("diverged")
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ref_earliest(ddg, mid, lat) is None:
            lo = mid
        else:
            hi = mid
    return hi


def plain_rec_mii(ddg, lat):
    """The least feasible II by a plain bisection over ``[1, bound]``,
    where the bound is feasible whenever any II is (no recurrence needs
    more than its total latency)."""
    lo, hi = 0, 1 + sum(edge.latency(lat) for edge in ddg.edges)
    if ref_earliest(ddg, hi, lat) is None:
        return None  # a positive cycle without distance: no II fits
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if ref_earliest(ddg, mid, lat) is None:
            lo = mid
        else:
            hi = mid
    return hi


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def random_ddg(rng: random.Random) -> DDG:
    """A DDG over integer adds whose uids are out of body order."""
    n = rng.randint(1, 12)
    uids = rng.sample(range(3 * n + 5), n)
    body = [Instruction(uid=uid, opcode=Opcode.IADD) for uid in uids]
    loop = Loop("rand", body, trip_count=8)
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        distance = rng.choice((0, 0, 0, 1, 1, 2, 3))
        if rng.random() < 0.1:
            a = b  # a self edge
        elif distance > 0 or rng.random() < 0.1:
            if rng.random() < 0.5:
                a, b = b, a  # against body order
        fixed = None if rng.random() < 0.3 else rng.randint(0, 6)
        kind = rng.choice((DepKind.REG, DepKind.MEM))
        edges.append(Edge(uids[a], uids[b], distance, kind, fixed))
    rng.shuffle(edges)
    return DDG(loop, edges)


def plans(rng: random.Random, ddg: DDG):
    """A mapping and a callable latency plan over every node."""
    mapping = {uid: rng.randint(1, 6) for uid in ddg.nodes}
    return mapping, (lambda uid: (uid * 7) % 5 + 1)


def paper_ddgs(names):
    """The DDGs of the programs' loops, rolled and unrolled."""
    for name in names:
        for spec in build(name).loops:
            for factor in (1, 4):
                body = unroll(spec.loop, factor)
                yield build_ddg(body, l0_config(8))


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------


def check_paths(ddg: DDG, lat, iis) -> None:
    for ii in iis:
        asap = ref_earliest(ddg, ii, lat)
        assert ddg.earliest_times(ii, lat) == asap, ii
        slack = ref_slack(ddg, ii, lat)
        assert ddg.slack(ii, lat) == slack, ii
        paths = ddg.asap_slack(ii, lat)
        assert paths == (None if asap is None else (asap, slack)), ii
        for horizon in (0, 7, max(asap.values()) if asap else 3):
            assert ddg.latest_times(ii, lat, horizon) == ref_latest(
                ddg, ii, lat, horizon
            ), (ii, horizon)


def check_mii(ddg: DDG, lat) -> None:
    plain = plain_rec_mii(ddg, lat)
    if plain is None:
        # Infeasible at every II: both searches give up the same way.
        with pytest.raises(ValueError):
            rec_mii(ddg, lat)
        with pytest.raises(ValueError):
            ref_rec_mii(ddg, lat)
        return
    assert rec_mii(ddg, lat) == ref_rec_mii(ddg, lat) == plain
    for upper in (1, 2, plain, plain + 3):
        assert rec_mii(ddg, lat, upper=upper) == plain
    resources = res_mii(ddg.loop, CONFIG)
    assert compute_mii(ddg.loop, ddg, CONFIG, lat) == max(resources, plain)


def check_random(count: int, seed: int) -> None:
    rng = random.Random(seed)
    for _ in range(count):
        ddg = random_ddg(rng)
        for lat in plans(rng, ddg):
            check_paths(ddg, lat, (1, 2, 3, 5, 8, 13))
            check_mii(ddg, lat)


def test_kernel_matches_reference_on_random_ddgs():
    check_random(QUICK_DDGS, seed=0)


@pytest.mark.slow
def test_kernel_matches_reference_on_random_ddgs_long():
    check_random(SLOW_DDGS, seed=1)


def check_paper(names) -> None:
    l0, l1 = (lambda uid: 1), (lambda uid: 6)
    for ddg in paper_ddgs(names):
        for lat in (l0, l1):
            mii = rec_mii(ddg, lat)
            assert mii == ref_rec_mii(ddg, lat)
            resources = res_mii(ddg.loop, CONFIG)
            assert compute_mii(ddg.loop, ddg, CONFIG, lat) == max(resources, mii)
            check_paths(ddg, lat, (max(1, mii - 1), mii, mii + 2))


def test_kernel_matches_reference_on_paper_ddgs():
    check_paper(BENCHMARK_NAMES[::4])


@pytest.mark.slow
def test_kernel_matches_reference_on_paper_ddgs_long():
    check_paper(BENCHMARK_NAMES)


def test_edge_tables_stay_out_of_the_pickle():
    """The tables are built on first use and never pickled, so a compiled
    artifact pickles as it did before the kernel existed."""
    ddg = build_ddg(build(BENCHMARK_NAMES[0]).loops[0].loop, l0_config(8))
    before = pickle.dumps(ddg)
    times = ddg.earliest_times(4, lambda uid: 6)
    assert pickle.dumps(ddg) == before
    assert pickle.loads(before).earliest_times(4, lambda uid: 6) == times
