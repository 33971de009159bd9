"""The SMS engine's livelock cut changes no result.

``ClusterScheduler._attempt`` snapshots the attempt at every failed
placement and fails the attempt as soon as a snapshot repeats: from a
repeated state the placement/ejection loop could only cycle until its
ejection budget ran out (``docs/architecture.md``, "SMS livelock cut").
The cut must be exact:

* **Equivalence.**  With the cut disabled (``_snapshot`` patched to
  return a fresh object, so no snapshot ever repeats), every
  ``_attempt`` call of a compile must have the same outcome and every
  compiled schedule the same rendering.  The run without the cut also
  checks the snapshots themselves: wherever one repeats, the next must
  repeat what followed its first occurrence.  The tier-1 sample runs
  seeds 0-2 on each machine, the ``slow`` sweep seeds 0-19 (about 50 s
  on a 2-core x86 box).
* **The comm index.**  Only a vetoed placement that planned a late
  transfer can leave ``_comm_index`` out of step with the order of
  ``comms``, and the sweep's policies veto nothing, so that state is
  built by hand.
* **Regression.**  A livelocked attempt of a paper loop ends at its
  first repeated state, long before the budget.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import CompileOptions, compile_uncached, scheduler_inputs
from repro.scheduler import ClusterScheduler
from repro.scheduler.mrt import ModuloReservationTable
from repro.scheduler.schedule import PlacedComm, PlacedOp
from repro.workloads import random_loop
from repro.workloads.mediabench import build
from test_schedule_golden import render

#: Machines of the equivalence sweep: the paper's, plus a two-cluster
#: machine and a one-bus machine with one-entry buffers, where transfers
#: and entries run short.
MACHINES = (
    ("l0-4", l0_config(4)),
    ("l0-8", l0_config(8)),
    ("l0-unbounded", l0_config(None)),
    ("unified", unified_config()),
    ("multivliw", multivliw_config()),
    ("interleaved", interleaved_config()),
    ("l0-2x2", l0_config(2, n_clusters=2)),
    ("l0-1-1bus", l0_config(1, n_buses=1)),
)

SAMPLE_SEEDS = range(3)
SWEEP_SEEDS = range(20)


def _compile(loop, config, unroll, trails=None):
    """The compile's rendering, each ``_attempt`` outcome (in call order)
    and its work-list pops (``_cluster_order`` calls).  ``trails``, when
    given, gets a new list at the start of every attempt."""
    outcomes = []
    pops = [0]
    attempt = ClusterScheduler._attempt
    cluster_order = ClusterScheduler._cluster_order

    def recorded_attempt(self, ii, order_mode="sms"):
        if trails is not None:
            trails.append([])
        result = attempt(self, ii, order_mode)
        outcomes.append((ii, order_mode, None if result is None else render(result)))
        return result

    def counted_cluster_order(self, uid):
        pops[0] += 1
        return cluster_order(self, uid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClusterScheduler, "_attempt", recorded_attempt)
        mp.setattr(ClusterScheduler, "_cluster_order", counted_cluster_order)
        options = CompileOptions(unroll_factor=unroll)
        schedule = compile_uncached(loop, config, options).schedule
    return render(schedule), outcomes, pops[0]


def _uncut(loop, config, unroll):
    """:func:`_compile` with the cut disabled.  Each attempt's snapshots
    are still taken, and wherever one repeats, the snapshot after it must
    repeat the one after its first occurrence: the loop's future is a
    function of the snapshot."""
    snapshot = ClusterScheduler._snapshot
    trails: list[list[tuple]] = []

    def recorded_snapshot(self, uid, work):
        trails[-1].append(snapshot(self, uid, work))
        return object()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ClusterScheduler, "_snapshot", recorded_snapshot)
        compiled = _compile(loop, config, unroll, trails)
    for trail in trails:
        first: dict[tuple, int] = {}
        for j, state in enumerate(trail[:-1]):
            i = first.setdefault(state, j)
            assert trail[i + 1] == trail[j + 1], (i, j)
    return compiled


def check_equivalence(config, seeds) -> tuple[int, int]:
    """Compile random loops with and without the cut and require the same
    results; returns the total pops of both runs."""
    cut_pops = uncut_pops = 0
    for seed in seeds:
        for max_ops in (14, 24):
            loop = random_loop(seed, max_ops=max_ops)
            for unroll in (None, 1):
                text, outcomes, pops = _compile(loop, config, unroll)
                uncut_text, uncut_outcomes, uncut = _uncut(loop, config, unroll)
                case = (seed, max_ops, unroll)
                assert outcomes == uncut_outcomes, case
                assert text == uncut_text, case
                assert pops <= uncut, case
                cut_pops += pops
                uncut_pops += uncut
    return cut_pops, uncut_pops


@pytest.mark.parametrize("label, config", MACHINES, ids=[m[0] for m in MACHINES])
def test_cut_changes_no_outcome(label, config):
    cut, uncut = check_equivalence(config, SAMPLE_SEEDS)
    assert cut < uncut  # the premise: some attempt livelocked and was cut


@pytest.mark.slow
@pytest.mark.parametrize("label, config", MACHINES, ids=[m[0] for m in MACHINES])
def test_cut_changes_no_outcome_sweep(label, config):
    cut, uncut = check_equivalence(config, SWEEP_SEEDS)
    assert cut < uncut


def test_gsme_autoc_livelock_ends_at_first_repeat():
    """gsmenc's ``gsme_autoc`` on a 4-entry L0 machine: SMS fails at II 6
    after 57 work-list pops (413 while the attempt ran to its ejection
    budget) and succeeds at II 9 after 32."""
    (loop,) = [s.loop for s in build("gsmenc").loops if s.loop.name == "gsme_autoc"]
    state = scheduler_inputs(loop, l0_config(4), CompileOptions())
    engine = ClusterScheduler(state.ddg, state.config, state.policy)
    pops = [0]
    cluster_order = engine._cluster_order

    def counted(uid):
        pops[0] += 1
        return cluster_order(uid)

    engine._cluster_order = counted
    assert engine._attempt(6) is None
    assert pops[0] == 57
    pops[0] = 0
    assert engine._attempt(9) is not None
    assert pops[0] == 32


def test_snapshot_tells_comm_index_states_apart():
    """A vetoed placement that planned a later transfer for a key already
    in ``_comm_index`` deletes the key on rollback, while the older
    transfer stays in ``comms``.  The consumer's window then comes from
    the producer, not from that transfer, so the snapshot must tell the
    two index states apart."""
    config = unified_config()
    state = scheduler_inputs(random_loop(0), config, CompileOptions(unroll_factor=1))
    engine = ClusterScheduler(state.ddg, config, state.policy)
    src, dst, ii = 1, 3, 8
    assert (src, 0, 1) in engine._reg_in[dst]  # distance 0, latency 1
    engine.mrt = ModuloReservationTable(ii, config)
    producer = PlacedOp(instr=state.ddg.instruction(src), cluster=0, start=0, latency=1)
    engine.placed = {src: producer}
    comm = PlacedComm(
        producer_uid=src,
        dst_cluster=1,
        src_cluster=0,
        start=4,
        latency=config.bus_latency,
    )
    engine.comms = [comm]
    consumer = state.ddg.instruction(dst)
    views = []
    for index in ({(src, 1): comm}, {}):
        engine._comm_index = index
        views.append(
            (engine._snapshot(dst, deque()), engine._window(consumer, 1, 1, ii))
        )
    (indexed, indexed_window), (unindexed, unindexed_window) = views
    assert indexed_window != unindexed_window
    assert indexed != unindexed
