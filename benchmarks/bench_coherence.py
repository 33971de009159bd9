"""Coherence-scheme ablation: NL0 vs 1C vs PSR on dependent-set loops.

Exercises the paper's section-4.1 trade-offs: 1C restricts cluster
assignment but keeps L0 latencies; PSR frees the loads at the cost of
replicated stores (memory slots + a bus broadcast); NL0 surrenders the
buffers entirely.  The correctness invariant in all three: zero stale
L0 reads.
"""

from repro.ir import LoopBuilder
from repro.isa import MemoryLayout
from repro.machine import l0_config
from repro.scheduler import compile_loop
from repro.sim import make_memory, run_loop


def history_loop(trip=800):
    b = LoopBuilder("history", trip_count=trip)
    y = b.array("y", 2048, 2)
    k = b.live_in("k")
    a = b.load(y, stride=1, offset=0, tag="ld0")
    c = b.load(y, stride=1, offset=1, tag="ld1")
    s = b.iadd(a, c)
    t = b.imul(s, k)
    b.store(y, t, stride=1, offset=2, tag="st")
    return b.build()


def _run(allow_psr: bool, entries: int | None = 8):
    config = l0_config(entries)
    compiled = compile_loop(history_loop(), config, allow_psr=allow_psr)
    memory = make_memory(config)
    result, _ = run_loop(
        compiled, memory, MemoryLayout(align=config.l1_block), invocations=2
    )
    assert memory.stats.coherence_violations == 0
    return compiled, result


def test_one_cluster_scheme():
    compiled, _ = _run(False)
    # 1C pins the dependent set to one cluster.
    clusters = {
        op.cluster
        for op in compiled.schedule.placed.values()
        if op.instr.is_memory and op.latency == 1
    }
    assert len(clusters) <= 1
    assert not compiled.schedule.replicas


def test_psr_scheme():
    compiled, _ = _run(True)
    # PSR replicates the store into the other clusters.
    n = compiled.schedule.config.n_clusters
    stores = [
        op for op in compiled.schedule.placed.values() if op.instr.is_store
    ]
    assert len(compiled.schedule.replicas) == len(stores) * (n - 1)
    for replica in compiled.schedule.replicas:
        assert not replica.is_primary


def test_nl0_vs_1c_latency_difference():
    oc_compiled, _ = _run(False, entries=8)
    nl_compiled, _ = _run(False, entries=1)  # no room: set demoted toward NL0
    # With buffers available, the recurrence-bound II is smaller.
    assert oc_compiled.ii <= nl_compiled.ii
