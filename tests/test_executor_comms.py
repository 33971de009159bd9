"""Executor behaviour around inter-cluster communication and late values."""


from repro.ir import LoopBuilder
from repro.isa import MemoryLayout
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.sim import LoopExecutor, make_memory


def wide_fanout_loop(trip=64):
    """One load feeding a chain long enough to spill across clusters."""
    b = LoopBuilder("fanout", trip_count=trip)
    arr = b.array("a", 512, 4)
    k = b.live_in("k")
    v = b.load(arr, stride=1, tag="ld")
    chains = []
    for lane in range(4):
        w = v
        for _ in range(3):
            w = b.iadd(w, k)
        chains.append(w)
    acc = chains[0]
    for other in chains[1:]:
        acc = b.imax(acc, other)
    out = b.array("o", 512, 4)
    b.store(out, acc, stride=1)
    return b.build()


class TestCommExecution:
    def test_cross_cluster_schedule_runs_clean_when_l1_resident(self):
        config = unified_config()
        compiled = compile_loop(wide_fanout_loop(), config, unroll_factor=1)
        assert compiled.schedule.comms, "expected cross-cluster values"
        memory = make_memory(config)
        executor = LoopExecutor(compiled, memory, MemoryLayout(align=32))
        executor.run(compiled.loop.trip_count)
        warm = executor.run(compiled.loop.trip_count, start_cycle=50_000)
        assert warm.stall_cycles == 0  # schedule honoured all comm latencies

    def test_late_load_through_comm_propagates_stall(self):
        """A late load's lateness must reach cross-cluster consumers."""
        config = l0_config(8)
        # Column walk: every iteration misses unless prefetched; make the
        # value cross clusters by fanning it out.
        b = LoopBuilder("latecomm", trip_count=64)
        arr = b.array("a", 2048, 4)
        k = b.live_in("k")
        v = b.load(arr, stride=16, tag="ldcol")  # other-stride, L0 marked
        lanes = [v]
        for lane in range(6):
            w = b.imul(v, k)
            for _ in range(2):
                w = b.iadd(w, k)
            lanes.append(w)
        acc = lanes[0]
        for other in lanes[1:]:
            acc = b.imax(acc, other)
        out = b.array("o", 512, 4)
        b.store(out, acc, stride=1)
        compiled = compile_loop(b.build(), config, unroll_factor=1)
        memory = make_memory(config)
        executor = LoopExecutor(compiled, memory, MemoryLayout(align=32))
        result = executor.run(compiled.loop.trip_count)
        # The loop must still execute with consistent cycle accounting.
        assert result.compute_cycles > 0
        assert result.stall_cycles >= 0

    def test_start_cycle_offsets_memory_clock(self):
        config = unified_config()
        compiled = compile_loop(wide_fanout_loop(), config, unroll_factor=1)
        memory = make_memory(config)
        executor = LoopExecutor(compiled, memory, MemoryLayout(align=32))
        executor.run(4, start_cycle=0)
        grants_before = memory.stats.bus.grants
        executor.run(4, start_cycle=1_000_000)
        assert memory.stats.bus.grants > grants_before

    def test_history_pruning_keeps_results_exact(self):
        """Pruned producer history must never change stall accounting
        (window is sized to cover every reachable dependence)."""
        config = unified_config()
        compiled = compile_loop(wide_fanout_loop(trip=600), config, unroll_factor=1)
        memory = make_memory(config)
        executor = LoopExecutor(compiled, memory, MemoryLayout(align=32))
        full = executor.run(600)
        memory2 = make_memory(config)
        executor2 = LoopExecutor(compiled, memory2, MemoryLayout(align=32))
        split_a = executor2.run(600)
        assert full.stall_cycles == split_a.stall_cycles
