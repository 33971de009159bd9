"""The three intra-loop coherence schemes: NL0, 1C and PSR (paper §4.1).

A loop whose loads and stores may touch the same addresses forms a
memory-dependent set.  Stores only update their local L0 buffer and L1 —
never remote L0 buffers — so the compiler must pick one of:

* NL0 — the whole set bypasses L0 (schedule freedom, L1 latency);
* 1C  — stores and L0-latency loads share one cluster;
* PSR — stores are replicated into every cluster (the extra instances
  only invalidate their local buffer), loads go anywhere.

This example compiles the same loop under each scheme and shows the
schedule shape and the simulated coherence audit (always zero stale
reads — that's the point).

Run:  python examples/coherence_schemes.py
"""

from repro.ir import LoopBuilder
from repro.isa import MemoryLayout
from repro.machine import l0_config
from repro.scheduler import compile_loop
from repro.sim import make_memory, run_loop


def build_history_filter():
    """y[i+2] = f(y[i], y[i+1]) — loads and stores on the same array."""
    b = LoopBuilder("history", trip_count=1200)
    y = b.array("y", 2048, 2)
    k = b.live_in("k")
    a = b.load(y, stride=1, offset=0, tag="ld_y0")
    c = b.load(y, stride=1, offset=1, tag="ld_y1")
    s = b.iadd(a, c, tag="sum")
    t = b.imul(s, k, tag="scale")
    b.store(y, t, stride=1, offset=2, tag="st_y2")
    return b.build()


def run_scheme(label: str, **compile_kwargs) -> None:
    config = l0_config(8)
    compiled = compile_loop(build_history_filter(), config, **compile_kwargs)
    memory = make_memory(config)
    result, _ = run_loop(
        compiled, memory, MemoryLayout(align=config.l1_block), invocations=2
    )
    mem_ops = [
        op for op in compiled.schedule.placed.values() if op.instr.is_memory
    ]
    clusters = {op.instr.tag: op.cluster for op in mem_ops}
    lats = {op.instr.tag: op.latency for op in mem_ops if op.instr.is_load}
    print(f"--- {label}")
    print(f"  II={compiled.ii}  unroll={compiled.unroll_factor}")
    print(f"  load latencies: {lats}")
    print(f"  clusters: {clusters}")
    if compiled.schedule.replicas:
        replica_clusters = sorted(op.cluster for op in compiled.schedule.replicas)
        print(f"  PSR store replicas in clusters: {replica_clusters}")
    print(f"  cycles: {result.total_cycles} (stall {result.stall_cycles})")
    print(f"  stale L0 reads: {memory.stats.coherence_violations}")
    assert memory.stats.coherence_violations == 0
    print()


def main() -> None:
    # The production scheduler picks between 1C and NL0 itself (the
    # paper drops PSR after code specialisation); force each here.
    run_scheme("automatic (1C when entries allow, else NL0)")
    run_scheme("partial store replication (PSR)", allow_psr=True)

    # NL0 can be observed by removing every buffer entry's worth of
    # benefit: with all candidates demoted the set runs at L1 latency.
    print("--- NL0 (forced by a 1-entry buffer: no room for the set)")
    config = l0_config(1)
    compiled = compile_loop(build_history_filter(), config)
    loads = [
        op
        for op in compiled.schedule.placed.values()
        if op.instr.is_load
    ]
    print(f"  II={compiled.ii}; load latencies: "
          f"{sorted(op.latency for op in loads)}")


if __name__ == "__main__":
    main()
