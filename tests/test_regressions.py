"""Regression tests for specific bugs found while building the system.

Each test pins the *mechanism* of a bug that once produced wrong
schedules, crashes or non-terminating searches.
"""

import pytest

from repro.analysis import check_schedule
from repro.ir import LoopBuilder, build_ddg, unroll
from repro.machine import l0_config, unified_config
from repro.scheduler import compile_loop
from repro.workloads import random_loop


def test_unroll_factor_one_on_already_unrolled_loop():
    """unroll(loop, 1) must be the identity even for unrolled loops."""
    b = LoopBuilder("l", trip_count=8)
    arr = b.array("a", 64, 4)
    b.load(arr, stride=1)
    wide = unroll(b.build(), 4)
    assert unroll(wide, 1) is wide


def test_diamond_with_long_latencies_schedules():
    """ASAP clamping: a short path must not pin the long path's window.

    A -> X -> S (loads, latency 6) in parallel with A -> Y -> S
    (1-cycle ALU): placing S right after Y used to wedge X forever.
    """
    b = LoopBuilder("diamond", trip_count=16)
    arr = b.array("a", 512, 4)
    out = b.array("o", 512, 4)
    k = b.live_in("k")
    a = b.load(arr, stride=1, offset=0, tag="A")
    x = b.load(arr, stride=2, offset=1, tag="X", addr_src=a)
    y = b.iadd(a, k, tag="Y")
    s = b.iadd(x, y, tag="S")
    b.store(out, s, stride=1)
    compiled = compile_loop(b.build(), unified_config(), unroll_factor=1)
    assert check_schedule(compiled.schedule, compiled.ddg) == []


def test_multiple_edges_between_same_pair_dedup_in_ejection():
    """REG+MEM edges between one pair used to double-eject and crash."""
    b = LoopBuilder("dual", trip_count=16)
    arr = b.array("a", 512, 4)
    v = b.load(arr, stride=1, offset=0, tag="ld")
    # Store consumes the load's value AND aliases it: two edges.
    b.store(arr, v, stride=1, offset=0, tag="st")
    for _ in range(3):
        v = b.iadd(v, b.live_in("k"))
    compiled = compile_loop(b.build(), l0_config(8))
    assert check_schedule(compiled.schedule, compiled.ddg) == []


@pytest.mark.parametrize("seed", [0, 6, 10, 14, 15, 16, 21, 28, 46, 50])
def test_historically_unschedulable_seeds(seed):
    """Dense random loops that once exhausted the II search."""
    loop = random_loop(seed)
    for config in (unified_config(), l0_config(8)):
        compiled = compile_loop(loop, config)
        assert check_schedule(compiled.schedule, compiled.ddg) == []


def test_inplace_stream_has_no_spurious_recurrence():
    """y[i] = f(y[i]) used to get a conservative distance-1 RAW edge
    limiting the II to the full load-use cycle."""
    from repro.scheduler import rec_mii

    b = LoopBuilder("inplace", trip_count=16)
    y = b.array("y", 512, 4)
    v = b.load(y, stride=1, offset=0)
    w = b.iadd(v, b.live_in("k"))
    b.store(y, w, stride=1, offset=0)
    ddg = build_ddg(b.build(), unified_config())
    assert rec_mii(ddg, lambda uid: 6) == 1


def test_prefetch_not_queued_on_busy_bus():
    """Hint prefetches on a saturated bus are dropped, not queued —
    queued prefetches once grew the bus backlog without bound."""
    from repro.isa import AccessHint, HintBundle, PrefetchHint
    from repro.memory import UnifiedMemory

    mem = UnifiedMemory(l0_config(8))
    hints = HintBundle(access=AccessHint.PAR_ACCESS, prefetch=PrefetchHint.POSITIVE)
    mem.load(0, 0x100, 4, hints, cycle=0)
    for cycle in range(25, 40):
        mem.buses[0].grant(cycle)
    mem.load(0, 0x104, 4, hints, cycle=30)  # trigger on a busy bus
    assert mem.stats.dropped_prefetches >= 1


def test_seq_access_miss_request_uses_next_cycle():
    """SEQ misses must issue at t+1 (the compiler-guaranteed free slot),
    not at t (which would race the issuing memory op's own bus slot)."""
    from repro.isa import AccessHint, HintBundle
    from repro.memory import UnifiedMemory

    mem = UnifiedMemory(l0_config(8))
    mem.l1.load(0x200)  # warm L1
    ready = mem.load(0, 0x200, 4, HintBundle(access=AccessHint.SEQ_ACCESS), cycle=10)
    assert ready == 11 + 6


def test_negative_offset_modulo_rows():
    """Bottom-up placements may land at negative cycles before
    normalisation; reservation rows must wrap correctly."""
    from repro.scheduler import ModuloReservationTable
    from repro.isa import FUClass

    mrt = ModuloReservationTable(3, unified_config())
    mrt.fu_place(-2, FUClass.INT, 0)  # row 1
    assert not mrt.fu_can_place(1, FUClass.INT, 0)
    assert not mrt.fu_can_place(4, FUClass.INT, 0)


def test_schedule_start_times_normalized():
    """Whatever the internal placement order, published schedules start
    at cycle zero."""
    for seed in (1, 5, 9):
        compiled = compile_loop(random_loop(seed), l0_config(8))
        times = [op.start for op in compiled.schedule.all_placed_ops()]
        times += [c.start for c in compiled.schedule.comms]
        assert min(times) == 0
