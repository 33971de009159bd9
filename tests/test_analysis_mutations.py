"""Mutation harness: the certifier must catch every corruption class.

A checker proves nothing until it has been shown to *fail*: each test
here takes a certified-clean compiled artifact, applies one targeted
corruption, and asserts the expected stable diagnostic code appears.
Corruptions cover every certifier code (A001-A013) — the A014 advisory
path has its own tests in test_analysis.py — and PSR schedules, whose
store-address broadcasts follow their own A004 rule.

A companion property test closes the loop the other way: an artifact
the certifier passes simulates cleanly on the reference interpreter,
byte-identical to the fast path.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro.analysis.certify import certify_compiled
from repro.isa import MemoryLayout
from repro.machine import l0_config, multivliw_config, unified_config
from repro.pipeline.passes import CompileOptions
from repro.pipeline import KeyedCache
from repro.pipeline.compilecache import compile_cached
from repro.sim import LoopExecutor, TraceExecutor, make_memory
from repro.sim.trace import EV_CHECK, EV_LOAD
from repro.workloads import kernels

_CACHE = KeyedCache()


def _fresh(loop=None, config=None, **options):
    """A private, certified-clean compiled artifact to corrupt."""
    loop = loop or kernels.multi_stream(
        "mut_mix", trip=64, n=512, inputs=6, alu_depth=8
    )
    compiled = compile_cached(
        loop, config or l0_config(), CompileOptions(**options), cache=_CACHE
    )
    compiled = copy.deepcopy(compiled)
    assert certify_compiled(compiled) == [], "fixture must start clean"
    return compiled


def codes(compiled):
    return {d.code for d in certify_compiled(compiled)}


# ----------------------------------------------------------------------
# Schedule corruptions (A001-A007)
# ----------------------------------------------------------------------


def test_a001_dropped_instruction():
    compiled = _fresh()
    uid = next(
        uid for uid in compiled.schedule.placed if compiled.ddg.preds[uid]
    )
    del compiled.schedule.placed[uid]
    assert "A001" in codes(compiled)


def test_a001_comm_with_bogus_producer():
    compiled = _fresh()
    assert compiled.schedule.comms, "fixture must have comms"
    compiled.schedule.comms[0].producer_uid = 987654
    assert "A001" in codes(compiled)


def test_a002_consumer_moved_before_producer():
    """A non-load producer: the trace prunes such a dependence on the
    premise that its static slack is non-positive, and A002 is the one
    check of that premise."""
    compiled = _fresh()
    sched = compiled.schedule
    edge = next(
        e
        for e in compiled.ddg.edges
        if e.kind.value == "reg"
        and e.distance == 0
        and e.src in sched.placed
        and e.dst in sched.placed
        and not sched.placed[e.src].instr.is_load
    )
    sched.placed[edge.dst].start = 0
    sched.placed[edge.src].start = 50
    assert any(
        d.code == "A002" and d.message.startswith(f"edge {edge.src}->{edge.dst} ")
        for d in certify_compiled(compiled)
    )


def test_a003_stripped_comms():
    compiled = _fresh()
    assert compiled.schedule.comms, "fixture must have comms"
    compiled.schedule.comms.clear()
    assert "A003" in codes(compiled)


def test_a004_comm_before_production():
    compiled = _fresh()
    compiled.schedule.comms[0].start = -100
    assert "A004" in codes(compiled)


def test_a005_forged_comm_source_cluster():
    compiled = _fresh()
    comm = compiled.schedule.comms[0]
    comm.src_cluster = (comm.src_cluster + 1) % compiled.schedule.config.n_clusters
    assert "A005" in codes(compiled)


def test_a006_fu_collision():
    compiled = _fresh()
    sched = compiled.schedule
    loads = [op for op in sched.placed.values() if op.instr.is_load]
    a, b = loads[0], loads[1]
    b.cluster = a.cluster
    b.start = a.start
    assert "A006" in codes(compiled)


def test_a007_bus_oversubscription():
    compiled = _fresh()
    sched = compiled.schedule
    template = sched.comms[0]
    for _ in range(sched.config.n_buses + 1):
        sched.comms.append(copy.copy(template))
    assert "A007" in codes(compiled)


# ----------------------------------------------------------------------
# PSR store-address broadcasts (A004)
# ----------------------------------------------------------------------


def _broadcasts(compiled):
    return [comm for comm in compiled.schedule.comms if comm.dst_cluster == -1]


@pytest.mark.parametrize(
    "entries", [4, 8, 16, None], ids=["l0_4", "l0_8", "l0_16", "l0_unbounded"]
)
@pytest.mark.parametrize(
    "make", [kernels.make_saxpy, kernels.make_dpcm], ids=["saxpy", "dpcm"]
)
def test_psr_broadcasts_certify_clean(make, entries):
    """A PSR store's replicas wait for its address broadcast.  One that
    arrives by the store's issue cycle is legal, although it departs
    before the store's value is produced."""
    compiled = compile_cached(
        make(), l0_config(entries), CompileOptions(allow_psr=True), cache=_CACHE
    )
    assert _broadcasts(compiled), "fixture must replicate a store"
    assert certify_compiled(compiled) == []


def test_a004_broadcast_arrives_after_its_store():
    compiled = _fresh(kernels.make_saxpy(), l0_config(8), allow_psr=True)
    comm = _broadcasts(compiled)[0]
    store = compiled.schedule.placed[comm.producer_uid]
    comm.start = store.start - comm.latency + 1
    assert "A004" in codes(compiled)


# ----------------------------------------------------------------------
# Register / L0 corruptions (A008-A011)
# ----------------------------------------------------------------------


def test_a008_register_file_too_small():
    compiled = _fresh()
    sched = compiled.schedule
    sched.config = dataclasses.replace(sched.config, max_live_per_cluster=0)
    assert "A008" in codes(compiled)


def test_a009_l0_capacity_exceeded():
    compiled = _fresh()  # l0_config: 16 L0 streams across 4 clusters
    sched = compiled.schedule
    assert any(op.hints.uses_l0 for op in sched.placed.values() if op.instr.is_load)
    sched.config = dataclasses.replace(sched.config, l0_entries=1)
    assert "A009" in codes(compiled)


def test_a010_forged_load_latency():
    compiled = _fresh()
    sched = compiled.schedule
    victim = next(
        op
        for op in sched.placed.values()
        if op.instr.is_load and op.hints.uses_l0
    )
    victim.latency = sched.config.l1_latency + 3
    assert "A010" in codes(compiled)


def test_a011_is_covered_by_flush_audit():
    # The flush planner operates program-level, outside CompiledLoop;
    # its positive/negative cases live in test_analysis.py.  This stub
    # keeps the one-test-per-code inventory honest.
    from repro.analysis.diagnostics import CODES

    assert "A011" in CODES


# ----------------------------------------------------------------------
# Trace corruptions (A012-A013)
# ----------------------------------------------------------------------


def test_a012_deleted_interlock_check_event():
    compiled = _fresh()
    trace = compiled.static_trace
    victim = next(e for e in trace.events if e.kind == EV_CHECK)
    trace.events.remove(victim)
    assert "A012" in codes(compiled)


def test_a012_stripped_dependence_entry():
    compiled = _fresh()
    trace = compiled.static_trace
    victim = next(e for e in trace.events if e.deps)
    victim.deps = ()
    assert "A012" in codes(compiled)


def test_a013_removed_memory_event():
    compiled = _fresh()
    trace = compiled.static_trace
    victim = next(e for e in trace.events if e.kind == EV_LOAD)
    trace.events.remove(victim)
    assert "A013" in codes(compiled)


def test_a013_forged_geometry():
    compiled = _fresh()
    compiled.static_trace.ii += 1
    assert "A013" in codes(compiled)


def test_a013_missing_ring_slot():
    compiled = _fresh()
    trace = compiled.static_trace
    assert trace.ring_slots, "fixture must have load-fed dependences"
    trace.ring_slots.pop(next(iter(trace.ring_slots)))
    assert "A013" in codes(compiled)


def test_a013_shrunk_history_window():
    compiled = _fresh()
    compiled.static_trace.history_window = 0
    assert "A013" in codes(compiled)


# ----------------------------------------------------------------------
# Property: certifier-pass => clean reference simulation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", ["sms", "exact"])
@pytest.mark.parametrize(
    "config", [unified_config(), l0_config(), multivliw_config()]
)
def test_certified_artifacts_simulate_cleanly(config, scheduler):
    """An artifact the certifier passes runs on the reference
    interpreter without tripping an assertion, and the fast path agrees
    with it cycle-for-cycle — the simulator cross-check that anchors
    the certifier's verdict to executable reality."""
    for loop in (
        kernels.make_saxpy(),
        kernels.feedback("mut_fb", trip=64, n=256),
    ):
        compiled = compile_cached(
            loop, config, CompileOptions(scheduler=scheduler), cache=_CACHE
        )
        compiled = copy.deepcopy(compiled)
        assert certify_compiled(compiled) == []
        n = compiled.loop.trip_count
        layout = MemoryLayout(align=config.l1_block)
        ref = LoopExecutor(compiled, make_memory(config), layout).run(n)
        fast = TraceExecutor(compiled, make_memory(config), layout).run(n)
        assert (ref.compute_cycles, ref.stall_cycles) == (
            fast.compute_cycles,
            fast.stall_cycles,
        )
