"""Precompiled-trace fast path for the lock-step loop simulator.

The reference interpreter (:class:`repro.sim.executor.LoopExecutor`)
re-merges the kernel's instruction instances with a heap on every run:
each of the ``iterations x items`` events costs a heap pop/push, a dict
lookup keyed on ``(uid, iteration)`` and a polymorphic
``pattern.address()`` call.  But a modulo-scheduled kernel is *static*:
instance ``i`` of item ``k`` fires at ``start_k + i*II``, so the event
order inside any kernel window of ``II`` cycles is a fixed permutation.
This module exploits that two ways, producing byte-identical results:

1. **Precompiled event traces** — :func:`static_trace` flattens the
   schedule once per compiled loop into per-window event tuples (kind,
   stage, row, pruned dependence table, access-pattern closed form).
   Events that can have no observable effect are dropped outright: a
   register dependence on a non-load producer can never stall.  The
   producer's readiness is ``scheduled + latency`` under the *same or
   older* stall offset, and the dependence's static slack is
   non-positive: ``compile_cached`` certifies that (A002) for every
   artifact it stores, and so for every artifact ``run_loop``
   simulates.  So ALU chains vanish from the trace and only loads,
   stores, prefetches and load-consuming interlock checks remain.
   Readiness records live in a ring buffer indexed by
   ``slot x (iteration mod history_window)`` instead of a pruned dict.

2. **Affine address streams** — strided patterns export
   ``(base, offset, stride, n_elems, elem_size)``
   (:meth:`AccessPattern.affine`) and random ones inline the seeded
   hash, so per-access addresses are one inline expression.  Every
   memory event is one ``load``/``store``/``prefetch`` call, exactly as
   in the reference interpreter.

``run_loop`` always drives a :class:`TraceExecutor`.  The reference
interpreter stays as the oracle the differential tests compare it
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..ir.ddg import DepKind
from ..isa.memory_access import MemoryLayout, _splitmix64
from ..scheduler.driver import CompiledLoop
from ..scheduler.schedule import PlacedComm
from .stats import LoopRunResult

#: Event kinds in trace tuples.
EV_LOAD, EV_STORE, EV_PREFETCH, EV_CHECK = 0, 1, 2, 3


@dataclass
class _StaticEvent:
    """Build-time representation of one kernel-window event."""

    kind: int
    stage: int
    row: int
    cluster: int
    uid: int
    deps: tuple  # ((src_uid, distance, comm_start | None), ...)
    pattern: Any  # AccessPattern | None
    hints: Any
    latency: int
    is_primary: bool
    pf_distance: int


@dataclass
class StaticTrace:
    """The layout-independent fast-path trace of one compiled loop.

    Cached alongside the compiled artifact (``CompiledLoop.static_trace``)
    so persisted compile-cache entries carry it and warm runs skip the
    flattening entirely.
    """

    ii: int
    span: int
    events: list  # _StaticEvent, in canonical window order
    stage_min: int  # over kept events (0 when no events)
    stage_max: int
    history_window: int
    ring_slots: dict  # producer-load uid -> ring slot


def _load_dep_table(compiled: CompiledLoop) -> dict[int, tuple]:
    """uid -> ((src_uid, distance, comm_start | None), ...) — REG deps
    whose producer is a *load* (the only producers that can be late).

    Mirrors the reference executor's dependence table with the
    provably-inert entries removed: a non-load producer's readiness is
    its effective issue time plus a fixed latency, computed under a
    stall offset no newer than the consumer's, and its static slack is
    non-positive (``compile_cached`` certifies that, as A002, for every
    artifact it stores) — such an entry can never raise ``r > t_eff``,
    with or without a communication hop.
    """
    schedule = compiled.schedule
    comm_of: dict[tuple[int, int], PlacedComm] = {}
    for comm in schedule.comms:
        key = (comm.producer_uid, comm.dst_cluster)
        best = comm_of.get(key)
        if best is None or comm.start + comm.latency < best.start + best.latency:
            comm_of[key] = comm
    deps: dict[int, tuple] = {}
    for uid, op in schedule.placed.items():
        entries = []
        for edge in compiled.ddg.preds[uid]:
            if edge.kind is not DepKind.REG:
                continue
            src_op = schedule.placed.get(edge.src)
            if src_op is None or not src_op.instr.is_load:
                continue
            comm = None
            if src_op.cluster != op.cluster:
                comm = comm_of.get((edge.src, op.cluster))
            entries.append(
                (edge.src, edge.distance, comm.start if comm is not None else None)
            )
        if entries:
            deps[uid] = tuple(entries)
    return deps


def static_trace(compiled: CompiledLoop) -> StaticTrace:
    """Build (or fetch the cached) static trace of a compiled loop."""
    cached = getattr(compiled, "static_trace", None)
    if isinstance(cached, StaticTrace):
        return cached
    trace = _build_static_trace(compiled)
    compiled.static_trace = trace
    return trace


def _build_static_trace(compiled: CompiledLoop) -> StaticTrace:
    schedule = compiled.schedule
    ii = schedule.ii
    deps = _load_dep_table(compiled)

    max_distance = max((e.distance for e in compiled.ddg.edges), default=0)
    history_window = schedule.stage_count + max_distance + 8  # = reference

    # Ring slots for every load that some kept dependence reads.
    needed = {src for entries in deps.values() for (src, _, _) in entries}
    ring_slots = {uid: slot for slot, uid in enumerate(sorted(needed))}

    events: list[_StaticEvent] = []
    for start, kind, payload in schedule.kernel_items():
        stage, row = start // ii, start % ii
        if kind == "prefetch":
            events.append(
                _StaticEvent(
                    kind=EV_PREFETCH,
                    stage=stage,
                    row=row,
                    cluster=payload.cluster,
                    uid=payload.covers_uid,
                    deps=(),
                    pattern=payload.instr.pattern,
                    hints=None,
                    latency=0,
                    is_primary=True,
                    pf_distance=payload.distance,
                )
            )
            continue
        op = payload
        instr = op.instr
        ev_deps = deps.get(instr.uid, ()) if kind == "op" else ()
        if instr.is_load and kind == "op":
            ev_kind = EV_LOAD
        elif instr.is_store:
            ev_kind = EV_STORE
        elif ev_deps:
            ev_kind = EV_CHECK  # interlock check only (ALU consuming a load)
        else:
            # No memory access, no possible stall, and its readiness —
            # deterministic by schedule validity — is never read back:
            # the event cannot influence anything observable.
            continue
        events.append(
            _StaticEvent(
                kind=ev_kind,
                stage=stage,
                row=row,
                cluster=op.cluster,
                uid=instr.uid,
                deps=ev_deps,
                pattern=instr.pattern,
                hints=op.hints,
                latency=op.latency,
                is_primary=op.is_primary,
                pf_distance=0,
            )
        )

    # Canonical window order: events fire at q*II + row; ties resolve by
    # position in the start-sorted item list, which the stable sort by
    # row preserves — exactly the reference heap's pop order.
    order = sorted(range(len(events)), key=lambda k: events[k].row)
    events = [events[k] for k in order]

    stages = [e.stage for e in events]
    return StaticTrace(
        ii=ii,
        span=schedule.span,
        events=events,
        stage_min=min(stages) if stages else 0,
        stage_max=max(stages) if stages else 0,
        history_window=history_window,
        ring_slots=ring_slots,
    )


def bind_events(static: StaticTrace, layout: MemoryLayout) -> list[tuple]:
    """The static trace's events with addresses resolved against ``layout``.

    One tuple per event: ``(kind, stage, row, deps, cluster, hints,
    latency, slot, base, offset, stride, n_elems, elem_size, seed,
    extra)``, where ``deps`` names producers by ring slot and ``extra``
    is a store's primary flag or a prefetch's distance.  No loop, array
    or op name and no uid survives the binding, so the program runner
    keys its loop memo on these tuples (``repro.sim.runner.loop_key``).
    """
    events = []
    for e in static.events:
        if e.pattern is not None:
            affine = e.pattern.affine(layout)
            if affine is not None:
                base, off0, strd, nelems, esize = affine
                seedk = 0
            else:
                base = layout.base_of(e.pattern.array)
                off0, strd = 0, None
                nelems = e.pattern.array.n_elems
                esize = e.pattern.elem_size
                seedk = e.pattern.seed * 0x10001
        else:
            base = off0 = nelems = esize = seedk = 0
            strd = None
        deps = tuple(
            (static.ring_slots[src], dist, comm_start)
            for (src, dist, comm_start) in e.deps
        )
        slot = static.ring_slots.get(e.uid, -1) if e.kind == EV_LOAD else -1
        extra = e.pf_distance if e.kind == EV_PREFETCH else e.is_primary
        events.append(
            (
                e.kind,
                e.stage,
                e.row,
                deps,
                e.cluster,
                e.hints,
                e.latency,
                slot,
                base,
                off0,
                strd,
                nelems,
                esize,
                seedk,
                extra,
            )
        )
    return events


class TraceExecutor:
    """Fast-path executor: byte-identical to the reference interpreter.

    Binds a :class:`StaticTrace` to one (memory, layout) pair through
    :func:`bind_events`; the per-run inner loop walks the precompiled
    window events instead of a heap.
    """

    def __init__(self, compiled: CompiledLoop, memory, layout: MemoryLayout) -> None:
        self.compiled = compiled
        self.schedule = compiled.schedule
        self.config = compiled.schedule.config
        self.memory = memory
        self.layout = layout
        for array in compiled.loop.arrays:
            layout.ensure(array)

        self.static = static_trace(compiled)
        self.ii = self.static.ii
        self._window = self.static.history_window
        self._n_slots = len(self.static.ring_slots)
        self._events = bind_events(self.static, layout)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, iterations: int, *, start_cycle: int = 0) -> LoopRunResult:
        """Execute ``iterations`` kernel iterations; returns cycle counts.

        Byte-identical to ``LoopExecutor.run``: same stall totals and
        per-iteration history, same memory-system calls in the same
        order at the same cycles.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        n = iterations
        ii = self.ii
        events = self._events
        stall = 0
        late = 0
        history = [0] * n
        W = self._window
        ring_iter = [[-1] * W for _ in range(self._n_slots)]
        ring_val = [[0] * W for _ in range(self._n_slots)]
        bus_latency = self.config.bus_latency
        mem = self.memory
        mem_load = mem.load
        mem_store = mem.store
        mem_prefetch = mem.prefetch

        # Window q holds stage s of iteration q - s; every stage is live
        # in the steady windows [stage_max, n - 1 + stage_min].
        stage_min, stage_max = self.static.stage_min, self.static.stage_max
        steady_lo, steady_hi = stage_max, n - 1 + stage_min

        for q in range(n + stage_max):
            if steady_lo <= q <= steady_hi:
                window = events
            else:
                window = [e for e in events if 0 <= q - e[1] < n]
            qii = q * ii + start_cycle
            for (
                kind,
                stage,
                row,
                deps,
                cluster,
                hints,
                lat,
                slot,
                base,
                off0,
                strd,
                nelems,
                esize,
                seedk,
                extra,
            ) in window:
                i = q - stage
                t_eff = qii + row + stall
                for src_slot, dist, comm_start in deps:
                    j = i - dist
                    if j < 0:
                        continue
                    rs = j % W
                    if ring_iter[src_slot][rs] != j:
                        continue
                    r = ring_val[src_slot][rs]
                    if comm_start is not None:
                        ce = comm_start + j * ii + stall + start_cycle
                        if ce > r:
                            r = ce
                        r += bus_latency
                    if r > t_eff:
                        delta = r - t_eff
                        stall += delta
                        history[i] += delta
                        t_eff = r
                if kind == EV_LOAD:
                    if strd is not None:
                        addr = base + ((off0 + i * strd) % nelems) * esize
                    else:
                        addr = base + (_splitmix64(seedk + i) % nelems) * esize
                    done = mem_load(cluster, addr, esize, hints, t_eff)
                    if slot >= 0:
                        rs = i % W
                        ring_iter[slot][rs] = i
                        ring_val[slot][rs] = done
                    if done > t_eff + lat:
                        late += 1
                elif kind == EV_STORE:
                    if strd is not None:
                        addr = base + ((off0 + i * strd) % nelems) * esize
                    else:
                        addr = base + (_splitmix64(seedk + i) % nelems) * esize
                    mem_store(cluster, addr, esize, hints, t_eff, is_primary=extra)
                elif kind == EV_PREFETCH:
                    ip = i + extra
                    if strd is not None:
                        addr = base + ((off0 + ip * strd) % nelems) * esize
                    else:
                        addr = base + (_splitmix64(seedk + ip) % nelems) * esize
                    mem_prefetch(cluster, addr, esize, t_eff)
                # EV_CHECK: dependence check was the whole effect.

        compute = (n - 1) * ii + self.static.span
        self._last_stall_by_iteration = history
        return LoopRunResult(
            iterations=n,
            compute_cycles=compute,
            stall_cycles=stall,
            late_loads=late,
            simulated_iterations=n,
        )

    # ------------------------------------------------------------------
    # Introspection (mirrors the reference executor)
    # ------------------------------------------------------------------

    @property
    def last_stall_by_iteration(self) -> list[int]:
        """Per-iteration stall contributions of the most recent run()."""
        return getattr(self, "_last_stall_by_iteration", [])

    @property
    def last_converged(self) -> bool:
        """The trace executor interprets every window; never early-exits."""
        return False
