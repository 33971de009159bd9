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
   (:meth:`AccessPattern.affine`), so per-access addresses are one
   inline expression; statically stall-free runs of same-kind memory
   events are issued through the memory models' ``load_run`` /
   ``store_run`` batch entry points.

``run_loop`` always drives a :class:`TraceExecutor`.  The reference
interpreter stays as the oracle the differential tests compare it
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..ir.ddg import DepKind
from ..isa.memory_access import MemoryLayout, _splitmix64
from ..scheduler.driver import CompiledLoop
from ..scheduler.schedule import PlacedComm
from .stats import LoopRunResult

#: Event kinds in trace tuples.
EV_LOAD, EV_STORE, EV_PREFETCH, EV_CHECK = 0, 1, 2, 3

#: Largest input period (iterations) whose batch addresses are memoised
#: per phase; longer periods recompute each window's addresses.
ADDR_MEMO_PERIOD_CAP = 2048


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
    #: lcm of the access streams' input periods: every window's batch
    #: addresses repeat with this period, which is what lets the batch
    #: runs memoise them per phase.  None when any stream is non-affine
    #: (random); addresses are then recomputed every window.
    input_period: int | None


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
    period: int | None = 1
    for e in events:
        if e.pattern is None:
            continue
        p = e.pattern.input_period
        if p is None:
            period = None
            break
        period = period * p // math.gcd(period, p)

    return StaticTrace(
        ii=ii,
        span=schedule.span,
        events=events,
        stage_min=min(stages) if stages else 0,
        stage_max=max(stages) if stages else 0,
        history_window=history_window,
        ring_slots=ring_slots,
        input_period=period,
    )


def _batch_addrs(params, q: int) -> list:
    """Addresses of one batch run in window ``q`` (closed form)."""
    return [
        base
        + (
            ((off0 + (q - stage) * strd) % nelems)
            if strd is not None
            else _splitmix64(seedk + q - stage) % nelems
        )
        * esize
        for (stage, base, off0, strd, nelems, esize, seedk) in params
    ]


class TraceExecutor:
    """Fast-path executor: byte-identical to the reference interpreter.

    Binds a :class:`StaticTrace` to one (memory, layout) pair; the
    per-run inner loop walks precompiled window plans instead of a heap.
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
        self._bind()

    # ------------------------------------------------------------------
    # Binding: resolve addresses against the layout, plan the windows
    # ------------------------------------------------------------------

    def _bind(self) -> None:
        st = self.static
        self.ii = st.ii
        self._window = st.history_window
        self._n_slots = len(st.ring_slots)
        events = []
        for e in st.events:
            if e.pattern is not None:
                affine = e.pattern.affine(self.layout)
                if affine is not None:
                    base, off0, strd, nelems, esize = affine
                    seedk = 0
                else:
                    base = self.layout.base_of(e.pattern.array)
                    off0, strd = 0, None
                    nelems = e.pattern.array.n_elems
                    esize = e.pattern.elem_size
                    seedk = e.pattern.seed * 0x10001
            else:
                base = off0 = nelems = esize = seedk = 0
                strd = None
            deps = tuple(
                (st.ring_slots[src], dist, comm_start)
                for (src, dist, comm_start) in e.deps
            )
            slot = st.ring_slots.get(e.uid, -1) if e.kind == EV_LOAD else -1
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
        self._events = events
        cache_period = (
            st.input_period
            if st.input_period is not None and st.input_period <= ADDR_MEMO_PERIOD_CAP
            else None
        )
        self._segments = self._plan_segments(events, cache_period)

    @staticmethod
    def _batch_meta(evs, cache_period) -> tuple:
        """Precomputed per-segment statics: everything about a batch run
        that does not depend on the window or the stall offset.

        Addresses are a pure function of the window with period equal to
        the streams' input period, so each segment carries a per-phase
        address cache when that period is small enough to memoise.
        """
        rows = tuple(ev[2] for ev in evs)
        clusters = [ev[4] for ev in evs]
        widths = [ev[12] for ev in evs]
        hints_list = [ev[5] for ev in evs]
        slots = tuple(ev[7] for ev in evs)
        lats = tuple(ev[6] for ev in evs)
        extras = [ev[14] for ev in evs]
        # Prefetch lookahead folds into the stage: iteration (q - stage)
        # + distance == q - (stage - distance).
        params = tuple(
            (
                ev[1] - (ev[14] if ev[0] == EV_PREFETCH else 0),
                ev[8],
                ev[9],
                ev[10],
                ev[11],
                ev[12],
                ev[13],
            )
            for ev in evs
        )
        cache = [None] * cache_period if cache_period is not None else None
        return (
            rows,
            clusters,
            widths,
            hints_list,
            slots,
            lats,
            extras,
            params,
            cache,
            cache_period,
        )

    @classmethod
    def _plan_segments(cls, events, cache_period) -> list:
        """Split the steady window into scalar stretches and batch runs.

        A *run* is a maximal stretch of consecutive, dependence-free,
        same-kind memory events: no event in it can change the stall
        offset, so every address and issue cycle is known up front and
        the whole run goes through one ``load_run``/``store_run`` call.
        """
        segments: list = []
        scalar: list = []
        k = 0
        n = len(events)
        while k < n:
            ev = events[k]
            kind = ev[0]
            if kind == EV_CHECK or ev[3]:
                scalar.append(ev)
                k += 1
                continue
            j = k
            while j < n and events[j][0] == kind and not events[j][3]:
                j += 1
            if j - k < 3:
                scalar.extend(events[k:j])
                k = j
                continue
            if scalar:
                segments.append((0, tuple(scalar), None))
                scalar = []
            run = tuple(events[k:j])
            segments.append((kind + 1, run, cls._batch_meta(run, cache_period)))
            k = j
        if scalar:
            segments.append((0, tuple(scalar), None))
        return segments

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

        if events:
            stage_min, stage_max = self.static.stage_min, self.static.stage_max
            q_last = n - 1 + stage_max
            steady_lo, steady_hi = stage_max, n - 1 + stage_min
        else:
            q_last = -1
            steady_lo, steady_hi = 0, -1

        for q in range(q_last + 1):
            if steady_lo <= q <= steady_hi:
                plan = self._segments
            else:
                plan = (
                    (0, tuple(e for e in events if 0 <= q - e[1] < n), None),
                )

            qii = q * ii + start_cycle
            for mode, evs, meta in plan:
                if mode == 0:
                    for ev in evs:
                        (
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
                        ) = ev
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
                            mem_store(
                                cluster, addr, esize, hints, t_eff, is_primary=extra
                            )
                        elif kind == EV_PREFETCH:
                            ip = i + extra
                            if strd is not None:
                                addr = base + ((off0 + ip * strd) % nelems) * esize
                            else:
                                addr = base + (_splitmix64(seedk + ip) % nelems) * esize
                            mem_prefetch(cluster, addr, esize, t_eff)
                        # EV_CHECK: dependence check was the whole effect.
                    continue

                # Batch run: dependence-free, so the stall offset is
                # frozen for the whole run and addresses/cycles are
                # closed-form (and periodic — served from the per-phase
                # address cache once every phase has been seen).
                (
                    rows,
                    clusters,
                    widths,
                    hints_list,
                    slots,
                    lats,
                    extras,
                    params,
                    cache,
                    cache_period,
                ) = meta
                if cache is not None:
                    ph = q % cache_period
                    addrs = cache[ph]
                    if addrs is None:
                        addrs = _batch_addrs(params, q)
                        cache[ph] = addrs
                else:
                    addrs = _batch_addrs(params, q)
                t0 = qii + stall
                cycles = [t0 + r for r in rows]
                if mode == 1:  # loads
                    dones = mem.load_run(clusters, addrs, widths, hints_list, cycles)
                    for k, done in enumerate(dones):
                        slot = slots[k]
                        if slot >= 0:
                            i = q - evs[k][1]
                            rs = i % W
                            ring_iter[slot][rs] = i
                            ring_val[slot][rs] = done
                        if done > cycles[k] + lats[k]:
                            late += 1
                elif mode == 2:  # stores
                    mem.store_run(
                        clusters, addrs, widths, hints_list, cycles, extras
                    )
                else:  # mode == 3, prefetches
                    for k, addr in enumerate(addrs):
                        mem_prefetch(clusters[k], addr, widths[k], cycles[k])

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
