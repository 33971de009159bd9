"""Cycle-level execution of one modulo-scheduled loop.

The clusters run in lock-step, so a stall anywhere stalls everything:
the simulator keeps a single accumulated ``stall`` offset.  Instruction
instances are processed in scheduled order (iteration ``i`` of op ``n``
at ``start(n) + i * II``); when an instance's register sources are not
ready at its effective issue time (scheduled + stall so far), the
machine stalls for the difference — the stall-on-use interlock the
paper's "stall time" measures.  Only memory can be late: every other
producer's latency is deterministic and honoured by the schedule.

Inter-cluster values travel through the schedule's comm operations; an
arrival is ``max(comm's effective start, producer ready) + bus latency``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..ir.ddg import DepKind
from ..isa.memory_access import MemoryLayout
from ..isa.operations import Opcode
from ..scheduler.driver import CompiledLoop
from ..scheduler.schedule import PlacedComm, PlacedOp, PlacedPrefetch
from .stats import LoopRunResult


@dataclass
class _Item:
    """One schedulable unit in the kernel (op, replica or prefetch)."""

    start: int
    kind: str  # "op" | "replica" | "prefetch"
    op: PlacedOp | None = None
    prefetch: PlacedPrefetch | None = None


class LoopExecutor:
    """Executes a compiled loop against a memory system."""

    #: Iterations of producer history kept for readiness checks.
    HISTORY_SLACK = 8

    def __init__(
        self,
        compiled: CompiledLoop,
        memory,
        layout: MemoryLayout,
    ) -> None:
        self.compiled = compiled
        self.schedule = compiled.schedule
        self.config = compiled.schedule.config
        self.memory = memory
        self.layout = layout
        for array in compiled.loop.arrays:
            layout.ensure(array)

        self._items = self._build_items()
        self._deps = self._build_deps()
        max_distance = max(
            (e.distance for e in compiled.ddg.edges), default=0
        )
        self._history_window = (
            self.schedule.stage_count + max_distance + self.HISTORY_SLACK
        )

    # ------------------------------------------------------------------
    # Static preparation
    # ------------------------------------------------------------------

    def _build_items(self) -> list[_Item]:
        items: list[_Item] = []
        for start, kind, payload in self.schedule.kernel_items():
            if kind == "prefetch":
                items.append(_Item(start=start, kind=kind, prefetch=payload))
            else:
                items.append(_Item(start=start, kind=kind, op=payload))
        return items

    def _build_deps(self) -> dict[int, list[tuple[int, int, PlacedComm | None]]]:
        """uid -> [(producer uid, distance, comm or None)] for REG edges."""
        comm_of: dict[tuple[int, int], PlacedComm] = {}
        for comm in self.schedule.comms:
            key = (comm.producer_uid, comm.dst_cluster)
            best = comm_of.get(key)
            if best is None or comm.start + comm.latency < best.start + best.latency:
                comm_of[key] = comm
        deps: dict[int, list[tuple[int, int, PlacedComm | None]]] = {}
        for uid, op in self.schedule.placed.items():
            entries: list[tuple[int, int, PlacedComm | None]] = []
            for edge in self.compiled.ddg.preds[uid]:
                if edge.kind is not DepKind.REG:
                    continue
                src_op = self.schedule.placed.get(edge.src)
                if src_op is None:
                    continue
                comm = None
                if src_op.cluster != op.cluster:
                    comm = comm_of.get((edge.src, op.cluster))
                entries.append((edge.src, edge.distance, comm))
            if entries:
                deps[uid] = entries
        return deps

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, iterations: int, *, start_cycle: int = 0) -> LoopRunResult:
        """Execute ``iterations`` kernel iterations; returns cycle counts.

        ``start_cycle`` offsets all memory-system timestamps so repeated
        invocations see a monotonically advancing clock.
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        ii = self.schedule.ii
        stall = 0
        late_loads = 0
        ready: dict[tuple[int, int], int] = {}
        stall_by_iteration: list[int] = [0] * iterations
        items = self._items
        n_items = len(items)
        bus_latency = self.config.bus_latency

        # K-way merge over iterations: (abs scheduled time, item index, iter).
        heap: list[tuple[int, int, int]] = [
            (items[idx].start, idx, 0) for idx in range(n_items)
        ]
        heapq.heapify(heap)

        prune_mark = 0
        while heap:
            sched_abs, idx, iteration = heapq.heappop(heap)
            if iteration + 1 < iterations:
                heapq.heappush(heap, (sched_abs + ii, idx, iteration + 1))
            item = items[idx]
            t_eff = sched_abs + stall + start_cycle

            if item.kind == "prefetch":
                prefetch = item.prefetch
                assert prefetch is not None
                pattern = prefetch.instr.pattern
                assert pattern is not None
                addr = pattern.address(iteration + prefetch.distance, self.layout)
                self.memory.prefetch(
                    prefetch.cluster, addr, pattern.elem_size, t_eff
                )
            else:
                op = item.op
                assert op is not None
                uid = op.instr.uid
                # Interlock: wait for late register sources.
                if item.kind == "op":
                    for src, distance, comm in self._deps.get(uid, ()):
                        j = iteration - distance
                        if j < 0:
                            continue
                        r = ready.get((src, j))
                        if r is None:
                            continue
                        if comm is not None:
                            comm_eff = comm.start + j * ii + stall + start_cycle
                            r = max(r, comm_eff) + bus_latency
                        if r > t_eff:
                            delta = r - t_eff
                            stall += delta
                            stall_by_iteration[iteration] += delta
                            t_eff = r
                instr = op.instr
                if instr.is_load and item.kind == "op":
                    pattern = instr.pattern
                    assert pattern is not None
                    addr = pattern.address(iteration, self.layout)
                    done = self.memory.load(
                        op.cluster, addr, pattern.elem_size, op.hints, t_eff
                    )
                    ready[(uid, iteration)] = done
                    if done > t_eff + op.latency:
                        late_loads += 1
                elif instr.is_store:
                    pattern = instr.pattern
                    assert pattern is not None
                    addr = pattern.address(iteration, self.layout)
                    self.memory.store(
                        op.cluster,
                        addr,
                        pattern.elem_size,
                        op.hints,
                        t_eff,
                        is_primary=op.is_primary,
                    )
                elif instr.opcode is not Opcode.NOP and instr.dest is not None:
                    ready[(uid, iteration)] = t_eff + self.config.latency_of(
                        instr.opcode
                    )

            # Bounded history: drop producer records too old to matter.
            if iteration - prune_mark > 4 * self._history_window:
                horizon = iteration - self._history_window
                ready = {k: v for k, v in ready.items() if k[1] >= horizon}
                prune_mark = iteration

        compute = (iterations - 1) * ii + self.schedule.span
        self._last_stall_by_iteration = stall_by_iteration
        return LoopRunResult(
            iterations=iterations,
            compute_cycles=compute,
            stall_cycles=stall,
            late_loads=late_loads,
            simulated_iterations=iterations,
        )

    @property
    def last_stall_by_iteration(self) -> list[int]:
        """Per-iteration stall contributions of the most recent run()."""
        return getattr(self, "_last_stall_by_iteration", [])
