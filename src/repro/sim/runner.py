"""Loop- and program-level simulation drivers.

``run_loop`` simulates one compiled loop's invocations: a capped number
of iterations per invocation, the steady state extrapolated to the
declared trip count, a cold first invocation and warm re-runs.  Every
simulated invocation ends in one L0 invalidate, the paper's inter-loop
coherence flush (section 4.1), and on the L0 architecture every
invocation pays :data:`INVALIDATE_OVERHEAD` cycles for it.

``run_program`` runs a whole benchmark as one loop over its loops:
``plan_program`` lays out the shared address space, then each loop, in
program order, compiles (through the compile-artifact cache), simulates
against a *private* memory instance at clock zero, and is summed into
the program record by ``merge_stats``.  Fan-out happens one level up:
experiments run whole programs in parallel through
``ExperimentContext(workers=N)``.

A loop whose simulator input repeats is simulated once: ``run_program``
looks each loop up in a memory-only loop memo (a ``KeyedCache``) under
``loop_key``, a content key over exactly what a fresh-memory,
clock-zero ``run_loop`` reads and no name.  A hit reuses the stored
``LoopResult`` under this loop's name and merges the stored memory
statistics.  ``execute_request`` passes the process-wide memo; a
direct call gets a private one.  The soundness argument is in
``docs/architecture.md``, "Simulate: the program runner".

The private-memory split means program-order L1 warm-up across loop
boundaries is not modelled (each loop's own invocations still warm its
caches).  No L0 state could cross a loop boundary anyway: the flush
that ends every invocation empties the buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..isa.memory_access import MemoryLayout
from ..machine.config import ArchKind, MachineConfig
from ..memory.hierarchy import UnifiedMemory
from ..memory.interleaved import WordInterleavedMemory
from ..memory.multivliw import MultiVLIWMemory
from ..scheduler.driver import CompiledLoop
from .stats import LoopResult, LoopRunResult, ProgramResult, merge_stats
from .trace import TraceExecutor, bind_events, static_trace

if TYPE_CHECKING:  # pragma: no cover
    from ..pipeline.cache import KeyedCache

#: Cycles charged per L0 flush for the invalidate_buffer instructions
#: (one VLIW cycle: the invalidate issues in all clusters).
INVALIDATE_OVERHEAD = 1

#: Warm invocations of a loop simulated after its cold first run; the
#: remaining invocations replicate the last warm one.
WARM_INVOCATIONS = 1


def make_memory(config: MachineConfig):
    if config.arch in (ArchKind.UNIFIED, ArchKind.L0):
        return UnifiedMemory(config)
    if config.arch is ArchKind.MULTIVLIW:
        return MultiVLIWMemory(config)
    if config.arch is ArchKind.INTERLEAVED:
        return WordInterleavedMemory(config)
    raise ValueError(f"unknown architecture {config.arch}")


@dataclass
class SimOptions:
    """Knobs shared by all experiments.

    ``compile_cache_dir`` tunes *where* compile artifacts persist,
    never what a simulation computes (the compile cache is
    content-addressed), so it is excluded from result-cache keys via
    ``no_cache_key``.
    """

    sim_cap: int = 1500  # max kernel iterations simulated per invocation
    compile_kwargs: dict = field(default_factory=dict)
    #: Scheduler backend every loop compiles with ("sms" or "exact").
    scheduler: str = "sms"
    #: Persist compile artifacts under this directory (None = in-memory
    #: process-wide cache only).
    compile_cache_dir: str | None = field(default=None, metadata={"no_cache_key": True})

    def __post_init__(self) -> None:
        if type(self.sim_cap) is not int:
            raise TypeError(f"sim_cap must be an int, got {self.sim_cap!r}")
        if self.sim_cap < 1:
            raise ValueError(f"sim_cap must be >= 1, got {self.sim_cap}")
        # Fail closed: an unknown scheduler or compile knob, or a value
        # CompileOptions rejects, raises here rather than at the first
        # compile (possibly inside a fleet worker) after being hashed
        # into a result-cache key.
        from ..pipeline.passes import CompileOptions

        CompileOptions(scheduler=self.scheduler, **self.compile_kwargs)


def _compile(loop, config: MachineConfig, options: SimOptions) -> CompiledLoop:
    """Compile one loop through the compile-artifact cache."""
    from ..pipeline.compilecache import compile_cached, get_compile_cache
    from ..pipeline.passes import CompileOptions

    return compile_cached(
        loop,
        config,
        CompileOptions(scheduler=options.scheduler, **options.compile_kwargs),
        cache=get_compile_cache(options.compile_cache_dir),
    )


def _extrapolated(
    executor, iterations: int, cap: int, clock: int
) -> tuple[LoopRunResult, int, bool]:
    """Run up to ``cap`` iterations and extrapolate the steady state.

    Returns the (possibly scaled) run result, the advanced clock, and
    whether the sim-cap extrapolation scaled an unsimulated remainder.
    ``result.simulated_iterations`` is the honest count of iterations
    actually interpreted.
    """
    simulated = min(iterations, cap)
    result = executor.run(simulated, start_cycle=clock)
    clock += result.total_cycles
    if simulated == iterations:
        return result, clock, False
    # Steady-state stall rate from the second half of the simulated run
    # (the first half absorbs cold misses).
    history = executor.last_stall_by_iteration
    half = simulated // 2
    tail = history[half:]
    rate = sum(tail) / len(tail) if tail else 0.0
    remaining = iterations - simulated
    total = LoopRunResult(
        iterations=iterations,
        compute_cycles=(iterations - 1) * executor.schedule.ii
        + executor.schedule.span,
        stall_cycles=result.stall_cycles + int(round(rate * remaining)),
        late_loads=result.late_loads,
        simulated_iterations=result.simulated_iterations,
    )
    clock += (total.compute_cycles - result.compute_cycles) + int(
        round(rate * remaining)
    )
    return total, clock, True


def run_loop(
    compiled: CompiledLoop,
    memory,
    layout: MemoryLayout,
    *,
    invocations: int = 1,
    options: SimOptions | None = None,
    clock: int = 0,
) -> tuple[LoopResult, int]:
    """Simulate all invocations of one compiled loop.

    The first invocation runs cold, the next :data:`WARM_INVOCATIONS`
    run warm, and the rest replicate the last simulated one.  Each
    simulated invocation ends in one ``invalidate_l0``, and on the L0
    architecture each of the ``invocations`` is charged
    :data:`INVALIDATE_OVERHEAD` cycles for its flush.  Returns the
    aggregated result and the advanced memory clock.
    """
    if type(invocations) is not int:
        raise TypeError(f"invocations must be an int, got {invocations!r}")
    if invocations < 1:
        raise ValueError(f"invocations must be >= 1, got {invocations}")
    options = options or SimOptions()
    executor = TraceExecutor(compiled, memory, layout)
    trip = compiled.loop.trip_count

    simulated = min(invocations, 1 + WARM_INVOCATIONS)
    compute = stall = simulated_iters = 0
    statistical = False
    for _ in range(simulated):
        last, clock, scaled = _extrapolated(executor, trip, options.sim_cap, clock)
        memory.invalidate_l0(clock)
        statistical = statistical or scaled
        simulated_iters += last.simulated_iterations
        compute += last.compute_cycles
        stall += last.stall_cycles
    remaining = invocations - simulated
    if remaining:
        # Unsimulated invocations replicate the last simulated run — a
        # statistical extrapolation like the sim-cap scaling, and
        # reported as such.
        statistical = True
        compute += remaining * last.compute_cycles
        stall += remaining * last.stall_cycles
    if compiled.schedule.config.arch is ArchKind.L0:
        overhead = invocations * INVALIDATE_OVERHEAD
        compute += overhead
        clock += overhead

    result = LoopResult(
        name=compiled.loop.name,
        ii=compiled.schedule.ii,
        unroll_factor=compiled.unroll_factor,
        trip_count=trip,
        invocations=invocations,
        compute_cycles=compute,
        stall_cycles=stall,
        simulated_iterations=simulated_iters,
        extrapolated="statistical" if statistical else "none",
    )
    return result, clock


def plan_program(benchmark, config: MachineConfig) -> MemoryLayout:
    """The program's one address space: every loop's arrays, in program
    order, so all loops address the same data at the same bases."""
    layout = MemoryLayout(align=config.l1_block)
    for spec in benchmark.loops:
        for array in spec.loop.arrays:
            layout.add(array)
    return layout


def loop_key(
    compiled: CompiledLoop,
    layout: MemoryLayout,
    machine: dict,
    *,
    invocations: int,
    sim_cap: int,
) -> str:
    """Content key of one loop's simulation in the loop memo.

    Covers exactly what ``run_loop`` reads on a fresh memory at clock
    zero: the bound trace events, the static trace's geometry, the
    artifact's II, unroll factor and trip count, the invocation count,
    the sim cap and ``machine``, the canonical ``MachineConfig``.  No
    name enters it, so loops that differ only in names share a key.
    """
    from ..pipeline.cache import _canonical, content_key

    static = static_trace(compiled)
    events = []
    for event in bind_events(static, layout):
        hints = event[5]
        if hints is not None:
            hints = [_canonical(getattr(hints, name)) for name in hints.__slots__]
        events.append([*event[:5], hints, *event[6:]])
    return content_key(
        {
            "events": events,
            "trace": [
                static.ii,
                static.span,
                static.history_window,
                len(static.ring_slots),
                static.stage_min,
                static.stage_max,
            ],
            "artifact": [
                compiled.ii,
                compiled.unroll_factor,
                compiled.loop.trip_count,
            ],
            "invocations": invocations,
            "sim_cap": sim_cap,
            "machine": machine,
        }
    )


def run_program(
    benchmark,
    config: MachineConfig,
    *,
    options: SimOptions | None = None,
    memo: KeyedCache | None = None,
) -> ProgramResult:
    """Compile and simulate a whole benchmark on one architecture.

    ``benchmark`` is a ``repro.workloads.Benchmark``: named, weighted
    loop specs sharing one address space.  Each loop simulates at clock
    zero against its own memory (see the module docstring); its
    statistics are summed into the program record in program order.

    ``memo`` is the loop memo each loop is looked up in before it is
    simulated; ``execute_request`` passes the process-wide one, and a
    call without it uses a private memo.
    """
    from ..pipeline.cache import KeyedCache, _canonical

    options = options or SimOptions()
    memo = memo if memo is not None else KeyedCache()
    machine = _canonical(config)
    layout = plan_program(benchmark, config)
    result = ProgramResult(
        benchmark=benchmark.name,
        arch=config.arch.value,
        memory_stats=make_memory(config).stats,
    )
    for spec in benchmark.loops:
        compiled = _compile(spec.loop, config, options)
        key = loop_key(
            compiled,
            layout,
            machine,
            invocations=spec.invocations,
            sim_cap=options.sim_cap,
        )
        shared = memo.get(key)
        if shared is None:
            memory = make_memory(config)
            loop_result, _ = run_loop(
                compiled, memory, layout, invocations=spec.invocations, options=options
            )
            stats = memory.stats
            memo.put(key, (loop_result, stats))
        else:
            loop_result, stats = shared
            loop_result.name = compiled.loop.name
        result.loops.append(loop_result)
        merge_stats(result.memory_stats, stats)
    return result
