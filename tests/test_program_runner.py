"""Tests for the program runner: shared layout, flush overhead, counts,
and the loop memo that lets loops with equal simulator input share one
simulation."""

from dataclasses import replace

import pytest

from repro.ir import LoopBuilder
from repro.isa import ArrayRef, MemoryLayout
from repro.machine import interleaved_config, l0_config, unified_config
from repro.pipeline import KeyedCache, RunRequest, Session, execute_request
from repro.pipeline.cache import _canonical
from repro.scheduler import compile_loop
from repro.sim import (
    INVALIDATE_OVERHEAD,
    SimOptions,
    TraceExecutor,
    make_memory,
    plan_program,
    run_loop,
    run_program,
)
from repro.sim.runner import loop_key
from repro.sim.trace import bind_events, static_trace
from repro.workloads import Benchmark, LoopSpec, build, kernels


def _loop(name, *, loads=(), stores=(), trip=64, n=256):
    """A loop loading from ``loads`` arrays and storing to ``stores``."""
    b = LoopBuilder(name, trip_count=trip)
    k = b.live_in("k")
    acc = k
    for array_name in loads:
        arr = b.array(array_name, n, 4)
        acc = b.iadd(acc, b.load(arr, stride=1))
    for array_name in stores:
        arr = b.array(array_name, n, 4)
        b.store(arr, acc, stride=1)
    return b.build()


class TestPlanProgram:
    def test_layout_is_shared_across_plans(self):
        """``plan_program``'s one layout places every loop's arrays, an
        array two loops share at one base."""
        a = _loop("a", loads=("x",), stores=("y",))
        b = _loop("b", loads=("x", "z"))
        bench = Benchmark(name="plantest", loops=(LoopSpec(a, 1), LoopSpec(b, 1)))
        layout = plan_program(bench, l0_config(8))
        bases = {}
        for loop in (a, b):
            for array in loop.arrays:
                base = layout.base_of(array)
                assert base is not None, (loop.name, array.name)
                assert bases.setdefault(array.name, base) == base
        assert sorted(bases) == ["x", "y", "z"]
        assert len(set(bases.values())) == 3


class TestFlushOverheadAccounting:
    def _single(self, compiled):
        return (compiled.loop.trip_count - 1) * compiled.ii + compiled.schedule.span

    def test_n_invocations_pay_n_flushes_under_default_policy(self):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64, n=256), config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, _ = run_loop(compiled, memory, layout, invocations=3)
        single = self._single(compiled)
        assert result.compute_cycles == 3 * single + 3 * INVALIDATE_OVERHEAD

    def test_non_l0_architecture_never_pays(self):
        config = unified_config()
        compiled = compile_loop(kernels.make_saxpy(trip=64, n=256), config)
        memory = make_memory(config)
        layout = MemoryLayout(align=config.l1_block)
        result, _ = run_loop(compiled, memory, layout, invocations=2)
        single = self._single(compiled)
        assert result.compute_cycles == 2 * single


class TestInvocationCount:
    """A loop is entered at least once: a count below one is refused
    when the spec is built and when ``run_loop`` is called, instead of
    simulating one invocation and reporting the count."""

    @pytest.mark.parametrize("invocations", [0, -2])
    def test_loop_spec_rejects_non_positive_invocations(self, invocations):
        with pytest.raises(ValueError, match="invocations must be >= 1"):
            LoopSpec(kernels.make_saxpy(trip=64), invocations)

    @pytest.mark.parametrize("invocations", [0, -2])
    def test_run_loop_rejects_non_positive_invocations(self, invocations):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64), config)
        with pytest.raises(ValueError, match="invocations must be >= 1"):
            run_loop(
                compiled,
                make_memory(config),
                MemoryLayout(align=config.l1_block),
                invocations=invocations,
            )


class TestIntegerCounts:
    """Trip counts, invocation counts and the sim cap are ints: a float
    or a bool is refused with ``TypeError`` where the value is built,
    instead of yielding fractional cycle counts or failing deep inside
    the executor."""

    @pytest.mark.parametrize("trip", [64.5, 64.0, True])
    def test_loop_rejects_non_int_trip_count(self, trip):
        with pytest.raises(TypeError, match="trip_count must be an int"):
            kernels.make_saxpy(trip=trip)

    @pytest.mark.parametrize("invocations", [2.5, 2.0, True])
    def test_loop_spec_rejects_non_int_invocations(self, invocations):
        with pytest.raises(TypeError, match="invocations must be an int"):
            LoopSpec(kernels.make_saxpy(trip=64), invocations)

    @pytest.mark.parametrize("invocations", [2.5, True])
    def test_run_loop_rejects_non_int_invocations(self, invocations):
        config = l0_config(8)
        compiled = compile_loop(kernels.make_saxpy(trip=64), config)
        with pytest.raises(TypeError, match="invocations must be an int"):
            run_loop(
                compiled,
                make_memory(config),
                MemoryLayout(align=config.l1_block),
                invocations=invocations,
            )

    @pytest.mark.parametrize("sim_cap", [100.5, 100.0, True])
    def test_sim_options_reject_non_int_sim_cap(self, sim_cap):
        with pytest.raises(TypeError, match="sim_cap must be an int"):
            SimOptions(sim_cap=sim_cap)


class TestLoopLevelParallelism:
    """Per-loop simulation stitched into one program record."""

    def test_program_stats_are_merged_across_loops(self):
        bench = build("gsmdec")
        whole = run_program(bench, l0_config(8), options=SimOptions(sim_cap=120))
        assert whole.memory_stats.l0.accesses > 0
        total_loops = sum(
            run_program(
                Benchmark(name="one", loops=(spec,)),
                l0_config(8),
                options=SimOptions(sim_cap=120),
            ).memory_stats.l0.accesses
            for spec in bench.loops
        )
        assert whole.memory_stats.l0.accesses == total_loops


@pytest.fixture
def loop_memo(monkeypatch):
    """A fresh process-wide loop memo (the one ``execute_request`` uses)."""
    memo = KeyedCache()
    monkeypatch.setattr("repro.pipeline.executor.LOOP_MEMO", memo)
    return memo


def _count_runs(monkeypatch) -> list:
    """Record the loop name of every ``TraceExecutor.run`` call."""
    runs = []
    original = TraceExecutor.run

    def run(self, iterations, **kwargs):
        runs.append(self.compiled.loop.name)
        return original(self, iterations, **kwargs)

    monkeypatch.setattr(TraceExecutor, "run", run)
    return runs


def _program(*specs, name="memo"):
    return Benchmark(name=name, loops=tuple(specs))


#: The memo tests' one-loop program: trip 64 beyond the sim cap of 40.
MEMO_LOOP = _loop("memo_a", loads=("memo_a_x",), stores=("memo_a_y",))
MEMO_CONFIG = l0_config(8)
MEMO_OPTIONS = SimOptions(sim_cap=40)


class TestLoopMemo:
    """``run_program`` simulates a loop once per memo when its simulator
    input repeats, whatever the loop, its arrays or its program are
    called, and a hit renders exactly what a simulation would."""

    def test_twin_programs_share_loop_simulations(self, loop_memo, monkeypatch):
        config, options = l0_config(8), SimOptions(sim_cap=120)
        session = Session(options=options)
        runs = _count_runs(monkeypatch)
        dec = session.run(session.request("g721dec", config))
        assert runs and all(name.startswith("g721dec_") for name in runs)
        simulated = len(runs)
        enc = session.run(session.request("g721enc", config))
        assert loop_memo.stats.hits == 3
        assert len(runs) == simulated  # g721enc ran no simulation
        for name, shared in (("g721dec", dec), ("g721enc", enc)):
            direct = run_program(build(name), config, options=options)
            assert shared.benchmark == direct.benchmark
            assert shared.arch == direct.arch
            assert shared.loops == direct.loops  # names included
            assert shared.memory_stats == direct.memory_stats
        assert [loop.name for loop in enc.loops] == [
            f"g721enc_{kind}" for kind in ("pred", "adapt", "io")
        ]

    def test_renamed_copy_of_a_loop_hits(self, loop_memo):
        """Loop and array names differ, the arrays sit at the same bases."""
        copy = _loop("memo_b", loads=("memo_b_x",), stores=("memo_b_y",))
        first = run_program(
            _program(LoopSpec(MEMO_LOOP, 2)),
            MEMO_CONFIG,
            options=MEMO_OPTIONS,
            memo=loop_memo,
        )
        renamed = _program(LoopSpec(copy, 2), name="renamed")
        shared = run_program(renamed, MEMO_CONFIG, options=MEMO_OPTIONS, memo=loop_memo)
        assert (loop_memo.stats.hits, loop_memo.stats.misses) == (1, 1)
        assert shared == run_program(renamed, MEMO_CONFIG, options=MEMO_OPTIONS)
        assert shared.loops == [replace(first.loops[0], name="memo_b")]
        assert shared.memory_stats == first.memory_stats

    @pytest.mark.parametrize(
        "change",
        ["invocations", "sim_cap", "l0_size", "array_base"],
    )
    def test_a_change_to_one_input_misses(self, loop_memo, change):
        program = _program(LoopSpec(MEMO_LOOP, 2))
        run_program(program, MEMO_CONFIG, options=MEMO_OPTIONS, memo=loop_memo)
        config, options = MEMO_CONFIG, MEMO_OPTIONS
        if change == "invocations":
            program = _program(LoopSpec(MEMO_LOOP, 3))
        elif change == "sim_cap":
            options = SimOptions(sim_cap=MEMO_OPTIONS.sim_cap + 10)
        elif change == "l0_size":
            config = l0_config(16)
            # The loop binds to the same events on both sizes: only the
            # config tells the two simulations apart.
            assert _bound(MEMO_LOOP, config) == _bound(MEMO_LOOP, MEMO_CONFIG)
        else:
            lead = _loop("memo_lead", loads=("memo_lead_x",))
            program = _program(LoopSpec(lead, 1), LoopSpec(MEMO_LOOP, 2))
        run_program(program, config, options=options, memo=loop_memo)
        assert loop_memo.stats.hits == 0

    def test_interleaved_heuristics_share_equal_schedules(self, loop_memo):
        """epicdec's three loops schedule identically under both
        word-interleaved heuristics, so the second run simulates none."""
        results = [
            execute_request(
                RunRequest(
                    "epicdec",
                    interleaved_config(),
                    SimOptions(
                        sim_cap=120,
                        compile_kwargs={"interleaved_heuristic": heuristic},
                    ),
                )
            )
            for heuristic in (1, 2)
        ]
        assert (loop_memo.stats.hits, loop_memo.stats.misses) == (3, 3)
        assert results[0] == results[1]


def _bound(loop, config):
    """``loop``'s bound events in its one-loop program on ``config``."""
    layout = plan_program(_program(LoopSpec(loop, 1)), config)
    return bind_events(static_trace(compile_loop(loop, config)), layout)


def _perturb(compiled, layout, change):
    """Change one input of ``loop_key`` in place; returns the key's
    ``machine``, ``invocations`` and ``sim_cap`` arguments."""
    args = {"machine": _canonical(MEMO_CONFIG), "invocations": 2, "sim_cap": 40}
    static = compiled.static_trace
    if change == "event":
        static.events[0].cluster += 1
    elif change == "hints":
        event = next(e for e in static.events if e.hints is not None)
        event.hints = event.hints.replace(
            prefetch_distance=event.hints.prefetch_distance + 1
        )
    elif change == "base":
        layout.add(ArrayRef("memo_lead", 64, 4))
    elif change == "ring_size":
        compiled.static_trace = replace(
            static, ring_slots={**static.ring_slots, -1: len(static.ring_slots)}
        )
    elif change in ("ii", "span", "history_window", "stage_min", "stage_max"):
        value = getattr(static, change)
        compiled.static_trace = replace(static, **{change: value + 1})
    elif change == "artifact_ii":
        compiled.schedule.ii += 1
    elif change == "unroll_factor":
        compiled.unroll_factor += 1
    elif change == "trip_count":
        compiled.loop.trip_count += 1
    elif change == "machine":
        args["machine"] = _canonical(l0_config(16))
    elif change is not None:
        args[change] += 1
    return args


class TestLoopKey:
    """``loop_key`` covers every input ``run_loop`` reads: changing any
    one of them moves the key."""

    CHANGES = (
        "event",
        "hints",
        "base",
        "ring_size",
        "ii",
        "span",
        "history_window",
        "stage_min",
        "stage_max",
        "artifact_ii",
        "unroll_factor",
        "trip_count",
        "invocations",
        "sim_cap",
        "machine",
    )

    def _key(self, change):
        compiled = compile_loop(MEMO_LOOP, MEMO_CONFIG)
        layout = MemoryLayout(align=MEMO_CONFIG.l1_block)
        args = _perturb(compiled, layout, change)
        for array in MEMO_LOOP.arrays:
            layout.add(array)
        return loop_key(compiled, layout, **args)

    def test_every_input_moves_the_key(self):
        base = self._key(None)
        assert self._key(None) == base
        keys = {change: self._key(change) for change in self.CHANGES}
        assert base not in keys.values()
        assert len(set(keys.values())) == len(self.CHANGES)
