"""The compile flow: one fixed sequence of six steps.

:func:`compile_uncached` runs the paper's compilation flow (sections
4-5) in order — unroll choice, unrolling, memory disambiguation, DDG
construction, the architecture's memory policy, then modulo scheduling
(SMS or the exact search; the scheduler performs the L0 candidate
assignment through the policy) — and packages the result as a
``CompiledLoop``.  :func:`~repro.pipeline.compilecache.compile_cached`
runs it on a cache miss; nothing else compiles in production.

    compiled = compile_uncached(loop, config, CompileOptions(scheduler="exact"))

Each step is a named :class:`Pass` that reads the compile state (a
namespace holding ``loop``, ``config`` and ``options``) and sets the
product it makes on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

from ..ir import memdep
from ..ir.ddg import build_ddg
from ..ir.loop import Loop
from ..ir.unroll import unroll
from ..machine.config import ArchKind, MachineConfig
from ..scheduler.driver import CompiledLoop, choose_unroll_factor
from ..scheduler.engine import ClusterScheduler
from ..scheduler.exact import ExactScheduler
from ..scheduler.l0policy import L0Policy
from ..scheduler.policies import InterleavedPolicy, MultiVLIWPolicy, UnifiedPolicy


@dataclass(frozen=True)
class CompileOptions:
    """Per-compile knobs; ``compile_loop`` takes exactly these keywords.

    ``unroll_factor=None`` applies the paper's static heuristic; an
    integer forces that factor (tests and ablations).

    ``scheduler`` selects the scheduling step (``"sms"`` — the heuristic
    engine — or ``"exact"``; see :data:`SCHEDULERS`); any other name
    raises ``ValueError``.  The ``exact_*`` knobs configure the exact
    backend's search: a node budget (placement trials before falling
    back to SMS) and an optional stage horizon (both inert under
    ``scheduler="sms"`` but still participating in compile-cache keys
    like every other option).  Both must be at least 1; a smaller value
    raises ``ValueError``.

    ``analyze`` runs the independent static certifier
    (``repro.analysis``) over the compiled loop before it is cached;
    the verdict lands in ``schedule.meta["analysis"]`` and rides every
    future cache hit.
    """

    unroll_factor: int | None = None
    interleaved_heuristic: int = 1
    all_candidates: bool = False
    allow_psr: bool = False
    prefetch_distance: int = 1
    scheduler: str = "sms"
    exact_node_budget: int = 60_000
    exact_max_stages: int | None = None
    analyze: bool = False

    def __post_init__(self) -> None:
        # Fail closed: an unknown scheduler has no step to run, a budget
        # of 0 would fall back at the first trial, and a horizon below
        # one stage cannot hold a schedule.
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{sorted(SCHEDULERS)}"
            )
        if self.exact_node_budget < 1:
            raise ValueError(
                f"exact_node_budget must be >= 1, got {self.exact_node_budget}"
            )
        if self.exact_max_stages is not None and self.exact_max_stages < 1:
            raise ValueError(
                f"exact_max_stages must be >= 1, got {self.exact_max_stages}"
            )


@dataclass(frozen=True)
class Pass:
    """One named compile step: ``run(state)`` sets one product on the state.

    The steps could be plain calls.  They stay objects because the
    benchmark's layer tracer (``perfbench/layers.py``) times each step
    by wrapping ``Pass.__call__`` and mapping ``name`` to a layer.
    """

    name: str
    run: Callable[[SimpleNamespace], None]

    def __call__(self, state: SimpleNamespace) -> None:
        self.run(state)


def _select_unroll(state: SimpleNamespace) -> None:
    """Step 1: pick 1 or N via the static compute-time estimate."""
    forced = state.options.unroll_factor
    state.unroll_factor = (
        choose_unroll_factor(state.loop, state.config) if forced is None else forced
    )


def _apply_unroll(state: SimpleNamespace) -> None:
    state.body = unroll(state.loop, state.unroll_factor)


def _mem_disambiguation(state: SimpleNamespace) -> None:
    state.dep_info = memdep.analyze(state.body)


def _build_ddg(state: SimpleNamespace) -> None:
    state.ddg = build_ddg(state.body, state.config, state.dep_info)


def _select_policy(state: SimpleNamespace) -> None:
    state.policy = make_policy(state.body, state.config, state.dep_info, state.options)


def _modulo_schedule(state: SimpleNamespace) -> None:
    """Cluster-aware SMS; the policy performs L0/mapping assignment."""
    state.schedule = ClusterScheduler(state.ddg, state.config, state.policy).schedule()
    state.schedule.meta.setdefault("scheduler", "sms")


def _exact_schedule(state: SimpleNamespace) -> None:
    """Exact CP/branch-and-bound modulo scheduling (SMS fallback).

    Runs the heuristic engine first (fallback + upper bound), then
    searches every II in ``[MII, II(SMS) - 1]`` within the configured
    node budget; ``schedule.meta`` records the outcome.
    """
    engine = ExactScheduler(
        state.ddg,
        state.config,
        state.policy,
        node_budget=state.options.exact_node_budget,
        max_stages=state.options.exact_max_stages,
    )
    state.schedule = engine.schedule()


#: Steps 1-5, in order: everything the scheduling step starts from.
INPUT_STEPS: tuple[Pass, ...] = (
    Pass("select-unroll", _select_unroll),
    Pass("apply-unroll", _apply_unroll),
    Pass("mem-disambiguation", _mem_disambiguation),
    Pass("build-ddg", _build_ddg),
    Pass("select-policy", _select_policy),
)

#: Step 6: ``CompileOptions.scheduler`` -> its scheduling step.
SCHEDULERS: dict[str, Pass] = {
    "sms": Pass("modulo-schedule", _modulo_schedule),
    "exact": Pass("exact-schedule", _exact_schedule),
}


def make_policy(
    loop: Loop,
    config: MachineConfig,
    dep_info: memdep.MemDepInfo,
    options: CompileOptions,
):
    """Instantiate the memory policy matching the target architecture."""
    if config.arch is ArchKind.UNIFIED:
        return UnifiedPolicy(loop, config)
    if config.arch is ArchKind.L0:
        return L0Policy(
            loop,
            config,
            dep_info,
            all_candidates=options.all_candidates,
            allow_psr=options.allow_psr,
            prefetch_distance=options.prefetch_distance,
        )
    if config.arch is ArchKind.MULTIVLIW:
        return MultiVLIWPolicy(loop, config)
    if config.arch is ArchKind.INTERLEAVED:
        return InterleavedPolicy(loop, config, heuristic=options.interleaved_heuristic)
    raise ValueError(f"unknown architecture {config.arch}")


def scheduler_inputs(
    loop: Loop, config: MachineConfig, options: CompileOptions
) -> SimpleNamespace:
    """Run steps 1-5; the state holds the inputs plus ``unroll_factor``,
    ``body`` (the unrolled loop), ``dep_info``, ``ddg`` and ``policy``."""
    state = SimpleNamespace(loop=loop, config=config, options=options)
    for step in INPUT_STEPS:
        step(state)
    return state


def compile_uncached(
    loop: Loop, config: MachineConfig, options: CompileOptions | None = None
) -> CompiledLoop:
    """Compile one loop for one machine: all six steps, no cache."""
    options = options or CompileOptions()
    state = scheduler_inputs(loop, config, options)
    SCHEDULERS[options.scheduler](state)
    return CompiledLoop(
        loop=state.body,
        schedule=state.schedule,
        ddg=state.ddg,
        policy_name=state.policy.name,
        unroll_factor=state.unroll_factor,
    )
