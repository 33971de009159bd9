"""The compile flow: one fixed sequence of six steps.

:func:`compile_uncached` runs the paper's compilation flow (sections
4-5) in order — unrolling, memory disambiguation and DDG construction
for each candidate body (the rolled loop and, unless the options force
a factor, the loop unrolled by N), the unroll choice between them, the
architecture's memory policy, then modulo scheduling (SMS or the exact
search; the scheduler performs the L0 candidate assignment through the
policy) — and packages the result as a ``CompiledLoop``.
:func:`~repro.pipeline.compilecache.compile_cached` runs it on a cache
miss, then certifies the result before storing it; nothing else
compiles in production.

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
from ..isa.instruction import Instruction
from ..machine.config import ArchKind, MachineConfig
from ..memory.interleaved import WORD
from ..scheduler.driver import CompiledLoop, unrolling_pays
from ..scheduler.engine import ClusterScheduler
from ..scheduler.exact import ExactScheduler
from ..scheduler.l0policy import L0Policy
from ..scheduler.policies import FixedLatencyPolicy


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
    raises ``ValueError``, and so does an ``interleaved_heuristic`` other
    than 1 or 2 or a ``prefetch_distance`` below 1.
    """

    unroll_factor: int | None = None
    interleaved_heuristic: int = 1
    all_candidates: bool = False
    allow_psr: bool = False
    prefetch_distance: int = 1
    scheduler: str = "sms"
    exact_node_budget: int = 60_000
    exact_max_stages: int | None = None

    def __post_init__(self) -> None:
        # Fail closed: an unknown scheduler has no step to run, a budget
        # of 0 would fall back at the first trial, a horizon below one
        # stage cannot hold a schedule, the interleaved L1 has two
        # heuristics, and a prefetch distance of 0 silently turns hint
        # prefetching off (below 0 it prefetches backwards).
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
        if self.interleaved_heuristic not in (1, 2):
            raise ValueError(
                "interleaved_heuristic must be 1 or 2, got "
                f"{self.interleaved_heuristic}"
            )
        if self.prefetch_distance < 1:
            raise ValueError(
                f"prefetch_distance must be >= 1, got {self.prefetch_distance}"
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


def _apply_unroll(state: SimpleNamespace) -> None:
    """The candidate bodies by unroll factor: the forced factor's, or the
    rolled loop and the loop unrolled by N for the unroll choice."""
    forced = state.options.unroll_factor
    factors = (1, state.config.n_clusters) if forced is None else (forced,)
    state.bodies = {factor: unroll(state.loop, factor) for factor in factors}


def _mem_disambiguation(state: SimpleNamespace) -> None:
    state.dep_infos = {f: memdep.analyze(body) for f, body in state.bodies.items()}


def _build_ddg(state: SimpleNamespace) -> None:
    state.ddgs = {
        f: build_ddg(body, state.config, state.dep_infos[f])
        for f, body in state.bodies.items()
    }


def _select_unroll(state: SimpleNamespace) -> None:
    """Keep one candidate and its products: the forced one, or 1 or N by
    the static compute-time estimate (:func:`unrolling_pays`)."""
    factor = state.options.unroll_factor
    if factor is None:
        wide = max(state.ddgs)
        pays = unrolling_pays(state.ddgs[1], state.ddgs[wide], state.config)
        factor = wide if pays else 1
    state.unroll_factor = factor
    state.body = state.bodies[factor]
    state.dep_info = state.dep_infos[factor]
    state.ddg = state.ddgs[factor]
    del state.bodies, state.dep_infos, state.ddgs


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
#: Steps 1-3 build every candidate body's products, so step 4's choice
#: reuses them instead of building the chosen body's again.
INPUT_STEPS: tuple[Pass, ...] = (
    Pass("apply-unroll", _apply_unroll),
    Pass("mem-disambiguation", _mem_disambiguation),
    Pass("build-ddg", _build_ddg),
    Pass("select-unroll", _select_unroll),
    Pass("select-policy", _select_policy),
)

#: Step 6: ``CompileOptions.scheduler`` -> its scheduling step.
SCHEDULERS: dict[str, Pass] = {
    "sms": Pass("modulo-schedule", _modulo_schedule),
    "exact": Pass("exact-schedule", _exact_schedule),
}


#: Iterations sampled when classifying a memory op's home cluster.
HOME_SAMPLE = 16


def _stable_home(instr: Instruction, n_clusters: int) -> int | None:
    """The word-interleaved L1 cluster holding the word ``instr``
    accesses in each of the first :data:`HOME_SAMPLE` iterations, or
    None when that cluster varies.

    Homes are computed from element offsets (arrays are block-aligned by
    the layout, so offsets are congruent with final addresses).
    """
    pattern = instr.pattern
    if pattern is None:
        return None
    homes = set()
    for i in range(HOME_SAMPLE):
        byte = pattern.element_index(i) * pattern.elem_size
        homes.add((byte // WORD) % n_clusters)
        if len(homes) > 1:
            return None
    return homes.pop()


def make_policy(
    loop: Loop,
    config: MachineConfig,
    dep_info: memdep.MemDepInfo,
    options: CompileOptions,
):
    """The memory policy of ``config.arch``: the one place that maps an
    architecture to a policy.

    The L0 machine gets the paper's :class:`L0Policy`.  Every other
    machine gets a :class:`FixedLatencyPolicy` with these load latencies:

    * **Unified L1**: every load is an L1 access, planned at
      ``l1_latency``.
    * **MultiVLIW** (distributed, snoop-coherent L1): every load is
      planned at ``distributed_local_latency``.  The hardware moves or
      replicates blocks to the requesting cluster (MSI snooping), so the
      scheduler assumes local hits, as the MultiVLIW paper's scheduler
      does for the common case; the simulator charges remote and
      coherence penalties as stalls.
    * **Word-interleaved L1** (Gibert et al., MICRO-35): address word
      ``w`` lives in cluster ``w mod N``.  A load or store is
      *home-stable* when every iteration's access lands in the same home
      cluster; its options try that cluster first.  Home-stable loads
      are planned at the local latency.  The heuristics differ in the
      latency of the rest: Interleaved 1 plans them at the local latency
      too (short schedules, stalls on remote accesses), Interleaved 2 at
      ``distributed_remote_latency`` (longer schedules, fewer stalls:
      remote accesses then rarely surprise the interlock).
    """
    if config.arch is ArchKind.L0:
        return L0Policy(
            loop,
            config,
            dep_info,
            all_candidates=options.all_candidates,
            allow_psr=options.allow_psr,
            prefetch_distance=options.prefetch_distance,
        )
    loads = [instr.uid for instr in loop.body if instr.is_load]
    local = config.distributed_local_latency
    if config.arch is ArchKind.UNIFIED:
        return FixedLatencyPolicy(
            "unified", config, dict.fromkeys(loads, config.l1_latency)
        )
    if config.arch is ArchKind.MULTIVLIW:
        return FixedLatencyPolicy("multivliw", config, dict.fromkeys(loads, local))
    if config.arch is ArchKind.INTERLEAVED:
        home = {}
        for instr in loop.body:
            if instr.is_load or instr.is_store:
                cluster = _stable_home(instr, config.n_clusters)
                if cluster is not None:
                    home[instr.uid] = cluster
        heuristic = options.interleaved_heuristic
        unstable = local if heuristic == 1 else config.distributed_remote_latency
        latency = {uid: local if uid in home else unstable for uid in loads}
        return FixedLatencyPolicy(f"interleaved{heuristic}", config, latency, home)
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
