"""The pass-manager compile pipeline.

Every stage of the paper's compilation flow — unroll choice, unrolling,
memory disambiguation, DDG construction, policy selection, modulo
scheduling (which performs the L0 candidate assignment through the
policy) — is a named :class:`Pass` over a
:class:`~repro.pipeline.artifact.CompilationArtifact`.  The default
sequence reproduces the hard-wired driver exactly; new architectures or
schedulers slot in by registering a pass and naming it in a custom
sequence rather than editing the driver.

    manager = PassManager()                     # the default pipeline
    artifact = manager.run(loop, config)
    compiled = artifact.compiled()              # legacy CompiledLoop

Ordering is validated at construction time: a sequence whose pass
requires a product no earlier pass provides raises
:class:`~repro.pipeline.artifact.PassOrderError` before any work runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..ir import memdep
from ..ir.ddg import build_ddg
from ..ir.loop import Loop
from ..ir.unroll import unroll
from ..machine.config import ArchKind, MachineConfig
from .artifact import CompilationArtifact, CompileOptions, PassOrderError, PipelineError


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage.

    ``requires``/``provides`` name artifact product fields; they drive
    the static ordering validation in :class:`PassManager`.
    """

    name: str
    run: Callable[[CompilationArtifact], None]
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()

    def __call__(self, artifact: CompilationArtifact) -> None:
        artifact.require(self.name, *self.requires)
        self.run(artifact)
        artifact.trace.append(self.name)


_REGISTRY: dict[str, Pass] = {}


def register_pass(
    name: str,
    *,
    requires: Iterable[str] = (),
    provides: Iterable[str] = (),
) -> Callable[[Callable[[CompilationArtifact], None]], Pass]:
    """Decorator: register ``fn`` as a named pass in the global registry."""
    known = set(CompilationArtifact.product_fields())
    bad = (set(requires) | set(provides)) - known
    if bad:
        raise PipelineError(
            f"pass {name!r} names unknown artifact fields {sorted(bad)}"
        )

    def decorate(fn: Callable[[CompilationArtifact], None]) -> Pass:
        if name in _REGISTRY:
            raise PipelineError(f"pass {name!r} already registered")
        p = Pass(
            name=name,
            run=fn,
            requires=tuple(requires),
            provides=tuple(provides),
        )
        _REGISTRY[name] = p
        return p

    return decorate


def get_pass(name: str) -> Pass:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PipelineError(
            f"unknown pass {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def available_passes() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ----------------------------------------------------------------------
# The default passes (the paper's compilation flow, sections 4-5)
# ----------------------------------------------------------------------


@register_pass("select-unroll", provides=("unroll_factor",))
def _select_unroll(artifact: CompilationArtifact) -> None:
    """Step 1: pick 1 or N via the static compute-time estimate."""
    from ..scheduler.driver import choose_unroll_factor

    forced = artifact.options.unroll_factor
    artifact.unroll_factor = (
        choose_unroll_factor(artifact.loop, artifact.config)
        if forced is None
        else forced
    )


@register_pass("apply-unroll", requires=("unroll_factor",), provides=("body",))
def _apply_unroll(artifact: CompilationArtifact) -> None:
    artifact.body = unroll(artifact.loop, artifact.unroll_factor)


@register_pass("mem-disambiguation", requires=("body",), provides=("dep_info",))
def _mem_disambiguation(artifact: CompilationArtifact) -> None:
    artifact.dep_info = memdep.analyze(artifact.body)


@register_pass("build-ddg", requires=("body", "dep_info"), provides=("ddg",))
def _build_ddg(artifact: CompilationArtifact) -> None:
    artifact.ddg = build_ddg(artifact.body, artifact.config, artifact.dep_info)


@register_pass("select-policy", requires=("body", "dep_info"), provides=("policy",))
def _select_policy(artifact: CompilationArtifact) -> None:
    artifact.policy = make_policy(
        artifact.body, artifact.config, artifact.dep_info, artifact.options
    )


@register_pass("modulo-schedule", requires=("ddg", "policy"), provides=("schedule",))
def _modulo_schedule(artifact: CompilationArtifact) -> None:
    """Cluster-aware SMS; the policy performs L0/mapping assignment."""
    from ..scheduler.engine import ClusterScheduler

    # Guard the default pipeline against silently ignoring a scheduler
    # request: options asking for a different registered backend must
    # not fall through to SMS.  (Explicitly naming exact-schedule in a
    # custom sequence remains an explicit choice and is not guarded.)
    requested = artifact.options.scheduler
    if SCHEDULER_PASSES.get(requested, "modulo-schedule") != "modulo-schedule":
        raise PipelineError(
            f"options request scheduler {requested!r} but this pipeline runs "
            "'modulo-schedule'; build the pipeline via scheduler_pipeline"
            f"({requested!r}) or compile through compile_cached/compile_loop"
        )
    engine = ClusterScheduler(artifact.ddg, artifact.config, artifact.policy)
    artifact.schedule = engine.schedule()
    artifact.schedule.meta.setdefault("scheduler", "sms")


@register_pass("exact-schedule", requires=("ddg", "policy"), provides=("schedule",))
def _exact_schedule(artifact: CompilationArtifact) -> None:
    """Exact CP/branch-and-bound modulo scheduling (SMS fallback).

    Runs the heuristic engine first (fallback + upper bound), then
    searches every II in ``[MII, II(SMS) - 1]`` within the configured
    node budget; ``artifact.schedule.meta`` records the outcome.
    """
    from ..scheduler.exact import ExactScheduler

    engine = ExactScheduler(
        artifact.ddg,
        artifact.config,
        artifact.policy,
        node_budget=artifact.options.exact_node_budget,
        max_stages=artifact.options.exact_max_stages,
    )
    artifact.schedule = engine.schedule()


@register_pass("analyze", requires=("ddg", "schedule"), provides=("analysis",))
def _analyze(artifact: CompilationArtifact) -> None:
    """Opt-in: certify the schedule with the independent static checker.

    Appended to a pipeline (or triggered via ``options.analyze`` on the
    cached compile path) after a scheduler pass; the findings land in
    ``artifact.analysis`` and the verdict in ``schedule.meta``.
    """
    from ..analysis.certify import certify_schedule

    artifact.analysis = certify_schedule(artifact.schedule, artifact.ddg)


def make_policy(
    loop: Loop,
    config: MachineConfig,
    dep_info: memdep.MemDepInfo,
    options: CompileOptions,
):
    """Instantiate the memory policy matching the target architecture."""
    from ..scheduler.l0policy import L0Policy
    from ..scheduler.policies import InterleavedPolicy, MultiVLIWPolicy, UnifiedPolicy

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


#: The paper's flow, in order.
DEFAULT_PIPELINE: tuple[str, ...] = (
    "select-unroll",
    "apply-unroll",
    "mem-disambiguation",
    "build-ddg",
    "select-policy",
    "modulo-schedule",
)

#: Scheduler backends: ``CompileOptions.scheduler`` value -> the name of
#: the registered pass that provides ``schedule``.  A third backend
#: plugs in with ``@register_pass("my-schedule", requires=("ddg",
#: "policy"), provides=("schedule",))`` + ``register_scheduler("mine",
#: "my-schedule")`` — the compile cache, ``compile_loop(scheduler=...)``
#: and the eval CLI pick it up through this table.
SCHEDULER_PASSES: dict[str, str] = {
    "sms": "modulo-schedule",
    "exact": "exact-schedule",
}


def register_scheduler(name: str, pass_name: str) -> None:
    """Expose a registered schedule-providing pass as a scheduler backend."""
    if name in SCHEDULER_PASSES:
        raise PipelineError(f"scheduler {name!r} already registered")
    p = get_pass(pass_name)  # raises for unknown passes
    if "schedule" not in p.provides:
        raise PipelineError(
            f"pass {pass_name!r} does not provide 'schedule'; cannot back a scheduler"
        )
    SCHEDULER_PASSES[name] = pass_name


def scheduler_pipeline(scheduler: str = "sms") -> tuple[str, ...]:
    """The full pass sequence for one scheduler backend: the paper's
    flow with that backend's pass in the scheduling slot."""
    try:
        pass_name = SCHEDULER_PASSES[scheduler]
    except KeyError:
        raise PipelineError(
            f"unknown scheduler {scheduler!r}; registered: {sorted(SCHEDULER_PASSES)}"
        ) from None
    return DEFAULT_PIPELINE[:-1] + (pass_name,)


class PassManager:
    """An ordered, validated sequence of passes.

    Accepts pass names (resolved in the registry) or :class:`Pass`
    objects; validates at construction that each pass's ``requires`` is
    covered by the union of earlier passes' ``provides``.
    """

    def __init__(self, passes: Sequence[str | Pass] | None = None) -> None:
        chosen = DEFAULT_PIPELINE if passes is None else passes
        self.passes: tuple[Pass, ...] = tuple(
            p if isinstance(p, Pass) else get_pass(p) for p in chosen
        )
        self._validate()

    def _validate(self) -> None:
        provided: set[str] = set()
        for p in self.passes:
            missing = set(p.requires) - provided
            if missing:
                raise PassOrderError(
                    f"pass {p.name!r} requires {sorted(missing)} but the "
                    f"preceding passes only provide {sorted(provided)}"
                )
            provided |= set(p.provides)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def run(
        self,
        loop: Loop,
        config: MachineConfig,
        options: CompileOptions | None = None,
    ) -> CompilationArtifact:
        artifact = CompilationArtifact(
            loop=loop, config=config, options=options or CompileOptions()
        )
        for p in self.passes:
            p(artifact)
        return artifact
