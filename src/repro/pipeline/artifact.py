"""Typed state threaded through the compile pipeline.

A :class:`CompilationArtifact` starts life holding only the inputs
(loop, machine config, compile options); each registered pass fills in
one or more derived fields (unroll factor, unrolled body, memory
disambiguation, DDG, policy, schedule).  The pass manager validates —
*before* running anything — that every pass's ``requires`` set is
provided by an earlier pass, so a misordered pipeline fails fast with a
:class:`PassOrderError` instead of an ``AttributeError`` mid-compile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from ..ir.ddg import DDG
from ..ir.loop import Loop
from ..ir.memdep import MemDepInfo
from ..machine.config import MachineConfig


class PipelineError(Exception):
    """Base class for pipeline construction/execution failures."""


class PassOrderError(PipelineError):
    """A pass's requirements are not met by the passes before it."""


@dataclass(frozen=True)
class CompileOptions:
    """Per-compile knobs, mirroring ``compile_loop``'s keyword surface.

    ``unroll_factor=None`` applies the paper's static heuristic; an
    integer forces that factor (tests and ablations).

    ``scheduler`` selects the backend scheduling pass (``"sms"`` — the
    heuristic engine — or ``"exact"``; see
    ``repro.pipeline.passes.SCHEDULER_PASSES``).  The ``exact_*`` knobs
    configure the exact backend's search: a node budget (placement
    trials before falling back to SMS) and an optional stage horizon
    (both inert under ``scheduler="sms"`` but still participating in
    compile-cache keys like every other option).  Both must be at least
    1; a smaller value raises ``ValueError``.

    ``analyze`` runs the independent static certifier
    (``repro.analysis``) over the finished artifact before it is cached;
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
        # Fail closed: a budget of 0 would fall back at the first trial,
        # and a horizon below one stage cannot hold a schedule.
        if self.exact_node_budget < 1:
            raise ValueError(
                f"exact_node_budget must be >= 1, got {self.exact_node_budget}"
            )
        if self.exact_max_stages is not None and self.exact_max_stages < 1:
            raise ValueError(
                f"exact_max_stages must be >= 1, got {self.exact_max_stages}"
            )


@dataclass
class CompilationArtifact:
    """Everything known about one loop compiling for one machine.

    Input fields are always set; product fields start as ``None`` and
    are populated by the pass that ``provides`` them.
    """

    # Inputs
    loop: Loop
    config: MachineConfig
    options: CompileOptions = field(default_factory=CompileOptions)

    # Products (filled in by passes)
    unroll_factor: int | None = None
    body: Loop | None = None
    dep_info: MemDepInfo | None = None
    ddg: DDG | None = None
    policy: object | None = None
    schedule: object | None = None
    #: ``list[repro.analysis.Diagnostic]`` once the ``analyze`` pass ran.
    analysis: object | None = None

    #: names of the passes that have run, in order (for diagnostics)
    trace: list[str] = field(default_factory=list)

    INPUT_FIELDS = ("loop", "config", "options")

    @classmethod
    def product_fields(cls) -> tuple[str, ...]:
        skip = set(cls.INPUT_FIELDS) | {"trace"}
        return tuple(f.name for f in fields(cls) if f.name not in skip)

    def require(self, pass_name: str, *names: str) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise PassOrderError(
                f"pass {pass_name!r} requires {missing} but no earlier pass "
                f"produced them (ran: {self.trace})"
            )

    @property
    def policy_name(self) -> str:
        if self.policy is None:
            raise PipelineError("no policy selected yet")
        return self.policy.name

    def compiled(self) -> "CompiledLoop":  # noqa: F821 - forward ref
        """Package the finished artifact as the legacy ``CompiledLoop``."""
        from ..scheduler.driver import CompiledLoop

        self.require("compiled", "body", "ddg", "policy", "schedule", "unroll_factor")
        return CompiledLoop(
            loop=self.body,
            schedule=self.schedule,
            ddg=self.ddg,
            policy_name=self.policy_name,
            unroll_factor=self.unroll_factor,
        )
