"""Top-level compilation driver.

``compile_loop`` is the public entry point: it compiles through the
compile cache, whose misses run the six compile steps of
:func:`repro.pipeline.passes.compile_uncached` — unroll choice,
unrolling, memory disambiguation, DDG build, policy selection, modulo
scheduling.  This module also holds the :class:`CompiledLoop` record
and the unroll heuristic (step 1 of the paper's algorithm; the same
unrolling decision is used for every architecture so comparisons are
not biased, sections 5.1-5.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.ddg import DDG, build_ddg
from ..ir.loop import Loop
from ..ir.unroll import unroll
from ..machine.config import MachineConfig
from .mii import rec_mii, res_mii
from .schedule import ModuloSchedule


@dataclass
class CompiledLoop:
    """A loop after unrolling and scheduling for one machine config."""

    loop: Loop  # the (possibly unrolled) body that was scheduled
    schedule: ModuloSchedule
    ddg: DDG
    policy_name: str
    unroll_factor: int
    #: Lazily built fast-path event trace (``repro.sim.trace.StaticTrace``).
    #: Derived purely from the schedule/DDG, so it is cached alongside
    #: the compiled artifact: persisted compile-cache entries carry it
    #: and warm runs skip the flattening.
    static_trace: object | None = None

    @property
    def ii(self) -> int:
        return self.schedule.ii


def estimate_compute_time(loop: Loop, config: MachineConfig) -> float:
    """Static per-original-iteration compute-time estimate (MII / factor).

    Uses the L1 latency for every load so the estimate — and therefore
    the unroll decision — is identical across architectures.
    """
    ddg = build_ddg(loop, config)
    mii = max(
        res_mii(loop, config),
        rec_mii(ddg, lambda uid: config.l1_latency),
    )
    return mii / loop.unroll_factor


def choose_unroll_factor(loop: Loop, config: MachineConfig) -> int:
    """Step 1: unroll by N when that lowers the static compute time.

    Ties go to unrolling for recurrence-free loops: it spreads memory
    operations across clusters (workload balance, free memory slots for
    prefetches), which is why the underlying BASE work recommends it.
    Loops bound by a loop-carried recurrence gain nothing from wider
    bodies (the recurrence scales with the factor), so ties keep them
    rolled to avoid the extra prologue and communication.
    """
    n = config.n_clusters
    base = estimate_compute_time(loop, config)
    unrolled = unroll(loop, n)
    wide = estimate_compute_time(unrolled, config)
    if wide < base:
        return n
    if wide == base:
        ddg = build_ddg(loop, config)
        if rec_mii(ddg, lambda uid: config.l1_latency) == 1:
            return n
    return 1


def compile_loop(loop: Loop, config: MachineConfig, **options) -> CompiledLoop:
    """Compile one inner loop for one machine configuration.

    ``options`` are the fields of :class:`repro.pipeline.CompileOptions`
    (an unknown keyword raises ``TypeError``): ``unroll_factor=None``
    applies the paper's static unroll heuristic, 1 or N forces a factor
    (used by tests and ablations); ``scheduler`` picks ``"sms"`` (the
    heuristic engine) or ``"exact"`` (branch-and-bound with SMS
    fallback; tune it with the ``exact_*`` knobs).

    Repeated compilations of an identical (loop, config, options) triple
    are served from the process-wide compile cache
    (:func:`repro.pipeline.compile_cached`).
    """
    from ..pipeline.compilecache import compile_cached
    from ..pipeline.passes import CompileOptions

    return compile_cached(loop, config, CompileOptions(**options))
