"""Result records produced by the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass


def merge_stats(into, other):
    """Sum ``other``'s counters into ``into`` (recursively, in place).

    The memory subsystems' statistics records are nested dataclasses of
    numeric counters (derived quantities like hit rates are properties).
    The two-phase program runner simulates each loop against a private
    memory instance and stitches the per-loop statistics into one
    program-level record with this.
    """
    if type(into) is not type(other):
        raise TypeError(
            f"cannot merge {type(other).__name__} into {type(into).__name__}"
        )
    for f in fields(into):
        a = getattr(into, f.name)
        b = getattr(other, f.name)
        if is_dataclass(a) and not isinstance(a, type):
            merge_stats(a, b)
        elif isinstance(a, (int, float)):
            setattr(into, f.name, a + b)
        else:
            raise TypeError(
                f"stats field {f.name!r} is not mergeable ({type(a).__name__})"
            )
    return into


@dataclass
class LoopRunResult:
    """One execution of a modulo-scheduled loop (one invocation)."""

    iterations: int
    compute_cycles: int
    stall_cycles: int
    late_loads: int = 0
    #: Kernel iterations the executor actually interpreted cycle by
    #: cycle.  Equal to ``iterations`` unless the fast path's
    #: convergence early-exit proved a periodic steady state and
    #: fast-forwarded the rest exactly (the cycle counts are still exact
    #: either way; 0 on records predating the field).
    simulated_iterations: int = 0

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    def scaled(self, factor: float) -> "LoopRunResult":
        return LoopRunResult(
            iterations=int(self.iterations * factor),
            compute_cycles=int(round(self.compute_cycles * factor)),
            stall_cycles=int(round(self.stall_cycles * factor)),
            late_loads=int(round(self.late_loads * factor)),
            simulated_iterations=int(self.simulated_iterations * factor),
        )


@dataclass
class LoopResult:
    """A loop's full contribution to a program (all invocations)."""

    name: str
    ii: int
    unroll_factor: int
    trip_count: int
    invocations: int
    compute_cycles: int
    stall_cycles: int
    #: Kernel iterations interpreted cycle by cycle across the simulated
    #: invocations (honest measurement count — the rest of the bar was
    #: scaled or fast-forwarded).
    simulated_iterations: int = 0
    #: How the unsimulated remainder was covered: "none" (everything
    #: interpreted), "exact" (convergence early-exit, cycle counts still
    #: exact), "statistical" (sim-cap extrapolation from the steady-state
    #: stall rate and/or unsimulated invocations replicating the last
    #: warm run), or "exact+statistical" (both applied).
    extrapolated: str = "none"

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def total_iterations(self) -> int:
        """Kernel iterations the loop's cycle totals stand for."""
        return self.trip_count * self.invocations

    @property
    def measured_fraction(self) -> float:
        """Share of the loop's iterations that were actually interpreted."""
        total = self.total_iterations
        if not total:
            return 1.0
        return min(1.0, self.simulated_iterations / total)


@dataclass
class ProgramResult:
    """One benchmark simulated on one architecture."""

    benchmark: str
    arch: str
    loops: list[LoopResult] = field(default_factory=list)
    #: architecture-specific memory statistics object (MemoryStats /
    #: InterleavedStats / MSIStats)
    memory_stats: object | None = None

    @property
    def compute_cycles(self) -> int:
        return sum(l.compute_cycles for l in self.loops)

    @property
    def stall_cycles(self) -> int:
        return sum(l.stall_cycles for l in self.loops)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def measured_fraction(self) -> float:
        """Cycle-weighted share of the bar that was actually interpreted
        (the rest was exact fast-forward or statistical scaling)."""
        total = sum(l.total_cycles for l in self.loops)
        if not total:
            return 1.0
        return (
            sum(l.measured_fraction * l.total_cycles for l in self.loops) / total
        )

    @property
    def average_unroll_factor(self) -> float:
        """Dynamic-cycle-weighted average unroll factor (Figure 6 header)."""
        total = sum(l.total_cycles for l in self.loops)
        if not total:
            return 1.0
        return (
            sum(l.unroll_factor * l.total_cycles for l in self.loops) / total
        )
