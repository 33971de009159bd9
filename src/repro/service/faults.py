"""Deterministic fault injection for the sweep service (chaos harness).

Mirrors ``repro.fuzz``'s discipline: faults are *planned* up front from
a seed, not sprinkled from an ambient RNG, so a chaos drill is
reproducible.  A :class:`FaultPlan` maps worker *dispatch ordinals*
(the 0-based count of jobs handed to workers, retries included) to
faults; each planned fault fires exactly once.  Because the victim job
is whichever job happens to receive that ordinal, the plan pins the
fault *load*, while the service's recovery obligations (converge,
byte-identical, no duplicate simulations) must hold for any victim —
which is the property worth testing.

Fault kinds:

* ``kill``     — the worker SIGKILLs itself at job start: a crashed
  worker.  The supervisor must detect the dead process, restart it and
  re-queue the job.
* ``hang``     — the worker sleeps without heartbeating before running
  the job: a wedged worker.  The supervisor's heartbeat watchdog must
  kill and replace it.
* ``truncate`` — the worker's result-store write is torn: the entry
  file holds only a prefix of the blob.  Readers must treat it as a
  miss (the ``KeyedFileStore`` contract) and the sweep must re-derive
  the result from the in-memory copy or a re-run, never crash.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAULT_KINDS = ("kill", "hang", "truncate")


@dataclass(frozen=True)
class Fault:
    kind: str
    #: ``hang``: seconds to sleep silently (must exceed the policy's
    #: heartbeat timeout to trip the watchdog).  Unused otherwise.
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {"kind": self.kind, "seconds": self.seconds}


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, immutable schedule of faults by dispatch ordinal."""

    seed: int
    by_dispatch: tuple[tuple[int, Fault], ...] = ()

    @classmethod
    def generate(
        cls,
        seed: int,
        n_jobs: int,
        *,
        kills: int = 1,
        hangs: int = 1,
        truncates: int = 1,
        hang_seconds: float = 4.0,
    ) -> "FaultPlan":
        """Plan ``kills + hangs + truncates`` faults over a sweep.

        Ordinals are drawn (seeded) from the first ``n_jobs`` dispatches
        so every fault fires before the queue can drain; distinct
        ordinals keep at most one fault per dispatch.
        """
        wanted = kills + hangs + truncates
        if wanted > n_jobs:
            raise ValueError(
                f"cannot place {wanted} faults in a {n_jobs}-job sweep"
            )
        rng = random.Random(seed)
        ordinals = rng.sample(range(n_jobs), wanted)
        kinds = ["kill"] * kills + ["hang"] * hangs + ["truncate"] * truncates
        plan = tuple(
            (ordinal, Fault(kind, hang_seconds if kind == "hang" else 0.0))
            for ordinal, kind in sorted(zip(ordinals, kinds))
        )
        return cls(seed=seed, by_dispatch=plan)

    def fault_for(self, ordinal: int) -> Fault | None:
        for at, fault in self.by_dispatch:
            if at == ordinal:
                return fault
        return None

    def counts(self) -> dict[str, int]:
        out = {kind: 0 for kind in FAULT_KINDS}
        for _, fault in self.by_dispatch:
            out[fault.kind] += 1
        return out

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "faults": [
                {"dispatch": at, **fault.to_json()}
                for at, fault in self.by_dispatch
            ],
        }


def truncate_entry(store, key: str, blob: bytes) -> None:
    """Install a torn write for ``key``: the first half of ``blob``.

    Emulates a writer dying mid-``write`` on a filesystem that exposed
    the partial data (or a torn page after power loss).  The file is
    *installed* — readers will open it — but fails to decode, which is
    exactly the corruption the store's corrupt-entry-is-a-miss contract
    must absorb.
    """
    store._file(key).write_bytes(blob[: max(1, len(blob) // 2)])
