"""Checker 4: audit the fast-path trace's event prunings.

``repro.sim.trace._build_static_trace`` drops events and dependence
entries it argues can never be observed — ALU chains whose readiness is
deterministic, register dependences on non-load producers whose static
slack is provably non-positive.  Those arguments live in comments; this
module turns them into per-artifact machine checks:

* **A012** — a pruning the builder may not make: an interlock-check
  event missing for an instruction that consumes load results, or a
  load dependence missing from a kept event's table.  The pruning of
  every non-load register dependence rests on its static slack being
  non-positive, which is the dependence checker's A002 for that edge;
  ``certify_compiled`` always runs both, so it is not restated here.
* **A013** — the trace simply disagrees with the schedule: an event
  at the wrong position, a memory event missing or invented, a
  readiness ring slot absent, or a history window too small to hold
  the deepest loop-carried lookback.

The expected trace content is recomputed here from the schedule and
DDG alone; only the trace *format* (event kinds, field layout) is
shared with the builder.
"""

from __future__ import annotations

from ..ir.ddg import DepKind
from ..scheduler.driver import CompiledLoop
from ..sim.trace import EV_CHECK, EV_LOAD, EV_PREFETCH, EV_STORE, StaticTrace
from .dependence import earliest_arrivals
from .diagnostics import Diagnostic

_KIND_NAMES = {
    EV_LOAD: "load",
    EV_STORE: "store",
    EV_PREFETCH: "prefetch",
    EV_CHECK: "check",
}


def _expected_dep_tables(
    compiled: CompiledLoop,
) -> tuple[dict[int, list[tuple[int, int]]], dict[tuple[int, int], set[int]]]:
    """Per consumer, the load dependences the trace must keep.

    Returns ``deps[uid] = [(src_uid, distance), ...]`` over REG edges
    whose producer is a placed load, plus the comm starts an entry may
    legally record: for each cross-cluster pair, the starts of the
    comms achieving the earliest arrival in the consumer's cluster.
    """
    schedule = compiled.schedule
    best_arrival = earliest_arrivals(schedule)
    allowed_starts: dict[tuple[int, int], set[int]] = {}
    for comm in schedule.comms:
        key = (comm.producer_uid, comm.dst_cluster)
        if comm.start + comm.latency == best_arrival[key]:
            allowed_starts.setdefault(key, set()).add(comm.start)

    deps: dict[int, list[tuple[int, int]]] = {}
    for uid, op in schedule.placed.items():
        entries = []
        for edge in compiled.ddg.preds[uid]:
            if edge.kind is not DepKind.REG:
                continue
            src = schedule.placed.get(edge.src)
            if src is None or not src.instr.is_load:
                continue
            entries.append((edge.src, edge.distance))
        if entries:
            deps[uid] = entries
    return deps, allowed_starts


def _event_shapes(compiled: CompiledLoop, load_deps) -> list[tuple]:
    """The event multiset a faithful trace of this schedule contains."""
    schedule = compiled.schedule
    ii = schedule.ii
    shapes: list[tuple] = []
    for uid, op in schedule.placed.items():
        if op.instr.is_load:
            kind = EV_LOAD
        elif op.instr.is_store:
            kind = EV_STORE
        elif load_deps.get(uid):
            kind = EV_CHECK
        else:
            continue  # prunable; A002 checks the slack its drop rests on
        shapes.append(
            (
                kind,
                uid,
                op.cluster,
                op.start // ii,
                op.start % ii,
                op.latency,
                bool(op.is_primary),
                0,
            )
        )
    for op in schedule.replicas:
        shapes.append(
            (
                EV_STORE,
                op.instr.uid,
                op.cluster,
                op.start // ii,
                op.start % ii,
                op.latency,
                bool(op.is_primary),
                0,
            )
        )
    for pf in schedule.prefetches:
        shapes.append(
            (
                EV_PREFETCH,
                pf.covers_uid,
                pf.cluster,
                pf.start // ii,
                pf.start % ii,
                0,
                True,
                pf.distance,
            )
        )
    return shapes


def _describe(shape: tuple) -> str:
    kind, uid, cluster, stage, row, _lat, _prim, _pfd = shape
    return (
        f"{_KIND_NAMES.get(kind, kind)} event for uid {uid} "
        f"(cluster {cluster}, stage {stage}, row {row})"
    )


def audit_trace(compiled: CompiledLoop) -> list[Diagnostic]:
    """A012/A013: the cached trace faithfully represents the schedule."""
    trace = getattr(compiled, "static_trace", None)
    if not isinstance(trace, StaticTrace):
        return []  # nothing claimed, nothing to audit
    schedule = compiled.schedule
    out: list[Diagnostic] = []

    if trace.ii != schedule.ii or trace.span != schedule.span:
        out.append(
            Diagnostic.new(
                "A013",
                f"trace geometry (II={trace.ii}, span={trace.span}) does "
                f"not match the schedule (II={schedule.ii}, "
                f"span={schedule.span})",
            )
        )
        return out  # every downstream recomputation would be noise

    load_deps, allowed_starts = _expected_dep_tables(compiled)

    # Event multiset ----------------------------------------------------
    expected: dict[tuple, int] = {}
    for shape in _event_shapes(compiled, load_deps):
        expected[shape] = expected.get(shape, 0) + 1
    actual_events: dict[tuple, list] = {}
    for ev in trace.events:
        shape = (
            ev.kind,
            ev.uid,
            ev.cluster,
            ev.stage,
            ev.row,
            ev.latency,
            bool(ev.is_primary),
            ev.pf_distance,
        )
        actual_events.setdefault(shape, []).append(ev)
    for shape in sorted(set(expected) | set(actual_events)):
        have = len(actual_events.get(shape, ()))
        want = expected.get(shape, 0)
        if have < want:
            code = "A012" if shape[0] == EV_CHECK else "A013"
            verb = (
                "prunes the interlock"
                if shape[0] == EV_CHECK
                else "is missing the"
            )
            out.append(
                Diagnostic.new(
                    code,
                    f"trace {verb} {_describe(shape)} although the "
                    f"instruction "
                    + (
                        "consumes load results"
                        if shape[0] == EV_CHECK
                        else "is in the schedule"
                    ),
                )
            )
        elif have > want:
            out.append(
                Diagnostic.new(
                    "A013",
                    f"trace contains an unexpected {_describe(shape)}",
                )
            )

    # Dependence tables of kept primary events --------------------------
    for shape, evs in sorted(actual_events.items()):
        kind, uid, cluster, *_ = shape
        op = schedule.placed.get(uid)
        if (
            kind == EV_PREFETCH
            or op is None
            or op.cluster != cluster
            or bool(op.is_primary) != shape[6]
        ):
            continue  # replicas and foreign events carry no dep table
        want_entries = list(load_deps.get(uid, []))
        for ev in evs:
            got = list(ev.deps)
            for src, dist in want_entries:
                match = next(
                    (e for e in got if e[0] == src and e[1] == dist), None
                )
                if match is None:
                    out.append(
                        Diagnostic.new(
                            "A012",
                            f"trace prunes the load dependence "
                            f"{src}->{uid} (distance {dist}) from a kept "
                            f"event's table",
                        )
                    )
                    continue
                got.remove(match)
                src_op = schedule.placed[src]
                if src_op.cluster == op.cluster:
                    ok = match[2] is None
                else:
                    ok = match[2] in allowed_starts.get((src, op.cluster), ())
                if not ok:
                    out.append(
                        Diagnostic.new(
                            "A013",
                            f"dependence {src}->{uid} in the trace records "
                            f"comm start {match[2]}, which matches no best "
                            f"comm of the schedule",
                        )
                    )
            for extra in got:
                out.append(
                    Diagnostic.new(
                        "A013",
                        f"trace invents a dependence {extra[0]}->{uid} "
                        f"(distance {extra[1]}) absent from the DDG",
                    )
                )

    # Readiness ring and history window ---------------------------------
    needed_slots = {src for entries in load_deps.values() for (src, _d) in entries}
    for src in sorted(needed_slots):
        if src not in trace.ring_slots:
            out.append(
                Diagnostic.new(
                    "A013",
                    f"load {src} feeds kept dependences but has no "
                    f"readiness ring slot",
                )
            )
    slots = list(trace.ring_slots.values())
    if len(slots) != len(set(slots)):
        out.append(
            Diagnostic.new("A013", "readiness ring slots are not distinct")
        )
    max_distance = max((e.distance for e in compiled.ddg.edges), default=0)
    needed_window = schedule.stage_count + max_distance + 1
    if trace.history_window < needed_window:
        out.append(
            Diagnostic.new(
                "A013",
                f"history window {trace.history_window} cannot hold the "
                f"deepest lookback (needs >= {needed_window})",
            )
        )
    return out
