"""Tests for the L0-aware scheduling policy (the paper's Figure-4 algorithm)."""


from repro.ir import LoopBuilder
from repro.isa import AccessHint, MapHint, PrefetchHint
from repro.machine import l0_config
from repro.scheduler import compile_loop

from repro.workloads.kernels import make_saxpy


def loads_of(compiled):
    return [op for op in compiled.schedule.placed.values() if op.instr.is_load]


def stores_of(compiled):
    return [op for op in compiled.schedule.placed.values() if op.instr.is_store]


class TestLatencyAssignment:
    def test_all_loads_l0_with_room(self, saxpy):
        compiled = compile_loop(saxpy, l0_config(8))
        assert all(op.latency == 1 for op in loads_of(compiled))

    def test_random_loads_never_use_l0(self):
        b = LoopBuilder("rnd", trip_count=16)
        t = b.array("t", 512, 4)
        v = b.load(t, random=True, tag="rnd")
        k = b.live_in("k")
        w = b.iadd(v, k)
        out = b.array("o", 512, 4)
        b.store(out, w, stride=1)
        compiled = compile_loop(b.build(), l0_config(8))
        rnd_ops = [op for op in loads_of(compiled) if op.instr.tag.startswith("rnd")]
        assert rnd_ops
        for op in rnd_ops:
            assert op.latency == 6
            assert op.hints.access is AccessHint.NO_ACCESS

    def test_tiny_buffers_demote_least_critical(self):
        """With a 2-entry buffer only N*NE/2 = 4 streams fit the budget."""
        b = LoopBuilder("many", trip_count=64)
        arrays = [b.array(f"a{i}", 512, 4) for i in range(6)]
        k = b.live_in("k")
        acc = None
        for idx, arr in enumerate(arrays):
            v = b.load(arr, stride=1, tag=f"ld{idx}")
            acc = v if acc is None else b.iadd(acc, v)
        out = b.array("out", 512, 4)
        b.store(out, acc, stride=1)
        compiled = compile_loop(b.build(), l0_config(2), unroll_factor=1)
        lats = sorted(op.latency for op in loads_of(compiled))
        assert 6 in lats  # someone was demoted
        assert 1 in lats  # someone kept L0

    def test_unbounded_marks_everything(self, saxpy):
        compiled = compile_loop(saxpy, l0_config(None))
        assert all(op.latency == 1 for op in loads_of(compiled))

    def test_schedule_validates(self, saxpy, dpcm, column):
        for loop in (saxpy, dpcm, column):
            compiled = compile_loop(loop, l0_config(8))
            assert compiled.schedule.validate(compiled.ddg) == []


class TestCoherence:
    def test_one_cluster_for_load_store_set(self, dpcm):
        compiled = compile_loop(dpcm, l0_config(8), unroll_factor=1)
        ld_prev = next(
            op for op in loads_of(compiled) if op.instr.tag == "ld_prev"
        )
        st = stores_of(compiled)[0]
        if ld_prev.latency == 1:  # scheduled with L0
            assert ld_prev.cluster == st.cluster
            assert st.hints.access is AccessHint.PAR_ACCESS

    def test_independent_store_bypasses_l0(self, column):
        compiled = compile_loop(column, l0_config(8))
        for op in stores_of(compiled):
            assert op.hints.access is AccessHint.NO_ACCESS

    def test_nl0_when_no_entries(self):
        """With all=NO buffers effectively (1-entry), dependent sets drop to NL0."""
        b = LoopBuilder("dep", trip_count=32)
        y = b.array("y", 512, 2)
        prev = b.load(y, stride=1, offset=0, tag="ldp")
        k = b.live_in("k")
        w = b.iadd(prev, k)
        b.store(y, w, stride=1, offset=1)
        compiled = compile_loop(b.build(), l0_config(1), unroll_factor=1)
        ldp = next(op for op in loads_of(compiled) if op.instr.tag == "ldp")
        # 1-entry buffer: budget floor keeps at least one candidate, but
        # either way the schedule must be coherent and valid.
        assert compiled.schedule.validate(compiled.ddg) == []
        if ldp.latency == 1:
            st = stores_of(compiled)[0]
            assert st.cluster == ldp.cluster


class TestHints:
    def test_interleaved_mapping_for_unrolled_streams(self, saxpy):
        compiled = compile_loop(saxpy, l0_config(8))
        assert compiled.unroll_factor == 4
        l0_loads = [op for op in loads_of(compiled) if op.latency == 1]
        mappings = {op.hints.mapping for op in l0_loads}
        assert MapHint.INTERLEAVED in mappings

    def test_interleaved_group_clusters_form_ring(self, saxpy):
        compiled = compile_loop(saxpy, l0_config(8))
        groups: dict[int, list] = {}
        for op in loads_of(compiled):
            if op.hints.mapping is MapHint.INTERLEAVED:
                groups.setdefault(op.instr.origin, []).append(op)
        assert groups
        for members in groups.values():
            members.sort(key=lambda o: o.instr.copy_index)
            base = members[0]
            for m in members[1:]:
                delta = m.instr.pattern.offset - base.instr.pattern.offset
                assert m.cluster == (base.cluster + delta) % 4

    def test_one_prefetch_hint_per_interleaved_group(self, saxpy):
        compiled = compile_loop(saxpy, l0_config(8))
        groups: dict[int, list] = {}
        for op in loads_of(compiled):
            if op.hints.mapping is MapHint.INTERLEAVED:
                groups.setdefault(op.instr.origin, []).append(op)
        for members in groups.values():
            hinted = [
                op for op in members if op.hints.prefetch is not PrefetchHint.NONE
            ]
            assert len(hinted) == 1
            assert hinted[0].start == min(op.start for op in members)

    def test_negative_stride_gets_negative_prefetch(self):
        from repro.workloads import kernels

        loop = kernels.stream_map(
            "rev", trip=64, n=512, elem=2, taps=1, alu_depth=5, negative=True
        )
        compiled = compile_loop(loop, l0_config(8))
        hints = {
            op.hints.prefetch
            for op in loads_of(compiled)
            if op.latency == 1 and op.hints.prefetch is not PrefetchHint.NONE
        }
        assert hints <= {PrefetchHint.NEGATIVE}
        assert hints

    def test_seq_access_requires_free_next_cycle(self):
        for loop_maker, cfg in ((make_saxpy, l0_config(8)),):
            compiled = compile_loop(loop_maker(), cfg)
            sched = compiled.schedule
            for op in loads_of(compiled):
                if op.hints.access is AccessHint.SEQ_ACCESS:
                    next_row = (op.start + 1) % sched.ii
                    assert sched.mem_busy(op.cluster, next_row) == 0

    def test_stride_zero_loads_have_no_prefetch(self):
        b = LoopBuilder("s0", trip_count=32)
        a = b.array("a", 64, 4)
        v = b.load(a, stride=0, tag="scalar")
        k = b.live_in("k")
        for _ in range(5):
            v = b.iadd(v, k)
        out = b.array("o", 512, 4)
        b.store(out, v, stride=1)
        compiled = compile_loop(b.build(), l0_config(8), unroll_factor=1)
        scalar_ops = [
            op for op in loads_of(compiled) if op.instr.tag.startswith("scalar")
        ]
        for op in scalar_ops:
            assert op.hints.prefetch is PrefetchHint.NONE


class TestExplicitPrefetch:
    def test_column_loads_get_explicit_prefetch(self, column):
        compiled = compile_loop(column, l0_config(8))
        l0_col_loads = [op for op in loads_of(compiled) if op.latency == 1]
        if l0_col_loads:
            assert compiled.schedule.prefetches
            covered = {pf.covers_uid for pf in compiled.schedule.prefetches}
            assert covered <= {op.instr.uid for op in l0_col_loads}

    def test_prefetch_in_same_cluster_as_load(self, column):
        compiled = compile_loop(column, l0_config(8))
        placed = compiled.schedule.placed
        for pf in compiled.schedule.prefetches:
            assert pf.cluster == placed[pf.covers_uid].cluster

    def test_prefetch_lookahead_covers_l1_latency(self, column):
        compiled = compile_loop(column, l0_config(8))
        ii = compiled.ii
        for pf in compiled.schedule.prefetches:
            load = compiled.schedule.placed[pf.covers_uid]
            gap = load.start - pf.start
            assert pf.distance * ii + gap >= l0_config().l1_latency + 1

    def test_no_prefetch_without_free_slots(self):
        from repro.workloads import kernels

        # All memory slots busy (the paper's pathological jpeg loop).
        loop = kernels.column_walk(
            "idct", trip=8, n=64, elem=2, stride=8, taps=3, alu_depth=1
        )
        compiled = compile_loop(loop, l0_config(8))
        rows = compiled.ii
        busy = sum(
            compiled.schedule.mem_busy(c, r) for c in range(4) for r in range(rows)
        )
        if busy >= 4 * rows:  # genuinely saturated
            assert not compiled.schedule.prefetches


class TestAblationFlags:
    def test_all_candidates_marks_more_or_equal(self):
        from repro.workloads import kernels

        loop = kernels.multi_stream(
            "wide", trip=128, n=1024, elem=2, inputs=4, alu_depth=2
        )
        selective = compile_loop(loop, l0_config(2))
        greedy = compile_loop(loop, l0_config(2), all_candidates=True)
        n_sel = sum(1 for op in loads_of(selective) if op.latency == 1)
        n_all = sum(1 for op in loads_of(greedy) if op.latency == 1)
        assert n_all >= n_sel

    def test_prefetch_distance_knob(self, column):
        compiled = compile_loop(column, l0_config(8), prefetch_distance=2)
        for op in loads_of(compiled):
            if op.latency == 1:
                assert op.hints.prefetch_distance == 2
        for pf in compiled.schedule.prefetches:
            assert pf.distance >= 2
