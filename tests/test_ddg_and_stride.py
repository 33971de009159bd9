"""Tests for DDG construction, longest paths, and stride classification."""

import pytest

from repro.ir import (
    LoopBuilder,
    StrideClass,
    build_ddg,
    classify,
    dynamic_stride_stats,
    is_candidate,
    loop_candidates,
    unroll,
)
from repro.machine import unified_config


L1 = 6


def lat(uid):
    return L1


class TestDDGEdges:
    def test_register_flow_edges(self, saxpy):
        ddg = build_ddg(saxpy, unified_config())
        reg = ddg.reg_edges()
        # ld_x -> fmul, fmul -> fadd, ld_y -> fadd, fadd -> st_y.
        assert len(reg) == 4
        assert all(e.distance == 0 for e in reg)

    def test_load_edges_have_symbolic_latency(self, saxpy):
        ddg = build_ddg(saxpy, unified_config())
        load_uids = {i.uid for i in saxpy.loads}
        for edge in ddg.reg_edges():
            if edge.src in load_uids:
                assert edge.fixed_latency is None
                assert edge.latency({edge.src: 1}) == 1
                assert edge.latency(lat) == 6
            else:
                assert edge.fixed_latency is not None

    def test_accumulator_self_edge(self):
        from repro.isa import Opcode

        b = LoopBuilder("acc", trip_count=4)
        arr = b.array("x", 64, 4)
        v = b.load(arr, stride=1)
        b.accumulate(Opcode.IADD, v)
        ddg = build_ddg(b.build(), unified_config())
        self_edges = [e for e in ddg.edges if e.src == e.dst]
        assert len(self_edges) == 1
        assert self_edges[0].distance == 1


class TestLongestPaths:
    def test_earliest_times_respect_latency(self, saxpy):
        ddg = build_ddg(saxpy, unified_config())
        est = ddg.earliest_times(4, lat)
        assert est is not None
        by_tag = {ddg.instruction(uid).tag or uid: t for uid, t in est.items()}
        assert by_tag["st_y"] >= by_tag["ld_x"] + 6 + 2 + 2  # ld + fmul + fadd

    def test_infeasible_ii_returns_none(self, dpcm):
        ddg = build_ddg(dpcm, unified_config())
        # Recurrence: ld(6) + imul(2) + iadd(1) + store RAW(1) = 10 over d=1.
        assert ddg.earliest_times(9, lat) is None
        assert ddg.earliest_times(10, lat) is not None

    def test_slack_nonnegative_and_critical_cycle_zero(self, dpcm):
        ddg = build_ddg(dpcm, unified_config())
        slack = ddg.slack(10, lat)
        assert slack is not None
        assert all(s >= 0 for s in slack.values())
        ld_prev = next(i.uid for i in dpcm.body if i.tag == "ld_prev")
        assert slack[ld_prev] == 0  # on the binding recurrence

    def test_l0_latency_lowers_recurrence_bound(self, dpcm):
        ddg = build_ddg(dpcm, unified_config())
        assert ddg.earliest_times(5, lambda u: 1) is not None
        assert ddg.earliest_times(4, lambda u: 1) is None


class TestStrideAnalysis:
    def test_classification(self):
        b = LoopBuilder("mix", trip_count=4)
        a = b.array("a", 256, 4)
        t = b.array("t", 256, 4)
        unit = b.load(a, stride=1, tag="unit")
        rev = b.load(a, stride=-1, tag="rev")
        fixed = b.load(a, stride=0, tag="fixed")
        col = b.load(a, stride=8, tag="col")
        rnd = b.load(t, random=True, tag="rnd")
        loop = b.build()
        by_tag = {i.tag: i for i in loop.body}
        assert classify(by_tag["unit"]) is StrideClass.GOOD
        assert classify(by_tag["rev"]) is StrideClass.GOOD
        assert classify(by_tag["fixed"]) is StrideClass.GOOD
        assert classify(by_tag["col"]) is StrideClass.OTHER
        assert classify(by_tag["rnd"]) is StrideClass.NONSTRIDED
        assert is_candidate(by_tag["unit"])
        assert is_candidate(by_tag["col"])
        assert not is_candidate(by_tag["rnd"])
        assert len(loop_candidates(loop)) == 4

    def test_unrolled_stride_n_is_good(self, saxpy):
        wide = unroll(saxpy, 4)
        first_load = wide.loads[0]
        assert abs(first_load.pattern.stride) == 4
        assert classify(first_load, wide.unroll_factor) is StrideClass.GOOD

    def test_dynamic_stats(self):
        b = LoopBuilder("stats", trip_count=10)
        a = b.array("a", 256, 4)
        t = b.array("t", 256, 4)
        v = b.load(a, stride=1)
        w = b.load(t, random=True)
        x = b.load(a, stride=8)
        b.store(a, v, stride=1)
        loop = b.build()
        strided, good, other = dynamic_stride_stats(loop)
        assert (strided, good, other) == (3, 2, 1)

    def test_classify_rejects_non_memory(self, saxpy):
        alu = next(i for i in saxpy.body if not i.is_memory)
        with pytest.raises(ValueError):
            classify(alu)
