"""Tests for the BASE scheduling engine and the compile driver."""

import pytest

from repro.analysis import check_schedule
from repro.ir import LoopBuilder, unroll
from repro.machine import (
    interleaved_config,
    l0_config,
    multivliw_config,
    unified_config,
)
from repro.pipeline import CompileOptions, scheduler_inputs
from repro.scheduler import compile_loop

from repro.workloads.kernels import make_column, make_dpcm, make_saxpy


class TestBaseScheduling:
    def test_saxpy_schedule_validates(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        assert check_schedule(compiled.schedule, compiled.ddg) == []

    def test_unrolled_saxpy_hits_res_mii(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        assert compiled.unroll_factor == 4
        assert compiled.ii == 3  # 12 memory ops / 4 slots

    def test_dpcm_hits_rec_mii(self, dpcm):
        compiled = compile_loop(dpcm, unified_config(), unroll_factor=1)
        assert compiled.ii == 10

    def test_cross_cluster_values_get_comms(self):
        # A single producer feeding many consumers forces cluster spread.
        b = LoopBuilder("fanout", trip_count=8)
        arr = b.array("a", 256, 4)
        v = b.load(arr, stride=1)
        k = b.live_in("k")
        for _ in range(7):
            v2 = b.iadd(v, k)
        loop = unroll(b.build(), 2)
        compiled = compile_loop(loop, unified_config(), unroll_factor=1)
        clusters = {op.cluster for op in compiled.schedule.placed.values()}
        if len(clusters) > 1:
            assert compiled.schedule.comms
        assert check_schedule(compiled.schedule, compiled.ddg) == []

    @pytest.mark.parametrize("scheduler", ["sms", "exact"])
    @pytest.mark.parametrize("make_loop", [make_saxpy, make_dpcm, make_column])
    def test_zero_buses_keep_values_local(self, make_loop, scheduler):
        """No buses is a real machine: each value stays in its producer's
        cluster, and the schedule still validates."""
        config = l0_config(8, n_buses=0)
        assert config.n_clusters == 4
        compiled = compile_loop(make_loop(), config, scheduler=scheduler)
        assert compiled.schedule.comms == []
        assert check_schedule(compiled.schedule, compiled.ddg) == []

    def test_all_loads_scheduled_with_l1_latency(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        for op in compiled.schedule.placed.values():
            if op.instr.is_load:
                assert op.latency == 6
                assert not op.hints.uses_l0

    def test_starts_normalized_to_zero(self, saxpy):
        compiled = compile_loop(saxpy, unified_config())
        assert min(op.start for op in compiled.schedule.placed.values()) == 0

    def test_impossible_loop_raises(self):
        """A recurrence that can never fit within MAX_II_SLACK still ends."""
        b = LoopBuilder("tight", trip_count=4)
        arr = b.array("a", 64, 4)
        v = b.load(arr, stride=1)
        k = b.live_in("k")
        w = b.iadd(v, k)
        b.store(arr, w, stride=1, offset=1)
        # This is schedulable; just assert it doesn't raise.
        compile_loop(b.build(), unified_config(), unroll_factor=1)


def chosen_unroll_factor(loop, config):
    """The factor the compile's ``select-unroll`` step picks."""
    return scheduler_inputs(loop, config, CompileOptions()).unroll_factor


class TestUnrollChoice:
    def test_stream_loop_unrolls(self, saxpy):
        assert chosen_unroll_factor(saxpy, unified_config()) == 4

    def test_recurrence_loop_stays_rolled(self, dpcm):
        assert chosen_unroll_factor(dpcm, unified_config()) == 1

    def test_same_choice_across_architectures(self, saxpy, dpcm):
        for loop in (saxpy, dpcm):
            choices = {
                chosen_unroll_factor(loop, cfg)
                for cfg in (
                    unified_config(),
                    l0_config(8),
                    multivliw_config(),
                    interleaved_config(),
                )
            }
            assert len(choices) == 1


class TestOtherPolicies:
    def test_multivliw_local_latency(self, saxpy):
        compiled = compile_loop(saxpy, multivliw_config())
        for op in compiled.schedule.placed.values():
            if op.instr.is_load:
                assert op.latency == multivliw_config().distributed_local_latency
        assert check_schedule(compiled.schedule, compiled.ddg) == []

    def test_interleaved_heuristic_2_remote_latency_for_unstable(self):
        cfg = interleaved_config()
        # elem 2 stride 1: home cluster changes -> unstable under H2.
        b = LoopBuilder("unstable", trip_count=16)
        arr = b.array("a", 512, 2)
        v = b.load(arr, stride=1)
        k = b.live_in("k")
        w = b.iadd(v, k)
        b.store(arr, w, stride=1)
        compiled = compile_loop(
            b.build(), cfg, unroll_factor=1, interleaved_heuristic=2
        )
        load_op = next(
            op for op in compiled.schedule.placed.values() if op.instr.is_load
        )
        assert load_op.latency == cfg.distributed_remote_latency

    def test_interleaved_heuristic_1_always_local(self, saxpy):
        cfg = interleaved_config()
        compiled = compile_loop(saxpy, cfg, interleaved_heuristic=1)
        for op in compiled.schedule.placed.values():
            if op.instr.is_load:
                assert op.latency == cfg.distributed_local_latency

    def test_policy_names(self, saxpy):
        assert compile_loop(saxpy, unified_config()).policy_name == "unified"
        assert compile_loop(saxpy, l0_config()).policy_name == "l0"
        assert compile_loop(saxpy, multivliw_config()).policy_name == "multivliw"
        assert (
            compile_loop(saxpy, interleaved_config(), interleaved_heuristic=2)
            .policy_name
            == "interleaved2"
        )
