"""Tests for MII computation, SMS ordering and the reservation table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import LoopBuilder, build_ddg, unroll
from repro.isa import FUClass
from repro.machine import MachineConfig, l0_config, unified_config
from repro.scheduler import (
    Direction,
    ModuloReservationTable,
    compute_mii,
    rec_mii,
    res_mii,
    sms_order,
)


CFG = unified_config()
L1 = lambda uid: 6  # noqa: E731
L0 = lambda uid: 1  # noqa: E731


class TestResMII:
    def test_saxpy(self, saxpy):
        # 3 memory ops over 4 slots -> 1; 2 FP ops over 4 slots -> 1.
        assert res_mii(saxpy, CFG) == 1

    def test_unrolled_saxpy(self, saxpy):
        wide = unroll(saxpy, 4)
        # 12 memory ops over 4 slots -> 3.
        assert res_mii(wide, CFG) == 3

    def test_memory_bound(self):
        b = LoopBuilder("memheavy", trip_count=4)
        a = b.array("a", 256, 4)
        for k in range(9):
            b.load(a, stride=1, offset=k)
        assert res_mii(b.build(), CFG) == 3  # ceil(9/4)


class TestRecMII:
    def test_no_recurrence(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        assert rec_mii(ddg, L1) == 1

    def test_dpcm_l1_vs_l0(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        # ld(6/1) + imul(2) + iadd(1) + store RAW edge(1), distance 1.
        assert rec_mii(ddg, L1) == 10
        assert rec_mii(ddg, L0) == 5

    def test_compute_mii_takes_max(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        assert compute_mii(dpcm, ddg, CFG, L1) == 10

    def test_upper_hint_never_clamps(self, dpcm):
        """A too-small ``upper`` is a probe hint, not a ceiling.

        The exact scheduler's deepening loop seeds from MII; if a caller
        passing ResMII (here 1) as the hint could clamp a recurrence
        whose RecMII (10) exceeds it, the deepening loop would start
        below the true lower bound and "prove" optimality of an
        infeasible II.
        """
        ddg = build_ddg(dpcm, CFG)
        assert res_mii(dpcm, CFG) == 1
        for upper in (1, 2, 5, 9, 10, 11, 1000):
            assert rec_mii(ddg, L1, upper=upper) == 10

    def test_default_upper_is_a_true_bound(self, dpcm):
        """The default probe bound must dominate the real RecMII.

        The recurrence's latency lives almost entirely on distance-0
        edges (load + imul + iadd) with only a cheap distance-1 back
        edge; a bound summing distance-carrying edges alone (the old
        default: 2) undercuts the true RecMII of 10 and survives only
        via the doubling rescue.  The fixed default sums every edge.
        """
        ddg = build_ddg(dpcm, CFG)
        distance_only = 1 + sum(
            e.latency(L1) for e in ddg.edges if e.distance
        )
        all_edges = 1 + sum(e.latency(L1) for e in ddg.edges)
        true_rec = rec_mii(ddg, L1)
        assert distance_only < true_rec  # the old "bound" really was wrong
        assert all_edges >= true_rec

    def test_recurrence_dominates_resources_end_to_end(self, dpcm):
        """RecMII > ResMII must surface unclamped through compute_mii and
        the compiled II (the exact backend's deepening seed)."""
        from repro.scheduler import compile_loop

        ddg = build_ddg(dpcm, CFG)
        mii = compute_mii(dpcm, ddg, CFG, L1)
        assert mii == rec_mii(ddg, L1) > res_mii(dpcm, CFG)
        compiled = compile_loop(dpcm, CFG, unroll_factor=1, scheduler="exact")
        assert compiled.schedule.meta["mii"] == 10
        assert compiled.ii >= 10

    @pytest.mark.parametrize("scheduler", ["sms", "exact"])
    def test_one_compute_mii_per_compile(self, monkeypatch, scheduler):
        """The exact scheduler hands its MII to the SMS baseline it runs
        first, so every compile computes the MII once."""
        from repro.pipeline import CompileOptions, compile_uncached
        from repro.scheduler import engine, exact
        from repro.workloads import mediabench

        real = engine.compute_mii
        calls = []

        def counting(*args):
            calls.append(args[0].name)
            return real(*args)

        monkeypatch.setattr(engine, "compute_mii", counting)
        monkeypatch.setattr(exact, "compute_mii", counting, raising=False)
        loops = [spec.loop for spec in mediabench.build("gsmenc").loops]
        options = CompileOptions(scheduler=scheduler)
        improved = 0
        for loop in loops:
            meta = compile_uncached(loop, l0_config(8), options).schedule.meta
            improved += meta.get("improved", False)
        assert len(calls) == len(loops)
        if scheduler == "exact":
            assert improved  # the search ran past the baseline somewhere


class TestSMSOrder:
    def test_all_nodes_ordered_once(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        order = sms_order(ddg, 2, L1)
        assert sorted(uid for uid, _ in order) == sorted(ddg.nodes)

    def test_neighbour_property(self, dpcm):
        """Every node except component seeds touches an earlier node."""
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 10, L1)
        seen: set[int] = set()
        seeds = 0
        for uid, _ in order:
            neighbours = {e.dst for e in ddg.succs[uid]}
            neighbours |= {e.src for e in ddg.preds[uid]}
            if not neighbours & seen:
                seeds += 1
            seen.add(uid)
        assert seeds <= 2  # dpcm has at most 2 weakly-connected components

    def test_most_critical_node_first(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 10, L1)
        slack = ddg.slack(10, L1)
        first_uid = order[0][0]
        assert slack[first_uid] == min(slack.values())

    def test_directions_assigned(self, saxpy):
        ddg = build_ddg(saxpy, CFG)
        directions = {d for _, d in sms_order(ddg, 2, L1)}
        assert directions <= {Direction.TOP_DOWN, Direction.BOTTOM_UP}

    def test_infeasible_ii_still_produces_order(self, dpcm):
        ddg = build_ddg(dpcm, CFG)
        order = sms_order(ddg, 1, L1)  # below RecMII
        assert len(order) == len(ddg.nodes)


class TestMRT:
    def test_capacity_enforced(self):
        mrt = ModuloReservationTable(2, CFG)
        mrt.fu_place(0, FUClass.MEM, 0)
        assert not mrt.fu_can_place(0, FUClass.MEM, 0)
        assert mrt.fu_can_place(1, FUClass.MEM, 0)
        assert mrt.fu_can_place(0, FUClass.MEM, 1)
        with pytest.raises(ValueError):
            mrt.fu_place(0, FUClass.MEM, 0)

    def test_modulo_wrapping(self):
        mrt = ModuloReservationTable(3, CFG)
        mrt.fu_place(7, FUClass.INT, 2)  # row 1
        assert not mrt.fu_can_place(1, FUClass.INT, 2)
        assert not mrt.fu_can_place(4, FUClass.INT, 2)
        assert mrt.fu_can_place(2, FUClass.INT, 2)

    def test_negative_cycles_wrap(self):
        mrt = ModuloReservationTable(4, CFG)
        mrt.fu_place(-1, FUClass.INT, 0)  # row 3
        assert not mrt.fu_can_place(3, FUClass.INT, 0)

    def test_bus_pool(self):
        mrt = ModuloReservationTable(1, CFG)
        for _ in range(4):
            mrt.bus_place(0)
        assert not mrt.bus_can_place(0)
        mrt.bus_remove(0)
        assert mrt.bus_can_place(0)

    def test_remove_unplaced_raises(self):
        mrt = ModuloReservationTable(2, CFG)
        with pytest.raises(ValueError):
            mrt.fu_remove(0, FUClass.INT, 0)

    def test_bad_ii_rejected(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(0, CFG)

    def test_capacities(self):
        """Each cluster's row takes its class's unit count; the bus pool
        takes ``n_buses`` across the whole machine."""
        config = l0_config(int_units_per_cluster=2, fp_units_per_cluster=3, n_buses=5)
        units = {FUClass.INT: 2, FUClass.MEM: 1, FUClass.FP: 3}
        mrt = ModuloReservationTable(2, config)
        for fu_class, count in units.items():
            for cluster in range(config.n_clusters):
                for _ in range(count):
                    mrt.fu_place(1, fu_class, cluster)
                assert not mrt.fu_can_place(1, fu_class, cluster)
                assert mrt.fu_used(1, fu_class, cluster) == count
                assert mrt.fu_can_place(0, fu_class, cluster)
        for taken in range(5):
            assert mrt.bus_free(0) == 5 - taken
            mrt.bus_place(0)
        assert not mrt.bus_can_place(0)
        assert mrt.bus_free(1) == 5

    @pytest.mark.parametrize("fu_class", [FUClass.BUS, FUClass.NONE])
    def test_non_unit_classes_rejected(self, fu_class):
        mrt = ModuloReservationTable(2, l0_config())
        for method in (mrt.fu_can_place, mrt.fu_place, mrt.fu_remove, mrt.fu_used):
            with pytest.raises(ValueError, match="not a per-cluster FU class"):
                method(0, fu_class, 0)

    @pytest.mark.parametrize("cluster", [-1, 4, 9])
    def test_out_of_range_cluster_rejected(self, cluster):
        mrt = ModuloReservationTable(2, l0_config())
        for method in (mrt.fu_can_place, mrt.fu_place, mrt.fu_remove, mrt.fu_used):
            with pytest.raises(ValueError, match="out of range"):
                method(0, FUClass.INT, cluster)


class DictMRT:
    """Reference model: the dict-of-``(row, resource)`` reservation table
    the flat one replaced.  A resource is an ``(FUClass, cluster)`` pair
    or ``"bus"``; every query hashes it."""

    PER_CLUSTER = (FUClass.INT, FUClass.MEM, FUClass.FP)

    def __init__(self, ii: int, config: MachineConfig) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self.n_clusters = config.n_clusters
        units = (
            config.int_units_per_cluster,
            config.mem_units_per_cluster,
            config.fp_units_per_cluster,
        )
        self.capacity = {"bus": config.n_buses}
        for cluster in range(config.n_clusters):
            for fu_class, count in zip(self.PER_CLUSTER, units):
                self.capacity[(fu_class, cluster)] = count
        self.used: dict = {}

    def _resource(self, fu_class, cluster):
        if fu_class not in self.PER_CLUSTER:
            raise ValueError(f"{fu_class} is not a per-cluster FU class")
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        return (fu_class, cluster)

    @staticmethod
    def _name(resource) -> str:
        if resource == "bus":
            return "bus"
        return f"{resource[0].value}@c{resource[1]}"

    def _used(self, cycle, resource) -> int:
        return self.used.get((cycle % self.ii, resource), 0)

    def _place(self, cycle, resource) -> None:
        if self.capacity[resource] - self._used(cycle, resource) <= 0:
            raise ValueError(
                f"resource {self._name(resource)} full at row {cycle % self.ii}"
            )
        key = (cycle % self.ii, resource)
        self.used[key] = self.used.get(key, 0) + 1

    def _remove(self, cycle, resource) -> None:
        key = (cycle % self.ii, resource)
        count = self.used.get(key, 0)
        if count <= 0:
            raise ValueError(
                f"resource {self._name(resource)} not placed at row {cycle % self.ii}"
            )
        if count == 1:
            del self.used[key]
        else:
            self.used[key] = count - 1

    def fu_used(self, cycle, fu_class, cluster):
        return self._used(cycle, self._resource(fu_class, cluster))

    def fu_can_place(self, cycle, fu_class, cluster):
        resource = self._resource(fu_class, cluster)
        return self.capacity[resource] - self._used(cycle, resource) > 0

    def fu_place(self, cycle, fu_class, cluster):
        self._place(cycle, self._resource(fu_class, cluster))

    def fu_remove(self, cycle, fu_class, cluster):
        self._remove(cycle, self._resource(fu_class, cluster))

    def bus_free(self, cycle):
        return self.capacity["bus"] - self._used(cycle, "bus")

    def bus_can_place(self, cycle):
        return self.bus_free(cycle) > 0

    def bus_place(self, cycle):
        self._place(cycle, "bus")

    def bus_remove(self, cycle):
        self._remove(cycle, "bus")


def _answer(table, op):
    """``(result, None)`` or ``(None, message)`` of one table call."""
    name, *args = op
    try:
        return getattr(table, name)(*args), None
    except ValueError as err:
        return None, str(err)


#: Machines: II 1-8; 1, 2 or 4 clusters (a 32-byte L1 block does not
#: split three ways); 1-2 units per class; 0-3 buses.
mrt_geometries = st.tuples(
    st.integers(1, 8),
    st.sampled_from([1, 2, 4]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 3),
)
mrt_cycles = st.one_of(st.integers(-40, 40), st.integers(-(10**12), 10**12))
mrt_ops = st.one_of(
    st.tuples(
        st.sampled_from(["fu_place", "fu_remove", "fu_can_place", "fu_used"]),
        mrt_cycles,
        # Mostly real unit classes; BUS and NONE must be rejected.
        st.sampled_from(list(DictMRT.PER_CLUSTER) * 3 + [FUClass.BUS, FUClass.NONE]),
        st.integers(-1, 4),
    ),
    st.tuples(
        st.sampled_from(["bus_place", "bus_remove", "bus_can_place", "bus_free"]),
        mrt_cycles,
    ),
)


def _check_against_dict_model(geometry, ops):
    ii, clusters, int_units, mem_units, fp_units, buses = geometry
    config = l0_config(
        n_clusters=clusters,
        int_units_per_cluster=int_units,
        mem_units_per_cluster=mem_units,
        fp_units_per_cluster=fp_units,
        n_buses=buses,
    )
    flat, model = ModuloReservationTable(ii, config), DictMRT(ii, config)
    for op in ops:
        assert _answer(flat, op) == _answer(model, op), op
        for row in range(ii):
            assert flat.bus_free(row) == model.bus_free(row)
            for fu_class in DictMRT.PER_CLUSTER:
                for cluster in range(clusters):
                    assert flat.fu_used(row, fu_class, cluster) == model.fu_used(
                        row, fu_class, cluster
                    )


@settings(max_examples=60, deadline=None)
@given(geometry=mrt_geometries, ops=st.lists(mrt_ops, max_size=80))
def test_mrt_matches_dict_model(geometry, ops):
    """Every answer and every ValueError (message included) of the flat
    table matches the dict model, and so do all row counts after each
    operation."""
    _check_against_dict_model(geometry, ops)


@pytest.mark.slow
@settings(max_examples=1000, deadline=None)
@given(geometry=mrt_geometries, ops=st.lists(mrt_ops, min_size=100, max_size=400))
def test_mrt_matches_dict_model_long(geometry, ops):
    _check_against_dict_model(geometry, ops)
