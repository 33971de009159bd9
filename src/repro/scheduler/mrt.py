"""The modulo reservation table.

Tracks, for each kernel row (cycle modulo II), how many issue slots are
occupied: per cluster for each functional-unit class (INT, MEM, FP; one
op may issue per unit per cycle, units are fully pipelined), and in the
pool of ``n_buses`` register-to-register buses that every cluster's
communication operations share.  All placements go through this table
so the final schedule can never oversubscribe a functional unit or bus.

The counts live in flat integer rows: one list of II counts per (FU
class, cluster) and one for the buses.  The ``fu_*`` methods take an
:class:`FUClass` and validate it together with the cluster; the
schedulers resolve each node's class to its :data:`FU_INDEX` once per
compile and use the unchecked ``can_reserve``/``reserve``/``release``
in their placement loops, so no query hashes an enum.
"""

from __future__ import annotations

from ..isa.operations import FUClass
from ..machine.config import MachineConfig

#: The FU classes that own per-cluster issue slots, in table order.
FU_CLASSES = (FUClass.INT, FUClass.MEM, FUClass.FP)

#: Table index of each per-cluster FU class.
FU_INDEX = {fu_class: index for index, fu_class in enumerate(FU_CLASSES)}


class ModuloReservationTable:
    def __init__(self, ii: int, config: MachineConfig) -> None:
        if ii < 1:
            raise ValueError("II must be >= 1")
        self.ii = ii
        self.n_clusters = config.n_clusters
        #: Units of each class (by table index) in every cluster.
        self.fu_capacity = (
            config.int_units_per_cluster,
            config.mem_units_per_cluster,
            config.fp_units_per_cluster,
        )
        self.bus_capacity = config.n_buses
        self._fu = [[[0] * ii for _ in range(self.n_clusters)] for _ in FU_CLASSES]
        #: Buses booked in each kernel row.  The bus-slot search reads it
        #: directly; only the ``bus_*`` methods write it.
        self.bus_booked = [0] * ii

    # Functional units by table index (unchecked) -------------------------

    def can_reserve(self, cycle: int, fu: int, cluster: int) -> bool:
        return self._fu[fu][cluster][cycle % self.ii] < self.fu_capacity[fu]

    def reserve(self, cycle: int, fu: int, cluster: int) -> None:
        counts = self._fu[fu][cluster]
        row = cycle % self.ii
        if counts[row] >= self.fu_capacity[fu]:
            raise ValueError(
                f"resource {FU_CLASSES[fu].value}@c{cluster} full at row {row}"
            )
        counts[row] += 1

    def release(self, cycle: int, fu: int, cluster: int) -> None:
        counts = self._fu[fu][cluster]
        row = cycle % self.ii
        if counts[row] <= 0:
            raise ValueError(
                f"resource {FU_CLASSES[fu].value}@c{cluster} not placed at row {row}"
            )
        counts[row] -= 1

    # Functional units by class (validated) -------------------------------

    def _index(self, fu_class: FUClass, cluster: int) -> int:
        fu = FU_INDEX.get(fu_class)
        if fu is None:
            raise ValueError(f"{fu_class} is not a per-cluster FU class")
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster {cluster} out of range")
        return fu

    def fu_used(self, cycle: int, fu_class: FUClass, cluster: int) -> int:
        return self._fu[self._index(fu_class, cluster)][cluster][cycle % self.ii]

    def fu_can_place(self, cycle: int, fu_class: FUClass, cluster: int) -> bool:
        return self.can_reserve(cycle, self._index(fu_class, cluster), cluster)

    def fu_place(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.reserve(cycle, self._index(fu_class, cluster), cluster)

    def fu_remove(self, cycle: int, fu_class: FUClass, cluster: int) -> None:
        self.release(cycle, self._index(fu_class, cluster), cluster)

    # The shared bus pool -------------------------------------------------

    def bus_free(self, cycle: int) -> int:
        return self.bus_capacity - self.bus_booked[cycle % self.ii]

    def bus_can_place(self, cycle: int) -> bool:
        return self.bus_booked[cycle % self.ii] < self.bus_capacity

    def bus_place(self, cycle: int) -> None:
        row = cycle % self.ii
        if self.bus_booked[row] >= self.bus_capacity:
            raise ValueError(f"resource bus full at row {row}")
        self.bus_booked[row] += 1

    def bus_remove(self, cycle: int) -> None:
        row = cycle % self.ii
        if self.bus_booked[row] <= 0:
            raise ValueError(f"resource bus not placed at row {row}")
        self.bus_booked[row] -= 1
