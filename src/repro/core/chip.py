"""The DARTH-PUM chip: many hybrid compute tiles plus shared front ends.

A chip instantiates up to 1860 HCTs (SAR ADCs) or 1660 HCTs (ramp ADCs) in
the area of the baseline CPU (Section 6).  Tiles are materialised lazily so
that functional experiments touching a handful of tiles stay cheap, while
throughput modelling can still reason about the full tile count.  The
front ends (one per ``hcts_per_front_end`` tiles) are costed, not
simulated: each tile's IIU counts the issue slots it saves them
(``front_end_slots_saved``), and :meth:`DarthPumChip.front_end_energy_pj`
and Table 3 carry their power and area.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, Iterable, List, Optional

from ..errors import AllocationError, CapacityError
from ..metrics import CostLedger, merge_ledgers
from ..reram import DeviceParameters, NoiseConfig, ParasiticModel
from .area import Table3
from .config import ChipConfig
from .hct import HybridComputeTile

__all__ = ["DarthPumChip"]


@dataclass(slots=True)
class _TileSlot:
    """Book-keeping for one HCT slot on the chip."""

    tile: Optional[HybridComputeTile] = None
    allocated: bool = False


class DarthPumChip:
    """A full DARTH-PUM chip."""

    def __init__(
        self,
        config: Optional[ChipConfig] = None,
        device: Optional[DeviceParameters] = None,
        noise: Optional[NoiseConfig] = None,
        parasitics: Optional[ParasiticModel] = None,
    ) -> None:
        self.config = config if config is not None else ChipConfig.iso_area_default()
        self.device = device
        self.noise = noise
        self.parasitics = parasitics
        self.ledger = CostLedger()
        self._slots: Dict[int, _TileSlot] = {i: _TileSlot() for i in range(self.config.num_hcts)}
        #: The free HCTs, without scanning the ~1860 slots: every index from
        #: ``_next_unused`` up has never been reserved, and ``_released`` is
        #: a min-heap of the lower ones handed back since.  The lowest free
        #: index is therefore the heap's top, or ``_next_unused``.
        self._next_unused = 0
        self._released: List[int] = []
        #: Materialised tiles in HCT-index order (the slot-scan order).  The
        #: chip has ~1860 slots but functional runs touch a handful;
        #: accounting sweeps iterate this list instead of scanning every
        #: slot.
        self._tiles: List[HybridComputeTile] = []

    # ------------------------------------------------------------------ #
    # Tile management                                                      #
    # ------------------------------------------------------------------ #
    @property
    def num_hcts(self) -> int:
        """Total HCTs on the chip."""
        return self.config.num_hcts

    def hct(self, index: int) -> HybridComputeTile:
        """Return (materialising if needed) the HCT at ``index``."""
        if not 0 <= index < self.config.num_hcts:
            raise CapacityError(f"HCT index {index} out of range [0, {self.config.num_hcts})")
        slot = self._slots[index]
        if slot.tile is None:
            slot.tile = HybridComputeTile(
                config=self.config.hct,
                device=self.device,
                noise=self.noise,
                parasitics=self.parasitics,
                tile_id=index,
            )
            insort(self._tiles, slot.tile, key=attrgetter("tile_id"))
        return slot.tile

    def allocate_hcts(self, count: int) -> List[int]:
        """Reserve ``count`` free HCTs for a workload; returns their indices."""
        free = self.config.num_hcts - self.allocated_hcts
        if free < count:
            raise AllocationError(
                f"requested {count} HCTs but only {free} are free on this chip"
            )
        chosen = []
        for _ in range(count):
            if self._released:
                index = heapq.heappop(self._released)
            else:
                index = self._next_unused
                self._next_unused += 1
            self._slots[index].allocated = True
            chosen.append(index)
        return chosen

    def release_hcts(self, indices: Iterable[int]) -> None:
        """Return HCTs to the free pool."""
        for index in indices:
            slot = self._slots.get(index)
            if slot is not None and slot.allocated:
                slot.allocated = False
                heapq.heappush(self._released, index)

    @property
    def allocated_hcts(self) -> int:
        """Number of HCTs currently reserved by workloads."""
        return self._next_unused - len(self._released)

    @property
    def materialized_hcts(self) -> int:
        """Number of HCTs that have actually been instantiated."""
        return len(self._tiles)

    # ------------------------------------------------------------------ #
    # Chip-level accounting                                                #
    # ------------------------------------------------------------------ #
    def total_ledger(self) -> CostLedger:
        """Merged ledger across all materialised tiles plus the chip ledger."""
        ledgers = [self.ledger]
        ledgers.extend(tile.ledger for tile in self._tiles)
        return merge_ledgers(ledgers)

    def planner_builds(self) -> int:
        """Execution plans compiled across all materialised tiles.

        Serving tests assert this stays flat on the request hot path: all
        planning happens at registration time.
        """
        return sum(tile.planner.builds for tile in self._tiles)

    def front_end_energy_pj(self, cycles: float) -> float:
        """Energy of the active front ends over ``cycles`` cycles."""
        active = max(1, self.materialized_hcts // self.config.hcts_per_front_end)
        return active * Table3.FRONT_END_POWER_MW * cycles

    def utilization(self) -> float:
        """Fraction of HCTs currently allocated to workloads."""
        return self.allocated_hcts / self.config.num_hcts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DarthPumChip(hcts={self.config.num_hcts}, adc={self.config.hct.adc_kind})"
        )
