"""The Digital Compute Element (DCE) of a hybrid compute tile.

A DCE bundles 64 RACER-style bit pipelines with the control circuitry that
dispatches µops to them (Table 2).  Beyond plain RACER, DARTH-PUM's DCE adds
*element-wise loads and stores* (Section 4.2): a pipeline can use the values
stored in one of its vector registers as row addresses into another pipeline
of the same HCT, which is how the AES S-box lookup avoids the prohibitively
expensive copy+mask+AND sequence RACER would otherwise need.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import CapacityError, ConfigurationError, ExecutionError
from ..metrics import CostLedger
from .logic import LogicFamily, oscar_family
from .microops import WordOpCost, WordOpKind
from .pipeline import BitPipeline

__all__ = ["DigitalComputeElement", "DceConfig"]


class DceConfig:
    """Geometry of a digital compute element (Table 2 defaults)."""

    def __init__(
        self,
        num_pipelines: int = 64,
        pipeline_depth: int = 64,
        rows: int = 64,
        cols: int = 64,
        issue_queue_depth: int = 64,
    ) -> None:
        if num_pipelines < 1:
            raise ConfigurationError("a DCE needs at least one pipeline")
        self.num_pipelines = int(num_pipelines)
        self.pipeline_depth = int(pipeline_depth)
        self.rows = int(rows)
        self.cols = int(cols)
        self.issue_queue_depth = int(issue_queue_depth)

    @property
    def total_arrays(self) -> int:
        """Total digital PUM arrays in the DCE."""
        return self.num_pipelines * self.pipeline_depth

    @property
    def capacity_bits(self) -> int:
        """Raw storage capacity of the DCE in bits."""
        return self.total_arrays * self.rows * self.cols


class DigitalComputeElement:
    """A collection of bit pipelines plus dispatch and element-wise access.

    Parameters
    ----------
    config:
        DCE geometry.
    family:
        Digital logic family shared by every pipeline.
    ledger:
        Cost ledger shared with the enclosing HCT.
    lazy:
        When true (default), pipelines are instantiated on first use, which
        keeps chip-scale experiments cheap: a full Table-2 DCE holds 4096
        arrays and most experiments touch only a few pipelines.
    """

    def __init__(
        self,
        config: Optional[DceConfig] = None,
        family: Optional[LogicFamily] = None,
        ledger: Optional[CostLedger] = None,
        lazy: bool = True,
        auto_cycles: bool = True,
    ) -> None:
        self.config = config if config is not None else DceConfig()
        self.family = family if family is not None else oscar_family()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.auto_cycles = bool(auto_cycles)
        self._lazy = bool(lazy)
        self._pipelines: Dict[int, BitPipeline] = {}
        if not lazy:
            for index in range(self.config.num_pipelines):
                self.pipeline(index)

    # ------------------------------------------------------------------ #
    # Pipeline management                                                  #
    # ------------------------------------------------------------------ #
    def pipeline(self, index: int) -> BitPipeline:
        """Return pipeline ``index``, creating it on first use."""
        pipeline = self._pipelines.get(index)
        if pipeline is None:
            if not 0 <= index < self.config.num_pipelines:
                raise CapacityError(
                    f"pipeline index {index} out of range [0, {self.config.num_pipelines})"
                )
            pipeline = self._pipelines[index] = BitPipeline(
                depth=self.config.pipeline_depth,
                rows=self.config.rows,
                cols=self.config.cols,
                family=self.family,
                ledger=self.ledger,
                auto_cycles=self.auto_cycles,
            )
        return pipeline

    def reserve_pipeline(self, index: int) -> None:
        """Pipeline-reserve instruction: mark all data in a pipeline dead.

        The MVM reduction sequence may need up to N temporary registers for
        an N-bit input; reserving a pipeline guarantees the analog side can
        stream partial products into it without corrupting live values
        (Section 4.2).
        """
        self.pipeline(index).reserved = True

    def release_pipeline(self, index: int) -> None:
        """Release a previously reserved pipeline."""
        if index in self._pipelines:
            self._pipelines[index].reserved = False

    # ------------------------------------------------------------------ #
    # Element-wise load/store (Section 4.2)                                #
    # ------------------------------------------------------------------ #
    def element_load(
        self,
        dst_pipeline: int,
        dst_vr: int,
        addr_pipeline: int,
        addr_vr: int,
        table_pipeline: int,
        table_base_vr: int = 0,
        num_elements: Optional[int] = None,
    ) -> WordOpCost:
        """Gather: ``dst[e] = table[addr[e]]`` one element per two cycles.

        Each element of the address register selects a row in the table
        pipeline: row ``addr % rows`` of VR ``table_base_vr + addr // rows``.
        The address range is limited to pipelines within the same HCT.
        """
        dst = self.pipeline(dst_pipeline)
        addr = self.pipeline(addr_pipeline)
        table = self.pipeline(table_pipeline)
        rows = dst.rows
        count = rows if num_elements is None else int(num_elements)
        if count > rows:
            raise ExecutionError("cannot gather more elements than pipeline rows")
        addresses = addr.read_vr(addr_vr)[:count].astype(np.int64)
        table_vrs = table_base_vr + addresses // table.rows
        table_rows = addresses % table.rows
        if np.any(table_vrs >= table.num_vrs):
            bad = int(addresses[np.argmax(table_vrs >= table.num_vrs)])
            raise ExecutionError(
                f"address {bad} exceeds the table stored in pipeline "
                f"{table_pipeline}"
            )
        # Gather all elements of each referenced table register at once
        # instead of reading the table one element at a time.
        values = np.zeros(count, dtype=np.int64)
        for vr in np.unique(table_vrs):
            selected = table_vrs == vr
            values[selected] = table.read_vr(int(vr))[table_rows[selected]]
        updated = dst.read_vr(dst_vr)
        updated[:count] = values
        self._write_vr_raw(dst, dst_vr, updated)
        cost = WordOpCost("element_load", WordOpKind.ELEMENT, 1.0, dst.depth, count)
        self._charge(cost)
        return cost

    def element_store(
        self,
        src_pipeline: int,
        src_vr: int,
        addr_pipeline: int,
        addr_vr: int,
        table_pipeline: int,
        table_base_vr: int = 0,
        num_elements: Optional[int] = None,
    ) -> WordOpCost:
        """Scatter: ``table[addr[e]] = src[e]`` one element per two cycles."""
        src = self.pipeline(src_pipeline)
        addr = self.pipeline(addr_pipeline)
        table = self.pipeline(table_pipeline)
        count = src.rows if num_elements is None else int(num_elements)
        addresses = addr.read_vr(addr_vr)[:count].astype(np.int64)
        values = src.read_vr(src_vr)[:count]
        table_vrs = table_base_vr + addresses // table.rows
        table_rows = addresses % table.rows
        if np.any(table_vrs >= table.num_vrs):
            bad = int(addresses[np.argmax(table_vrs >= table.num_vrs)])
            raise ExecutionError(
                f"address {bad} exceeds the table stored in pipeline "
                f"{table_pipeline}"
            )
        # Scatter into each referenced table register in one shot.  Elements
        # are processed in issue order, so duplicate addresses keep the
        # last-writer-wins semantics of the element-at-a-time loop.
        for vr in np.unique(table_vrs):
            selected = np.flatnonzero(table_vrs == vr)
            updated = table.read_vr(int(vr))
            updated[table_rows[selected]] = values[selected]
            self._write_vr_raw(table, int(vr), updated)
        cost = WordOpCost("element_store", WordOpKind.ELEMENT, 1.0, src.depth, count)
        self._charge(cost)
        return cost

    @staticmethod
    def _write_vr_raw(pipeline: BitPipeline, vr: int, values: np.ndarray) -> None:
        """Overwrite a VR's stored bits without charging word-op costs.

        Used by the element-wise operations, whose cost is charged once per
        word op rather than per underlying row write.
        """
        pipeline.set_vr_bits(vr, values)

    # ------------------------------------------------------------------ #
    # Accounting                                                           #
    # ------------------------------------------------------------------ #
    def _charge(self, cost: WordOpCost) -> None:
        if self.auto_cycles:
            self.ledger.charge(f"dce.{cost.name}", cycles=cost.unpipelined_cycles)
        self.ledger.charge(
            f"dce.{cost.kind.value}",
            energy_pj=BitPipeline.WRITE_ENERGY_PJ * cost.rows * cost.bits,
        )
