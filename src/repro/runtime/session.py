"""Application-agnostic runtime library (Table 1, Section 4.4).

:class:`DarthPumDevice` is the programmer-facing handle to a DARTH-PUM chip.
Its application-agnostic calls mirror Table 1:

==================  ====================================================
``alloc_vacore``     allocate a vACore based on element size and precision
``set_matrix``       allocate HCTs and store a matrix
``exec_mvm``         execute an MVM between a stored matrix and a vector
``update_row/col``   update part of a stored matrix
``disable_analog_mode`` / ``disable_digital_mode``
==================  ====================================================

The calls hide vACore handling, HCT counts, and the analog/digital split
entirely; programmers only pass matrices, vectors, an element size, and a
precision scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..analog.ace import MatrixHandle
from ..core.chip import DarthPumChip
from ..core.config import ChipConfig
from ..errors import QuantizationError
from ..metrics import CostLedger
from ..plan.backends import (
    ExecutionBackend,
    VectorizedExecutor,
    execute_device_plan,
    resolve_backend,
)
from ..plan.ir import DevicePlan, MvmPlan, PlanHandle
from ..plan.planner import compile_device_plan
from ..reram import NoiseConfig
from .allocator import MatrixPlacement, plan_matrix, precision_to_bits_per_cell

__all__ = ["MatrixAllocation", "DarthPumDevice"]


@dataclass
class MatrixAllocation:
    """A matrix stored across one or more HCTs, returned by ``set_matrix``.

    The allocation records where each HCT-sized block of the matrix lives
    (``placement``), which physical tiles hold it (``hct_indices``), and the
    per-block analog handles needed to execute MVMs against it.  Programmers
    never build one directly; they receive it from
    :meth:`DarthPumDevice.set_matrix` and pass it back to ``exec_mvm`` /
    ``exec_mvm_batch`` / ``update_row`` / ``release``.

    >>> import numpy as np
    >>> from repro import DarthPumDevice
    >>> device = DarthPumDevice()
    >>> allocation = device.set_matrix(np.eye(4, dtype=np.int64), element_size=4)
    >>> allocation.shape
    (4, 4)
    >>> allocation.hcts_used
    1
    """

    allocation_id: int
    placement: MatrixPlacement
    hct_indices: List[int]
    handles: Dict[int, MatrixHandle] = field(default_factory=dict)
    matrix: Optional[np.ndarray] = None
    #: Compiled :class:`~repro.plan.ir.DevicePlan` per ``input_bits``
    #: (``None``: compiled and found off the proven-exact path).  Emptied
    #: whenever ``handles`` changes.
    device_plans: Dict[int, Optional[DevicePlan]] = field(default_factory=dict, repr=False)

    @property
    def shape(self):
        """Logical matrix shape."""
        return self.placement.shape

    @property
    def hcts_used(self) -> int:
        """Number of HCTs holding pieces of this matrix."""
        return len(self.hct_indices)


class DarthPumDevice:
    """The programmer's handle to a DARTH-PUM chip.

    Wraps a :class:`~repro.core.chip.DarthPumChip` behind the Table 1
    application-agnostic calls.  A typical session stores a matrix once and
    executes many MVMs against it:

    >>> import numpy as np
    >>> from repro import DarthPumDevice
    >>> device = DarthPumDevice()
    >>> matrix = np.arange(12, dtype=np.int64).reshape(4, 3) % 5
    >>> allocation = device.set_matrix(matrix, element_size=4, precision=0)
    >>> vector = np.array([1, 2, 3, 4])
    >>> np.array_equal(device.exec_mvm(allocation, vector, input_bits=3),
    ...                vector @ matrix)
    True

    For serving-style traffic, :meth:`exec_mvm_batch` pushes a whole batch of
    vectors through the chip in one arbiter pass (see the plan/compile/execute
    split in ``docs/architecture.md``).
    """

    def __init__(
        self,
        chip: Optional[DarthPumChip] = None,
        config: Optional[ChipConfig] = None,
        noise: Optional[NoiseConfig] = None,
    ) -> None:
        if chip is not None:
            self.chip = chip
        else:
            self.chip = DarthPumChip(config if config is not None else ChipConfig.iso_area_default(),
                                     noise=noise)
        self._allocations: Dict[int, MatrixAllocation] = {}
        self._next_allocation = 0
        self.ledger = CostLedger()

    def _tiles(self, allocation: MatrixAllocation) -> Iterator[Tuple]:
        """``(placement tile, HCT, analog handle)`` of every placed block;
        the handle is ``None`` while ``set_matrix`` is still programming it."""
        hct_indices = allocation.hct_indices
        for tile in allocation.placement.tiles:
            hct = self.chip.hct(hct_indices[tile.hct_slot % len(hct_indices)])
            yield tile, hct, allocation.handles.get(tile.hct_slot)

    # ------------------------------------------------------------------ #
    # Application-agnostic calls (Table 1)                                 #
    # ------------------------------------------------------------------ #
    def alloc_vacore(self, element_size: int, precision: int = 0, hct_index: int = 0):
        """allocVACore(): allocate a vACore on an HCT and set up its µop table."""
        bits = precision_to_bits_per_cell(precision, element_size)
        return self.chip.hct(hct_index).alloc_vacore(element_size, bits)

    def set_matrix(
        self,
        matrix: np.ndarray,
        element_size: int = 8,
        precision: int = 0,
    ) -> MatrixAllocation:
        """setMatrix(): allocate HCTs and program ``matrix`` into them."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise QuantizationError("set_matrix expects a 2-D matrix")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise QuantizationError(
                "set_matrix expects an integer matrix; quantise floats first"
            )
        placement = plan_matrix(matrix.shape, element_size, precision, self.chip.config.hct)
        hct_indices = self.chip.allocate_hcts(placement.hcts_needed, owner="set_matrix")
        allocation = MatrixAllocation(
            allocation_id=self._next_allocation,
            placement=placement,
            hct_indices=hct_indices,
            matrix=matrix.astype(np.int64),
        )
        for tile, hct, _ in self._tiles(allocation):
            block = matrix[tile.row_start: tile.row_end, tile.col_start: tile.col_end]
            handle = hct.set_matrix(
                block.astype(np.int64),
                value_bits=element_size,
                bits_per_cell=placement.bits_per_cell,
            )
            allocation.handles[tile.hct_slot] = handle
        self._allocations[allocation.allocation_id] = allocation
        self._next_allocation += 1
        return allocation

    def exec_mvm(self, allocation: MatrixAllocation, vector: np.ndarray,
                 input_bits: int = 8) -> np.ndarray:
        """execMVM(): multiply ``vector`` by the stored matrix."""
        vector = np.asarray(vector, dtype=np.int64)
        rows, cols = allocation.shape
        if vector.shape != (rows,):
            raise QuantizationError(
                f"input vector of shape {vector.shape} does not match matrix rows ({rows})"
            )
        result = np.zeros(cols, dtype=np.int64)
        for tile, hct, handle in self._tiles(allocation):
            sub_vector = vector[tile.row_start: tile.row_end]
            sub_result = hct.execute_mvm(handle, sub_vector, input_bits=input_bits)
            result[tile.col_start: tile.col_end] += sub_result.values
            self.ledger.charge("runtime.mvm", cycles=sub_result.optimized_cycles,
                               energy_pj=sub_result.energy_pj)
        return result

    def exec_mvm_batch(
        self,
        allocation: MatrixAllocation,
        vectors: np.ndarray,
        input_bits: int = 8,
        backend: Union[None, str, "ExecutionBackend"] = None,
    ) -> np.ndarray:
        """execMVMBatch(): multiply a batch of vectors by the stored matrix.

        ``vectors`` has shape ``(batch, rows)``; the result has shape
        ``(batch, cols)``.  The whole batch is bit-sliced together and
        scheduled through the ACE/DCE of every HCT holding a block of the
        matrix in a single arbiter pass, so front-end, injection, and
        (host-side) interpreter overheads are paid once per batch instead of
        once per vector.  ``backend`` selects the plan interpreter
        (``"vectorized"``, the default, or the step-faithful
        ``"reference"``); the two are bit-identical, including ledger
        totals.  In the noise-free configuration the rows are bit-identical
        to ``batch`` sequential :meth:`exec_mvm` calls.

        >>> import numpy as np
        >>> from repro import DarthPumDevice
        >>> device = DarthPumDevice()
        >>> matrix = np.arange(12, dtype=np.int64).reshape(4, 3) % 5
        >>> allocation = device.set_matrix(matrix, element_size=4, precision=0)
        >>> vectors = np.array([[1, 2, 3, 4], [4, 3, 2, 1], [0, 7, 0, 7]])
        >>> out = device.exec_mvm_batch(allocation, vectors, input_bits=3)
        >>> np.array_equal(out, vectors @ matrix)
        True
        """
        vectors = np.asarray(vectors, dtype=np.int64)
        if vectors.ndim < 2:
            vectors = np.atleast_2d(vectors)
        rows, cols = allocation.placement.shape
        if vectors.shape[1] != rows:
            raise QuantizationError(
                f"input batch of shape {vectors.shape} does not match matrix rows ({rows})"
            )
        batch = vectors.shape[0]
        if batch == 0:
            return np.zeros((0, cols), dtype=np.int64)
        executor = resolve_backend(backend)
        # Exactly the stock backend: a subclass may have changed what a tile
        # call does, and keeps getting one call per tile.
        if type(executor) is VectorizedExecutor:
            plan = self.device_plan(allocation, input_bits)
            if plan is not None:
                result = execute_device_plan(plan, vectors, self.ledger)
                if result is not None:
                    return result
        result = np.zeros((batch, cols), dtype=np.int64)
        for tile, hct, handle in self._tiles(allocation):
            sub_vectors = vectors[:, tile.row_start: tile.row_end]
            sub_result = hct.execute_mvm_batch(
                handle, sub_vectors, input_bits=input_bits, backend=executor
            )
            result[:, tile.col_start: tile.col_end] += sub_result.values
            self.ledger.charge("runtime.mvm_batch", cycles=sub_result.optimized_cycles,
                               energy_pj=sub_result.energy_pj)
        return result

    def compile(self, allocation: MatrixAllocation, input_bits: int = 8) -> List[MvmPlan]:
        """Compile (and cache) the execution plans of every tile block.

        Serving layers call this at registration time so the per-request
        hot path never plans: every subsequent ``exec_mvm`` /
        ``exec_mvm_batch`` against ``allocation`` at ``input_bits`` hits the
        tile-level plan caches.  Idempotent -- recompiling is a cache hit.

        The plans are for use while the device is alive: they refer to their
        ACE weakly (``MvmPlan.ace`` is a ``weakref.proxy``, so that a dropped
        chip is freed by reference counting).  Once the device is gone, what
        a plan already holds -- steps, cost model, a kernel fetched earlier
        -- stays readable, but a first ``plan.kernel``, like ``plan_for`` on
        a kept :class:`~repro.plan.planner.Planner`, raises
        :class:`ReferenceError`.
        """
        return [
            hct.planner.plan_for(handle, input_bits)
            for _, hct, handle in self._tiles(allocation)
        ]

    def device_plan(
        self, allocation: MatrixAllocation, input_bits: int = 8
    ) -> Optional[DevicePlan]:
        """The allocation's compiled :class:`~repro.plan.ir.DevicePlan`.

        ``None`` when some tile is off the proven-exact path (noise,
        parasitics, a lossy ADC, analog mode disabled).  Compiled on first
        use -- the first vectorized call, like the shard kernels it stacks,
        not :meth:`compile`, so registration stays as cheap as it was -- and
        kept on the allocation until ``release`` / ``update_row`` /
        ``update_col``.  The stacked weights do not depend on ``input_bits``:
        the plans of one allocation share one tensor.
        """
        plans = allocation.device_plans
        if input_bits not in plans:
            stacked = next((plan.weights for plan in plans.values() if plan), None)
            plans[input_bits] = compile_device_plan(
                allocation.shape, input_bits, self._tiles(allocation), stacked
            )
        return plans[input_bits]

    def planner_builds(self) -> int:
        """Execution plans compiled on this device (see ``DarthPumChip``)."""
        return self.chip.planner_builds()

    def predicted_mvm_cycles(
        self, allocation: MatrixAllocation, batch: int, input_bits: int = 8
    ) -> float:
        """Predicted cycles of one ``batch`` MVM against ``allocation``.

        Closed-form from each tile block's cached
        :meth:`~repro.plan.ir.MvmPlan.predicted_cycles` -- identical to the
        optimized-timeline cycles execution will charge, without touching
        any device state (``compile`` at registration means this is pure
        cache hits).  Tile blocks execute serially on one device, so costs
        sum.
        """
        total = 0.0
        for _, hct, handle in self._tiles(allocation):
            total += hct.planner.plan_for(handle, input_bits).predicted_cycles(batch)
        return total

    def predicted_mvm_energy_pj(
        self, allocation: MatrixAllocation, batch: int, input_bits: int = 8
    ) -> float:
        """Predicted analog-phase energy (pJ) of one ``batch`` MVM."""
        total = 0.0
        for _, hct, handle in self._tiles(allocation):
            total += hct.planner.plan_for(handle, input_bits).predicted_energy_pj(batch)
        return total

    def plan_handle(
        self, allocation: MatrixAllocation, input_bits: int = 8
    ) -> PlanHandle:
        """Process-portable cost surrogate of this allocation's plans.

        Fits the affine :class:`~repro.plan.ir.PlanHandle` from two
        predicted-cycle samples of the cached tile plans (pure cache hits
        after ``compile``) -- the form a cluster worker ships to the
        gateway so cross-process routing can price work without owning
        any live plan object.
        """
        return PlanHandle.from_cost_samples(
            allocation.shape, input_bits,
            self.predicted_mvm_cycles(allocation, 1, input_bits=input_bits),
            self.predicted_mvm_cycles(allocation, 17, input_bits=input_bits),
            self.predicted_mvm_energy_pj(allocation, 1, input_bits=input_bits),
        )

    def update_row(self, allocation: MatrixAllocation, row: int, values: np.ndarray) -> None:
        """updateRow(): rewrite one matrix row across the affected HCTs."""
        self._update(allocation, row=row, values=values)

    def update_col(self, allocation: MatrixAllocation, col: int, values: np.ndarray) -> None:
        """updateCol(): rewrite one matrix column across the affected HCTs."""
        self._update(allocation, col=col, values=values)

    def _update(self, allocation: MatrixAllocation, values: np.ndarray,
                row: Optional[int] = None, col: Optional[int] = None) -> None:
        values = np.asarray(values, dtype=np.int64)
        assert allocation.matrix is not None
        if row is not None:
            allocation.matrix[row, :] = values
        if col is not None:
            allocation.matrix[:, col] = values
        # The handles below change: the stacked weights and tile plans of
        # every compiled device plan are stale.
        allocation.device_plans.clear()
        for tile, hct, handle in self._tiles(allocation):
            affected = (
                (row is not None and tile.row_start <= row < tile.row_end)
                or (col is not None and tile.col_start <= col < tile.col_end)
            )
            if not affected:
                continue
            if row is not None:
                new_handle = hct.ace.update_row(
                    handle, row - tile.row_start, values[tile.col_start: tile.col_end]
                )
            else:
                new_handle = hct.ace.update_col(
                    handle, col - tile.col_start, values[tile.row_start: tile.row_end]
                )
            allocation.handles[tile.hct_slot] = new_handle

    def release(self, allocation: MatrixAllocation) -> None:
        """Free the HCTs and analog arrays used by an allocation."""
        allocation.device_plans.clear()
        for _, hct, handle in self._tiles(allocation):
            if handle is not None:
                hct.release_matrix(handle)
        self.chip.release_hcts(allocation.hct_indices)
        self._allocations.pop(allocation.allocation_id, None)

    def disable_analog_mode(self, allocation: MatrixAllocation) -> None:
        """disableAnalogMode(): move the matrix into digital arrays."""
        allocation.device_plans.clear()
        for _, hct, handle in self._tiles(allocation):
            if handle is not None:
                hct.disable_analog_mode(handle)

    def disable_digital_mode(self, hct_index: int = 0) -> None:
        """disableDigitalMode(): bypass DCE post-processing on one HCT."""
        self.chip.hct(hct_index).disable_digital_mode()

    # ------------------------------------------------------------------ #
    # Introspection                                                        #
    # ------------------------------------------------------------------ #
    @property
    def allocations(self) -> List[MatrixAllocation]:
        """All live matrix allocations."""
        return list(self._allocations.values())

    def expected_mvm(self, allocation: MatrixAllocation, vector: np.ndarray) -> np.ndarray:
        """Reference result computed from the stored matrix (verification)."""
        assert allocation.matrix is not None
        return np.asarray(vector, dtype=np.int64) @ allocation.matrix
