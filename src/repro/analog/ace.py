"""The Analog Compute Element (ACE) of a hybrid compute tile.

An ACE bundles 64 analog crossbars with their input buffers, wordline
drivers, and ADCs (Table 2).  Matrices are programmed once -- tiled over
arrays by rows, columns, and weight bit slices -- and then reused by many
MVMs, because programming multi-bit analog devices is slow and energetic
(Section 4.1).  ``execute_mvm`` applies the input one bit per cycle and
emits the stream of per-bit partial products that the hybrid compute tile
forwards (through its shift units) to the digital compute element for
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AllocationError, CapacityError, QuantizationError
from ..metrics import CostLedger
from ..reram import ConductanceMapper, DeviceParameters, NoiseConfig, ParasiticModel
from .adc import AdcSpec, AnalogToDigitalConverter, make_adc
from .bitslicing import ShiftAddPlan, slice_inputs, slice_matrix
from .crossbar import AnalogCrossbar
from .dac import DigitalToAnalogConverter
from .kernels import ShardKernel, build_shard_kernel
from .numbers import DifferentialPairs, OffsetSubtraction

__all__ = [
    "AceConfig",
    "AnalogComputeElement",
    "BatchMvmExecution",
    "BatchPartialProduct",
    "MatrixHandle",
    "MvmExecution",
    "PartialProduct",
]


@dataclass(frozen=True)
class AceConfig:
    """Geometry and periphery of an analog compute element (Table 2)."""

    num_arrays: int = 64
    array_rows: int = 64
    array_cols: int = 64
    adc_kind: str = "sar"
    #: ADCs per active array: 2 SAR or 1 ramp (Table 2).
    adcs_per_array: int = 2
    row_periphery_power_mw: float = 0.7
    input_buffer_area_um2: float = 27000.0

    @property
    def adc_latency_label(self) -> str:
        """Human-readable ADC configuration label."""
        return f"{self.adc_kind.upper()} x{self.adcs_per_array}"


@dataclass(frozen=True)
class MatrixHandle:
    """A matrix programmed into one or more analog arrays."""

    handle_id: int
    shape: Tuple[int, int]
    value_bits: int
    bits_per_cell: int
    signed: bool
    representation: str
    row_tiles: int
    col_tiles: int
    num_slices: int
    array_ids: Tuple[int, ...]

    @property
    def arrays_used(self) -> int:
        """Number of analog arrays occupied by this matrix."""
        return len(self.array_ids)


@dataclass(frozen=True)
class PartialProduct:
    """One ADC output vector produced during a bit-sliced MVM."""

    values: np.ndarray
    shift: int
    input_bit: int
    weight_slice: int
    row_tile: int
    col_tile: int
    col_offset: int


@dataclass
class MvmExecution:
    """The full partial-product stream and cost of one analog MVM."""

    handle: MatrixHandle
    partials: List[PartialProduct] = field(default_factory=list)
    plan: Optional[ShiftAddPlan] = None
    analog_cycles: float = 0.0
    analog_energy_pj: float = 0.0

    def reduce(self) -> np.ndarray:
        """Functionally reduce the partial products (reference reduction).

        On hardware this reduction is what the DCE performs; the method is
        used by tests and by the runtime's ``disableDigitalMode`` path.
        """
        rows, cols = self.handle.shape
        result = np.zeros(cols, dtype=np.int64)
        for partial in self.partials:
            width = partial.values.shape[0]
            segment = np.rint(partial.values).astype(np.int64) << partial.shift
            result[partial.col_offset: partial.col_offset + width] += segment
        return result


@dataclass(frozen=True)
class BatchPartialProduct:
    """One ADC output *matrix* produced during a batched bit-sliced MVM.

    Identical to :class:`PartialProduct` except that ``values`` holds the
    partial products of the whole batch, one row per input vector
    (shape ``(batch, tile_cols)``).
    """

    values: np.ndarray
    shift: int
    input_bit: int
    weight_slice: int
    row_tile: int
    col_tile: int
    col_offset: int


@dataclass
class BatchMvmExecution:
    """The partial-product stream and cost of one batched analog MVM."""

    handle: MatrixHandle
    batch: int
    partials: List[BatchPartialProduct] = field(default_factory=list)
    plan: Optional[ShiftAddPlan] = None
    analog_cycles: float = 0.0
    analog_energy_pj: float = 0.0

    def reduce(self) -> np.ndarray:
        """Vectorised shift-and-add reduction of the whole batch.

        Returns an ``(batch, cols)`` integer matrix; this is the reference
        reduction the DCE performs in hardware.
        """
        rows, cols = self.handle.shape
        result = np.zeros((self.batch, cols), dtype=np.int64)
        for partial in self.partials:
            width = partial.values.shape[1]
            segment = np.rint(partial.values).astype(np.int64) << partial.shift
            result[:, partial.col_offset: partial.col_offset + width] += segment
        return result


class AnalogComputeElement:
    """64 analog crossbars plus the shared periphery of one HCT."""

    def __init__(
        self,
        config: Optional[AceConfig] = None,
        device: Optional[DeviceParameters] = None,
        noise: Optional[NoiseConfig] = None,
        parasitics: Optional[ParasiticModel] = None,
        adc_spec: Optional[AdcSpec] = None,
        ledger: Optional[CostLedger] = None,
        tile_id: int = 0,
    ) -> None:
        self.config = config if config is not None else AceConfig()
        #: Names this ACE's arrays in their noise streams (``(tile_id, array_id)``).
        self.tile_id = int(tile_id)
        self.device = device if device is not None else DeviceParameters()
        self.noise_config = noise if noise is not None else NoiseConfig.ideal()
        self.parasitics = parasitics
        self.adc_spec = adc_spec
        self.ledger = ledger if ledger is not None else CostLedger()
        self._crossbars: Dict[int, AnalogCrossbar] = {}
        self._free_arrays = list(range(self.config.num_arrays))
        self._handles: Dict[int, MatrixHandle] = {}
        self._matrices: Dict[int, np.ndarray] = {}
        #: Per allocation, the ``(slices, 2, rows, cols)`` level block and
        #: conductance block ``set_matrix`` programmed; the crossbars and the
        #: shard kernel hold views of them, nobody a copy.
        self._programmed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._kernels: Dict[int, ShardKernel] = {}
        #: Compiled execution plans, keyed ``(handle_id, input_bits)`` and
        #: populated by the owning tile's :class:`~repro.plan.planner.Planner`;
        #: invalidated together with the shard-kernel cache.
        self._plans: Dict[Tuple[int, int], object] = {}
        #: Reusable per-shape scratch tensors for the vectorized forward
        #: pass (bit-plane stacks and float work blocks).  Keyed purely by
        #: shape -- contents are fully overwritten on every use -- so no
        #: invalidation is needed on release/reprogram.
        self._scratch: Dict[Tuple, np.ndarray] = {}
        self._next_handle = 0
        self.enabled = True

    # ------------------------------------------------------------------ #
    # Array / ADC management                                               #
    # ------------------------------------------------------------------ #
    @property
    def arrays_free(self) -> int:
        """Number of analog arrays not yet allocated to a matrix."""
        return len(self._free_arrays)

    @property
    def arrays_used(self) -> int:
        """Number of analog arrays currently holding matrix slices."""
        return self.config.num_arrays - len(self._free_arrays)

    def _make_adc(self, bits_per_cell: int) -> AnalogToDigitalConverter:
        max_sum = self.config.array_rows * (2 ** bits_per_cell - 1)
        return make_adc(
            self.config.adc_kind, min_value=-max_sum, max_value=max_sum, spec=self.adc_spec
        )

    def _allocate_crossbar(self, bits_per_cell: int) -> Tuple[int, AnalogCrossbar]:
        if not self._free_arrays:
            raise AllocationError("no free analog arrays remain in this ACE")
        array_id = self._free_arrays.pop(0)
        crossbar = AnalogCrossbar(
            rows=self.config.array_rows,
            cols=self.config.array_cols,
            bits_per_cell=bits_per_cell,
            device=self.device,
            noise=self.noise_config,
            parasitics=self.parasitics,
            adc=self._make_adc(bits_per_cell),
            num_adcs=self.config.adcs_per_array,
            dac=DigitalToAnalogConverter(),
            ledger=self.ledger,
            row_periphery_power_mw=self.config.row_periphery_power_mw,
            noise_stream=(self.tile_id, array_id),
        )
        self._crossbars[array_id] = crossbar
        return array_id, crossbar

    def crossbar(self, array_id: int) -> AnalogCrossbar:
        """Return the crossbar occupying array slot ``array_id``."""
        return self._crossbars[array_id]

    # ------------------------------------------------------------------ #
    # Matrix programming                                                   #
    # ------------------------------------------------------------------ #
    def arrays_needed(self, shape: Tuple[int, int], value_bits: int, bits_per_cell: int) -> int:
        """How many arrays a matrix of ``shape`` would occupy."""
        rows, cols = shape
        row_tiles = int(np.ceil(rows / self.config.array_rows))
        col_tiles = int(np.ceil(cols / self.config.array_cols))
        num_slices = int(np.ceil(value_bits / bits_per_cell))
        return row_tiles * col_tiles * num_slices

    def set_matrix(
        self,
        matrix: np.ndarray,
        value_bits: int = 8,
        bits_per_cell: int = 1,
        representation: str = "differential",
    ) -> MatrixHandle:
        """Tile, encode, bit-slice, and program ``matrix`` into analog arrays.

        The matrix is stored column-major over the bitlines: each output
        element of an MVM corresponds to one bitline of one column tile.
        """
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise QuantizationError("set_matrix expects a 2-D matrix")
        if not np.issubdtype(matrix.dtype, np.integer):
            raise QuantizationError("set_matrix expects an integer (quantised) matrix")
        if bits_per_cell > self.device.max_bits_per_cell:
            raise QuantizationError(
                f"bits_per_cell {bits_per_cell} exceeds the device maximum "
                f"{self.device.max_bits_per_cell}"
            )
        rows, cols = matrix.shape
        needed = self.arrays_needed((rows, cols), value_bits, bits_per_cell)
        if needed > self.arrays_free:
            raise CapacityError(
                f"matrix needs {needed} arrays but only {self.arrays_free} are free"
            )

        signed = bool(matrix.size and np.minimum.reduce(matrix, axis=None) < 0)
        if representation == "differential":
            encoder = DifferentialPairs(value_bits)
        elif representation == "offset":
            encoder = OffsetSubtraction(value_bits)
        else:
            raise QuantizationError(f"unknown representation {representation!r}")
        # One pass each over the whole matrix -- encode, slice, map -- as
        # (slices, 2, rows, cols) blocks: plane 0 positive, plane 1 negative.
        levels = slice_matrix(encoder.encode(matrix).planes, value_bits, bits_per_cell)
        conductances = ConductanceMapper(self.device, bits_per_cell).value_to_conductance(levels)

        array_rows, array_cols = self.config.array_rows, self.config.array_cols
        array_ids: List[int] = []
        for r0 in range(0, rows, array_rows):
            for c0 in range(0, cols, array_cols):
                tile = np.s_[:, r0: r0 + array_rows, c0: c0 + array_cols]
                for slice_levels, slice_conductances in zip(levels, conductances):
                    array_id, crossbar = self._allocate_crossbar(bits_per_cell)
                    crossbar._program(slice_levels[tile], slice_conductances[tile])
                    array_ids.append(array_id)

        handle = MatrixHandle(
            handle_id=self._next_handle,
            shape=(rows, cols),
            value_bits=value_bits,
            bits_per_cell=bits_per_cell,
            signed=signed,
            representation=representation,
            row_tiles=-(-rows // array_rows),
            col_tiles=-(-cols // array_cols),
            num_slices=len(levels),
            array_ids=tuple(array_ids),
        )
        self._handles[handle.handle_id] = handle
        self._matrices[handle.handle_id] = matrix.astype(np.int64)
        self._programmed[handle.handle_id] = (levels, conductances)
        self._next_handle += 1
        return handle

    def update_row(self, handle: MatrixHandle, row: int, values: np.ndarray) -> MatrixHandle:
        """Re-program a single matrix row (updateRow library call)."""
        matrix = self._matrices[handle.handle_id].copy()
        matrix[row, :] = np.asarray(values, dtype=np.int64)
        return self._reprogram(handle, matrix)

    def update_col(self, handle: MatrixHandle, col: int, values: np.ndarray) -> MatrixHandle:
        """Re-program a single matrix column (updateCol library call)."""
        matrix = self._matrices[handle.handle_id].copy()
        matrix[:, col] = np.asarray(values, dtype=np.int64)
        return self._reprogram(handle, matrix)

    def _reprogram(self, handle: MatrixHandle, matrix: np.ndarray) -> MatrixHandle:
        self.release(handle)
        return self.set_matrix(
            matrix,
            value_bits=handle.value_bits,
            bits_per_cell=handle.bits_per_cell,
            representation=handle.representation,
        )

    def release(self, handle: MatrixHandle) -> None:
        """Free the arrays used by ``handle`` (disableAnalogMode path)."""
        for array_id in handle.array_ids:
            self._crossbars.pop(array_id, None)
            self._free_arrays.append(array_id)
        self._free_arrays.sort()
        self._handles.pop(handle.handle_id, None)
        self._matrices.pop(handle.handle_id, None)
        self._programmed.pop(handle.handle_id, None)
        self._kernels.pop(handle.handle_id, None)
        for key in [k for k in self._plans if k[0] == handle.handle_id]:
            del self._plans[key]

    # ------------------------------------------------------------------ #
    # Shard kernel cache (vectorized execution engine)                     #
    # ------------------------------------------------------------------ #
    def kernel_for(self, handle: MatrixHandle) -> ShardKernel:
        """Per-shard conductance tensors for ``handle`` (views, not copies).

        Built lazily on first use and cached per allocation; ``release``
        (and therefore ``update_row`` / ``update_col``, which reprogram
        through release + ``set_matrix``) invalidates the entry, so the
        cache can never serve conductances of a stale programming.
        """
        kernel = self._kernels.get(handle.handle_id)
        if kernel is None:
            kernel = build_shard_kernel(self, handle)
            self._kernels[handle.handle_id] = kernel
        return kernel

    #: Distinct scratch shapes retained before the cache resets (a serving
    #: deployment sees a handful of batch shapes; a runaway caller churning
    #: through arbitrary shapes must not leak memory).
    SCRATCH_SHAPES = 8

    def _scratch_for(self, key: Tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        buffer = self._scratch.get(key)
        if buffer is None:
            if len(self._scratch) >= self.SCRATCH_SHAPES:
                # Evict the oldest shape only, so a caller cycling through
                # many batch shapes cannot flush the hot steady-state
                # buffers along with the cold ones.
                self._scratch.pop(next(iter(self._scratch)))
            buffer = np.empty(shape, dtype=dtype)
            self._scratch[key] = buffer
        return buffer

    def bitplane_scratch(self, input_bits: int, batch: int, rows: int) -> np.ndarray:
        """Reusable ``(input_bits, batch, rows)`` int64 bit-plane tensor.

        The vectorized forward pass overwrites it completely via
        :func:`~repro.analog.bitslicing.slice_inputs_tensor`'s ``out=``, so
        a steady stream of same-shaped batches (the serving steady state)
        allocates the bit-plane stack exactly once per shape.  The buffer
        never outlives one ``execute_batch`` call: each HCT is driven by one
        pool worker at a time, and no result aliases it.
        """
        key = ("planes", input_bits, batch, rows)
        return self._scratch_for(key, (input_bits, batch, rows), np.int64)

    def float_scratch(self, *shape: int) -> np.ndarray:
        """Reusable float64 block of ``shape``: the exact path's ``(batch,
        rows)`` input block; the general path's float bit planes and its
        one work block per shard shape (column sums, noise term, draw)."""
        return self._scratch_for(("float",) + shape, shape, np.float64)

    @property
    def cached_kernels(self) -> int:
        """Number of allocations with a live shard kernel cache entry."""
        return len(self._kernels)

    @property
    def cached_plans(self) -> int:
        """Number of live compiled execution plans (all ``input_bits``)."""
        return len(self._plans)

    def programmed_planes(self, handle: MatrixHandle) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(slices, 2, rows, cols)`` level and conductance blocks of
        ``handle``: every crossbar's programmed slice is a view of them."""
        return self._programmed[handle.handle_id]

    def stored_matrix(self, handle: MatrixHandle) -> np.ndarray:
        """The quantised integer matrix associated with ``handle``."""
        return self._matrices[handle.handle_id].copy()

    # ------------------------------------------------------------------ #
    # MVM execution                                                        #
    # ------------------------------------------------------------------ #
    def execute_mvm(
        self,
        handle: MatrixHandle,
        vector: np.ndarray,
        input_bits: int = 8,
        active_adc_bits: Optional[int] = None,
        steps: Optional[Sequence] = None,
    ) -> MvmExecution:
        """Run ``vector @ matrix`` through the analog arrays bit-serially.

        Returns the partial-product stream; the caller (HCT) is responsible
        for the shift-and-add reduction in the digital domain.  ``steps``
        optionally supplies the pre-compiled schedule of a cached
        :class:`~repro.plan.ir.MvmPlan` (the HCT passes its plan's steps);
        bare-ACE callers omit it and the schedule is unrolled on the fly
        from the same single source (:func:`~repro.plan.ir.unroll_schedule`).

        Batched execution has no ACE-level entry point: it is interpreted
        from the plan by the backends in :mod:`repro.plan.backends`.
        """
        if not self.enabled:
            raise AllocationError("the ACE of this tile has been disabled")
        vector = np.asarray(vector, dtype=np.int64)
        rows, cols = handle.shape
        if vector.shape != (rows,):
            raise QuantizationError(
                f"input vector of shape {vector.shape} does not match matrix rows ({rows})"
            )
        bit_vectors = slice_inputs(vector, input_bits)
        plan = ShiftAddPlan(
            input_bits=input_bits,
            weight_slices=handle.num_slices,
            bits_per_cell=handle.bits_per_cell,
        )
        execution = MvmExecution(handle=handle, plan=plan)
        if steps is None:
            # Deferred import: repro.plan imports the backends package,
            # which imports this module.
            from ..plan.ir import unroll_schedule

            steps = unroll_schedule(
                handle, input_bits, self.config.array_rows, self.config.array_cols
            )

        start_cycles, start_energy = self.ledger.cycles, self.ledger.energy_pj
        for step in steps:
            output = self._crossbars[step.array_id].mvm_1bit(
                bit_vectors[step.input_bit][step.row_start: step.row_end],
                active_adc_bits=active_adc_bits,
            )
            execution.partials.append(
                PartialProduct(
                    values=output.values,
                    shift=step.shift,
                    input_bit=step.input_bit,
                    weight_slice=step.weight_slice,
                    row_tile=step.row_tile,
                    col_tile=step.col_tile,
                    col_offset=step.col_offset,
                )
            )
        execution.analog_cycles = self.ledger.cycles - start_cycles
        execution.analog_energy_pj = self.ledger.energy_pj - start_energy
        return execution

    def expected_mvm(self, handle: MatrixHandle, vector: np.ndarray) -> np.ndarray:
        """Noise-free reference ``vector @ matrix`` (used by tests and the runtime).

        Accepts a single vector or a ``(batch, rows)`` matrix of vectors.
        """
        matrix = self._matrices[handle.handle_id]
        return np.asarray(vector, dtype=np.int64) @ matrix
