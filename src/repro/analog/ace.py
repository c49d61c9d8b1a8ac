"""The Analog Compute Element (ACE) of a hybrid compute tile.

An ACE bundles 64 analog crossbars with their input buffers, wordline
drivers, and ADCs (Table 2).  Matrices are programmed once -- tiled over
arrays by rows, columns, and weight bit slices -- and then reused by many
MVMs, because programming multi-bit analog devices is slow and energetic
(Section 4.1).  An MVM applies the input one bit per cycle and emits the
stream of per-bit partial products that the hybrid compute tile forwards
(through its shift units) to the digital compute element for reduction;
it is interpreted from the tile's compiled plan by the backends in
:mod:`repro.plan.backends`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import AllocationError, CapacityError, ConfigurationError, QuantizationError
from ..metrics import CostLedger, tally, units
from ..reram import ConductanceMapper, DeviceParameters, NoiseConfig, ParasiticModel
from .adc import AnalogToDigitalConverter, make_adc
from .bitslicing import ShiftAddPlan, slice_matrix
from .crossbar import AnalogCrossbar
from .dac import DigitalToAnalogConverter
from .kernels import ShardKernel, answers_exactly, build_shard_kernel
from .numbers import DifferentialPairs, OffsetSubtraction

__all__ = [
    "AceConfig",
    "AnalogComputeElement",
    "BatchMvmExecution",
    "BatchPartialProduct",
    "MatrixHandle",
    "ModeSwitch",
    "integer_matrix",
]


class ModeSwitch:
    """A tile switch that can take its tile off the exact device path
    (``ace.enabled``, ``hct.analog_enabled``, ``hct.digital_post_processing``).

    Read, it is a plain instance attribute: the descriptor has no
    ``__get__``, so a read finds the value in the instance ``__dict__``
    without a call.  Every write, through a method or as a plain
    attribute, stores the value and moves :attr:`epoch` on, so a device
    plan that saw all its tiles on at one epoch needs to look again only
    once it has moved (``repro.plan.backends.execute_device_plan``).  The
    epoch is one per process: a write on any tile makes every plan look at
    its blocks once more, which costs one walk and changes no answer, and
    no tile needs to know its chip.
    """

    #: The last epoch handed out; only ever grows.
    epoch = 0
    _epochs = itertools.count(1)

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __set__(self, target, value) -> None:
        target.__dict__[self.name] = value
        ModeSwitch.epoch = next(ModeSwitch._epochs)


#: The signed-number encodings a matrix can be programmed with, by name.
_ENCODERS = {"differential": DifferentialPairs, "offset": OffsetSubtraction}


def integer_matrix(matrix: np.ndarray, shape: Optional[Tuple[int, int]] = None) -> np.ndarray:
    """``matrix`` as an array, refused unless it is 2-D with an integer
    dtype (a float matrix must be quantised first, never truncated) and,
    when ``shape`` is given, of that shape: an in-place rewrite's."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise QuantizationError("set_matrix expects a 2-D matrix")
    if not np.issubdtype(matrix.dtype, np.integer):
        raise QuantizationError("set_matrix expects an integer (quantised) matrix")
    if shape is not None and matrix.shape != shape:
        raise QuantizationError(f"expected a matrix of shape {shape}")
    return matrix


def updated_matrix(matrix: np.ndarray, index, values) -> np.ndarray:
    """A copy of ``matrix`` with ``values`` stored at ``index`` (a row or a
    column), refused unless ``values`` has an integer dtype: an update, like
    a matrix, must be quantised first, never truncated."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise QuantizationError("update_row / update_col expect integer (quantised) values")
    matrix = matrix.copy()
    matrix[index] = values
    return matrix


#: ADCs per active array, by ADC family: two SAR or one ramp (Table 2).
ADCS_PER_ARRAY = {"sar": 2, "ramp": 1}


@dataclass(frozen=True)
class AceConfig:
    """Geometry and periphery of an analog compute element (Table 2)."""

    num_arrays: int = 64
    array_rows: int = 64
    array_cols: int = 64
    #: ADC family of every array: ``"sar"`` or ``"ramp"``.
    adc_kind: str = "sar"
    row_periphery_power_mw: float = 0.7

    def __post_init__(self) -> None:
        if self.adc_kind not in ADCS_PER_ARRAY:
            raise ConfigurationError("adc_kind must be 'sar' or 'ramp'")

    @property
    def adcs_per_array(self) -> int:
        """ADCs per active array, fixed by the family (Table 2)."""
        return ADCS_PER_ARRAY[self.adc_kind]


@dataclass(frozen=True)
class MatrixHandle:
    """A matrix programmed into one or more analog arrays."""

    handle_id: int
    shape: Tuple[int, int]
    value_bits: int
    bits_per_cell: int
    representation: str
    row_tiles: int
    col_tiles: int
    num_slices: int
    array_ids: Tuple[int, ...]


@dataclass(frozen=True)
class BatchPartialProduct:
    """One ADC output *matrix* produced during a bit-sliced MVM: the
    partial products of the whole batch, one row per input vector (shape
    ``(batch, tile_cols)``), and where they land."""

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

    #: Whether the ACE serves MVMs (``disable_analog_mode`` clears it).
    enabled = ModeSwitch()

    def __init__(
        self,
        config: Optional[AceConfig] = None,
        device: Optional[DeviceParameters] = None,
        noise: Optional[NoiseConfig] = None,
        parasitics: Optional[ParasiticModel] = None,
        ledger: Optional[CostLedger] = None,
        tile_id: int = 0,
    ) -> None:
        self.config = config if config is not None else AceConfig()
        #: Names this ACE's arrays in their noise streams (``(tile_id, array_id)``).
        self.tile_id = int(tile_id)
        self.device = device if device is not None else DeviceParameters()
        self.noise_config = noise if noise is not None else NoiseConfig.ideal()
        self.parasitics = parasitics
        self.ledger = ledger if ledger is not None else CostLedger()
        self._crossbars: Dict[int, AnalogCrossbar] = {}
        self._free_arrays = list(range(self.config.num_arrays))
        self._matrices: Dict[int, np.ndarray] = {}
        #: Per allocation, the ``(slices, 2, rows, cols)`` level block and
        #: conductance block ``set_matrix`` programmed; the crossbars and the
        #: shard kernel hold views of them, nobody a copy.
        self._programmed: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._kernels: Dict[int, ShardKernel] = {}
        #: Per allocation, whether its arrays answer every partial product
        #: exactly (:func:`~repro.analog.kernels.answers_exactly`), decided
        #: by each write while the arrays are in hand.
        self._exact: Dict[int, bool] = {}
        #: Compiled execution plans, keyed ``(handle_id, input_bits)`` and
        #: populated by the owning tile's :class:`~repro.plan.planner.Planner`;
        #: dropped on release together with the shard-kernel cache.
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

    def _make_adc(self, bits_per_cell: int) -> AnalogToDigitalConverter:
        max_sum = self.config.array_rows * (2 ** bits_per_cell - 1)
        return make_adc(self.config.adc_kind, min_value=-max_sum, max_value=max_sum)

    def _allocate_crossbar(self, bits_per_cell: int) -> int:
        if not self._free_arrays:
            raise AllocationError("no free analog arrays remain in this ACE")
        array_id = self._free_arrays.pop(0)
        self._crossbars[array_id] = AnalogCrossbar(
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
        return array_id

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
        Every check comes first -- the encoder's range check is the only
        scan of the values -- so a refused matrix takes no array.
        """
        matrix = integer_matrix(matrix)
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
        if representation not in _ENCODERS:
            raise QuantizationError(f"unknown representation {representation!r}")
        matrix = _ENCODERS[representation](value_bits).check(matrix)
        num_slices = -(-value_bits // bits_per_cell)
        handle = MatrixHandle(
            handle_id=self._next_handle,
            shape=(rows, cols),
            value_bits=value_bits,
            bits_per_cell=bits_per_cell,
            representation=representation,
            row_tiles=-(-rows // self.config.array_rows),
            col_tiles=-(-cols // self.config.array_cols),
            num_slices=num_slices,
            array_ids=tuple([self._allocate_crossbar(bits_per_cell) for _ in range(needed)]),
        )
        self._matrices[handle.handle_id] = np.empty((rows, cols), dtype=np.int64)
        blocks = (num_slices, 2, rows, cols)
        levels, conductances = self._programmed[handle.handle_id] = (
            np.empty(blocks, dtype=np.int64), np.empty(blocks))
        self._next_handle += 1
        # Every array holds views of the blocks, in allocation order (row
        # tile, column tile, weight slice), for as long as the handle lives.
        arrays = iter(handle.array_ids)
        height, width = self.config.array_rows, self.config.array_cols
        for r0, c0 in itertools.product(range(0, rows, height), range(0, cols, width)):
            tile = np.s_[:, r0: r0 + height, c0: c0 + width]
            for slice_levels, slice_conductances in zip(levels, conductances):
                crossbar = self._crossbars[next(arrays)]
                crossbar._levels = slice_levels[tile]
                crossbar._conductances = slice_conductances[tile]
        self._write(handle, matrix)
        return handle

    def update_row(self, handle: MatrixHandle, row: int, values: np.ndarray) -> MatrixHandle:
        """Re-program a single matrix row (updateRow library call)."""
        return self.reprogram(
            handle, updated_matrix(self._matrices[handle.handle_id], np.s_[row, :], values)
        )

    def update_col(self, handle: MatrixHandle, col: int, values: np.ndarray) -> MatrixHandle:
        """Re-program a single matrix column (updateCol library call)."""
        return self.reprogram(
            handle, updated_matrix(self._matrices[handle.handle_id], np.s_[:, col], values)
        )

    def reprogram(self, handle: MatrixHandle, matrix: np.ndarray) -> MatrixHandle:
        """Rewrite ``handle``'s arrays with ``matrix`` where they are.

        ``setMatrix`` over a live allocation of the same shape, and the one
        entry ``update_row`` / ``update_col`` ride: :meth:`set_matrix`'s
        checks in its order, then its write body (:meth:`_write`) over the
        allocation's own level and conductance blocks.  That is what a
        release and a ``set_matrix`` onto the same arrays would leave, but
        the handle, its arrays, its compiled plans and their batch receipts
        stay, and so does the shard kernel they hold: its recombined
        weights, read variance and exactness proof are rewritten where they
        lie (:meth:`~repro.analog.kernels.ShardKernel.refresh`).  Returns
        ``handle``.
        """
        self._write(handle, self.encoding(handle).check(integer_matrix(matrix, handle.shape)))
        return handle

    def encoding(self, handle: MatrixHandle):
        """The signed-number encoding ``handle`` is programmed with."""
        return _ENCODERS[handle.representation](handle.value_bits)

    def _write(self, handle: MatrixHandle, matrix: np.ndarray) -> None:
        """Program ``matrix`` into ``handle``'s arrays: the one write body of
        :meth:`set_matrix` and :meth:`reprogram`, and of a device's in-place
        rewrite.  ``matrix`` has been checked at the entry it came through
        (its encoder's ``check``), so nothing here scans it again.

        It is encoded, sliced and mapped into the allocation's ``(slices, 2,
        rows, cols)`` level and conductance blocks, one pass each.  Then every
        array is rewound to the state it was built in and programs its views
        of the blocks again; the block's programming is one ``ace.program``
        charge, the sum of every array's integer units.  A live shard kernel
        is refreshed where it lies.
        """
        levels, conductances = self._programmed[handle.handle_id]
        slice_matrix(self.encoding(handle).planes(matrix), handle.value_bits,
                     handle.bits_per_cell, out=levels)
        ConductanceMapper(self.device, handle.bits_per_cell).value_to_conductance(
            levels, out=conductances
        )
        stored = self._matrices[handle.handle_id]
        stored[...] = matrix
        cycles, energy = units(self.device.program_latency_cycles), self.device.program_energy_pj
        charges = []
        crossbars = [self._crossbars[array_id] for array_id in handle.array_ids]
        for crossbar in crossbars:
            crossbar.rewind()
            crossbar._program(crossbar._levels, crossbar._conductances)
            charges.append(("ace.program", cycles, units(crossbar._levels.size * energy)))
        self.ledger.charge_stream(tally(charges))
        exact = self._exact[handle.handle_id] = answers_exactly(crossbars)
        kernel = self._kernels.get(handle.handle_id)
        if kernel is not None:
            kernel.refresh(stored, exact)

    def release(self, handle: MatrixHandle) -> None:
        """Free the arrays used by ``handle`` (disableAnalogMode path)."""
        for array_id in handle.array_ids:
            self._crossbars.pop(array_id, None)
            self._free_arrays.append(array_id)
        self._free_arrays.sort()
        self._matrices.pop(handle.handle_id, None)
        self._programmed.pop(handle.handle_id, None)
        self._kernels.pop(handle.handle_id, None)
        self._exact.pop(handle.handle_id, None)
        for key in [k for k in self._plans if k[0] == handle.handle_id]:
            del self._plans[key]

    # ------------------------------------------------------------------ #
    # Shard kernel cache (vectorized execution engine)                     #
    # ------------------------------------------------------------------ #
    def answers_exactly(self, handle: MatrixHandle) -> bool:
        """Whether ``handle``'s arrays answer every partial product exactly,
        as :func:`~repro.analog.kernels.answers_exactly` decided at its last
        write: what the shard kernel's ``exact`` and the pool's ABFT band
        read, without building a kernel."""
        return self._exact[handle.handle_id]

    def kernel_for(self, handle: MatrixHandle) -> ShardKernel:
        """Per-shard conductance tensors for ``handle`` (views, not copies).

        Built lazily on first use and cached per allocation; ``release``
        drops the entry and :meth:`reprogram` (so ``update_row`` /
        ``update_col``) refreshes it in place, so the cache can never serve
        weights of a stale programming.
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
    # Verification                                                         #
    # ------------------------------------------------------------------ #
    def expected_mvm(self, handle: MatrixHandle, vector: np.ndarray) -> np.ndarray:
        """Noise-free reference ``vector @ matrix`` (used by tests and the runtime).

        Accepts a single vector or a ``(batch, rows)`` matrix of vectors.
        """
        matrix = self._matrices[handle.handle_id]
        return np.asarray(vector, dtype=np.int64) @ matrix
