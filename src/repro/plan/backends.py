"""Execution backends: interpreters of the :class:`~repro.plan.ir.MvmPlan`.

PR 3's engines were selected by strings threaded through every layer and
hand-synchronised by tests.  Here each engine is an
:class:`ExecutionBackend` registered in the :class:`BackendRegistry`, and
both consume the *same compiled plan object*:

* :class:`ReferenceExecutor` walks ``plan.steps`` one crossbar call at a
  time -- the hardware-faithful schedule and the ground truth.
* :class:`VectorizedExecutor` contracts the same steps as stacked tensor
  ops over ``plan.kernel`` and replays the reference charge stream from
  the plan's :class:`~repro.plan.ir.BatchReceipt`.  Bit-identity (results,
  ledger totals *and* breakdowns, timelines, IIU statistics) is a hard
  invariant pinned by ``tests/test_kernels.py``.
* :class:`CostModelExecutor` ("estimate") replays the same receipt --
  identical ledger totals and timelines -- without computing any values:
  capacity planning at zero arithmetic cost, and proof that new backends
  drop in without touching the tile.

One level up, :func:`execute_device_plan` interprets a
:class:`~repro.plan.ir.DevicePlan`: all tiles of one device-level matrix
on the proven-exact path in one contraction, with the same receipt replay
per tile.  Devices use it when the call's backend is the stock
:class:`VectorizedExecutor`.

Backends are resolved by name (or passed as instances) anywhere a
``backend=`` knob exists; ``None`` defers to :func:`default_backend`,
which honours the ``REPRO_BACKEND`` environment variable (the CI
equivalence matrix runs the suite once per backend through it).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..analog.ace import BatchMvmExecution, BatchPartialProduct
from ..analog.bitslicing import slice_inputs
from ..analog.kernels import ace_forward_vectorized, validate_input_range
from ..errors import AllocationError, ConfigurationError, ExecutionError, QuantizationError
from .ir import DevicePlan, HctBatchMvmResult, MvmPlan

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendRegistry",
    "CostModelExecutor",
    "ExecutionBackend",
    "ReferenceExecutor",
    "VectorizedExecutor",
    "default_backend",
    "execute_device_plan",
    "resolve_backend",
]

#: Backend used when callers pass ``backend=None`` and the environment
#: does not override it.
DEFAULT_BACKEND = "vectorized"

#: Environment variable overriding the default backend (used by the CI
#: equivalence matrix to run the whole suite under each executor).
BACKEND_ENV_VAR = "REPRO_BACKEND"


class ExecutionBackend:
    """One interpreter of the :class:`~repro.plan.ir.MvmPlan` IR.

    Subclasses implement :meth:`execute_batch`; they receive the owning
    tile (for its ACE, DCE, shift/transpose units, IIU, arbiter, and
    ledger) and the compiled plan, and must honour the bit-identity
    contract: results, ledger totals and breakdowns, timelines, and IIU
    statistics all match the reference interpretation of the same plan.
    """

    #: Registry name of the backend.
    name = "base"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        """Execute one batched MVM described by ``plan`` on ``tile``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def _admit_batch(tile, plan: MvmPlan, vectors: np.ndarray) -> np.ndarray:
    """Shared entry validation of every backend (same errors, same order).

    The one place a tile-level batch is normalised to a ``(batch, rows)``
    int64 block and checked against the tile and the plan; everything a
    backend calls below this trusts the block it returns.
    """
    if not (tile.analog_enabled and tile.ace.enabled):
        raise AllocationError("the ACE of this tile has been disabled")
    vectors = np.asarray(vectors, dtype=np.int64)
    if vectors.ndim < 2:
        vectors = np.atleast_2d(vectors)
    if vectors.shape[0] == 0:
        raise ExecutionError("execute_mvm_batch needs at least one input vector")
    rows, _ = plan.handle.shape
    if vectors.shape[1] != rows:
        raise QuantizationError(
            f"input batch of shape {vectors.shape} does not match matrix rows ({rows})"
        )
    return vectors


def _replay_receipt(tile, plan: MvmPlan, receipt, optimized: bool) -> None:
    """Charge and count one batch on ``tile`` from its receipt.

    Replays the reference interpreter's accounting exactly: the ``ace.mvm``
    stream and -- with digital post-processing on -- per column tile the
    ``dce.write`` / ``dce.boolean`` charges as one compiled run list, the
    crossbars' ``mvm_count``, the IIU and transpose-unit counters by the
    receipt's totals, and the ``hct.mvm_batch`` schedule commit.  Shared by
    the per-tile backends (:func:`_account_batch`) and the whole-allocation
    contraction (:func:`execute_device_plan`), so the two cannot drift.
    """
    digital = tile.digital_post_processing
    tile.ledger.charge_stream(receipt.runs if digital else receipt.analog_runs)
    steps = receipt.mvm_steps
    for crossbar in plan.crossbars:
        crossbar.mvm_count += steps
    if not digital:
        return
    tile.iiu.injections += receipt.injections
    tile.iiu.front_end_slots_saved += receipt.slots_saved
    tile.transpose_unit.vector_count += receipt.n_adds
    charged = receipt.optimized_cycles if optimized else receipt.unoptimized_cycles
    tile._commit_schedule(plan, receipt.optimized_cycles, charged)


def _account_batch(
    tile,
    plan: MvmPlan,
    vectors: np.ndarray,
    shard_totals,
    optimized: bool,
    compensation,
    active_adc_bits: Optional[int],
) -> HctBatchMvmResult:
    """Everything of a batch besides its arithmetic, from the plan's receipt.

    ``shard_totals`` holds one shift-and-added ``(batch, used_cols)`` block
    per shard in ``plan.kernel.tiles`` order, or is ``None`` for a cost-only
    run (``values`` stays an all-zero placeholder and no register moves).
    The cost side is :func:`_replay_receipt`; the value side reduces the
    shard totals per column tile and leaves the accumulator registers as
    the hardware stream would.
    """
    batch = vectors.shape[0]
    handle = plan.handle
    ledger = tile.ledger
    start_cycles, start_energy = ledger.cycles, ledger.energy_pj
    receipt = tile.planner.receipt_for(plan, batch, active_adc_bits)
    _replay_receipt(tile, plan, receipt, optimized)
    estimated = shard_totals is None
    values = np.zeros((batch, handle.shape[1]), dtype=np.int64)

    if not tile.digital_post_processing:
        # Expert mode: the raw shift-and-add reduction, no DCE truncation.
        if not estimated:
            for shard, totals in zip(plan.kernel.tiles, shard_totals):
                values[:, shard.col_offset: shard.col_offset + shard.used_cols] += totals
        optimized_cycles = unoptimized_cycles = ledger.cycles - start_cycles
        breakdown, slots_saved = {"analog": optimized_cycles}, 0
    else:
        if not estimated:
            for red in plan.reduction:
                pipeline = tile.dce.pipeline(plan.output_base + red.col_tile)
                shards = shard_totals[red.col_tile:: handle.col_tiles]
                reduced = shards[0]
                for totals in shards[1:]:
                    reduced = reduced + totals
                reduced = tile.iiu.wrap_accumulator(reduced, pipeline.depth)
                # Leave the accumulator VR as the hardware stream would.
                pipeline.set_vr_bits(plan.accumulator_vr, reduced[-1])
                values[:, red.col_offset: red.col_offset + red.width] = reduced
        optimized_cycles = receipt.optimized_cycles
        unoptimized_cycles = receipt.unoptimized_cycles
        breakdown, slots_saved = dict(receipt.breakdown), receipt.slots_saved

    if compensation is not None and not estimated:
        values = compensation.recover_batch(values, vectors)
    return HctBatchMvmResult(
        values=values,
        batch=batch,
        optimized_cycles=optimized_cycles,
        unoptimized_cycles=unoptimized_cycles,
        energy_pj=ledger.energy_pj - start_energy,
        breakdown=breakdown,
        num_partial_products=len(plan.steps),
        iiu_slots_saved=slots_saved,
        estimated=estimated,
    )


def execute_device_plan(
    plan: DevicePlan, vectors: np.ndarray, runtime_ledger
) -> Optional[np.ndarray]:
    """One batch against a whole device-level matrix, as one contraction.

    ``vectors`` is the ``(batch, rows)`` int64 block the device admitted.
    The input range is validated once, before anything is charged; the
    banded matmul, the accumulator wrap and the sum over row bands produce
    the integers the per-tile loop would add up block by block (everything
    stays far below 2**53).  Each block then gets its side effects in
    placement order -- receipt replay against its own ledger, accumulator
    VRs from the last batch row, the ``runtime.mvm_batch`` charge -- so
    every ledger sees the additions of the loop in the order of the loop.

    Returns ``None``, having touched nothing, when a block has left the
    exact path since the plan was compiled (digital or analog mode
    switched off): the caller walks the tiles instead.
    """
    for hct, _, _, _ in plan.tiles:
        if not (hct.digital_post_processing and hct.analog_enabled and hct.ace.enabled):
            return None
    validate_input_range(vectors, plan.input_bits)
    batch = vectors.shape[0]
    block, banded = plan.operands(batch)
    block[...] = vectors
    partials = plan.tiles[0][0].iiu.wrap_accumulator(
        np.matmul(banded, plan.weights).astype(np.int64), plan.depth
    )
    # Every block's last batch row as bit planes, (row_bands, depth, cols).
    planes = (partials[:, -1, None, :] & plan.bit_weights) != 0
    for hct, tile_plan, band, outputs in plan.tiles:
        ledger = hct.ledger
        start_energy = ledger.energy_pj
        receipt = hct.planner.receipt_for(tile_plan, batch)
        _replay_receipt(hct, tile_plan, receipt, True)
        for pipeline, col_offset, width in outputs:
            pipeline.set_vr_planes(
                tile_plan.accumulator_vr, planes[band, :, col_offset: col_offset + width]
            )
        runtime_ledger.charge("runtime.mvm_batch", cycles=receipt.optimized_cycles,
                              energy_pj=ledger.energy_pj - start_energy)
    return np.add.reduce(partials, axis=0)


class ReferenceExecutor(ExecutionBackend):
    """The loop-faithful interpreter: one crossbar call per plan step."""

    name = "reference"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        batch = vectors.shape[0]
        start_energy = tile.ledger.energy_pj
        execution = self._analog_forward(tile, plan, vectors, active_adc_bits)

        if not tile.digital_post_processing:
            values = execution.reduce()
            if compensation is not None:
                values = compensation.recover_batch(values, vectors)
            cycles = execution.analog_cycles
            return HctBatchMvmResult(
                values=values,
                batch=batch,
                optimized_cycles=cycles,
                unoptimized_cycles=cycles,
                energy_pj=tile.ledger.energy_pj - start_energy,
                breakdown={"analog": cycles},
                num_partial_products=len(execution.partials),
            )

        values, (n_adds, add_uops), slots_saved = self._reduce_in_dce(
            tile, plan, execution
        )
        if compensation is not None:
            values = compensation.recover_batch(values, vectors)

        optimized_cycles, breakdown = plan.cost.timeline(batch, n_adds, add_uops, True)
        unoptimized_cycles, _ = plan.cost.timeline(batch, n_adds, add_uops, False)
        charged = optimized_cycles if optimized else unoptimized_cycles
        tile._commit_schedule(plan, optimized_cycles, charged)

        return HctBatchMvmResult(
            values=values,
            batch=batch,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=tile.ledger.energy_pj - start_energy,
            breakdown=breakdown,
            num_partial_products=len(execution.partials),
            iiu_slots_saved=slots_saved,
        )

    @staticmethod
    def _analog_forward(
        tile, plan: MvmPlan, vectors: np.ndarray, active_adc_bits: Optional[int]
    ) -> BatchMvmExecution:
        """Walk ``plan.steps`` in issue order, one crossbar call per step."""
        ace = tile.ace
        bit_matrices = slice_inputs(vectors, plan.input_bits)
        execution = BatchMvmExecution(
            handle=plan.handle, batch=vectors.shape[0], plan=plan.shift_add
        )
        start_cycles, start_energy = ace.ledger.cycles, ace.ledger.energy_pj
        for step in plan.steps:
            tile_bits = bit_matrices[step.input_bit][:, step.row_start: step.row_end]
            output = ace.crossbar(step.array_id).mvm_batch(
                tile_bits, active_adc_bits=active_adc_bits
            )
            execution.partials.append(
                BatchPartialProduct(
                    values=output.values,
                    shift=step.shift,
                    input_bit=step.input_bit,
                    weight_slice=step.weight_slice,
                    row_tile=step.row_tile,
                    col_tile=step.col_tile,
                    col_offset=step.col_offset,
                )
            )
        execution.analog_cycles = ace.ledger.cycles - start_cycles
        execution.analog_energy_pj = ace.ledger.energy_pj - start_energy
        return execution

    @staticmethod
    def _reduce_in_dce(tile, plan: MvmPlan, execution: BatchMvmExecution):
        """Gate-accounted batch reduction of the partial-product stream.

        One NumPy shift-and-add per column tile; the shift units still align
        every partial product in flight and the IIU reconstructs the
        equivalent µop stream for cost accounting
        (:meth:`~repro.core.injection_unit.InstructionInjectionUnit.inject_reduction_batch`).
        """
        handle = plan.handle
        staging = list(plan.staging_vrs)
        n_adds = 0
        add_uops = 12.0
        slots_saved = 0
        result = np.zeros((execution.batch, handle.shape[1]), dtype=np.int64)

        for red in plan.reduction:
            pipeline = tile.dce.pipeline(plan.output_base + red.col_tile)
            tile_partials = [p for p in execution.partials if p.col_tile == red.col_tile]
            if not tile_partials:
                continue
            shifted_values = []
            shifts = []
            for partial in tile_partials:
                transfer = tile.shift_unit.apply(
                    np.rint(partial.values).astype(np.int64),
                    input_bit=partial.input_bit,
                    extra_shift=partial.weight_slice * handle.bits_per_cell,
                )
                tile.transpose_unit.batch_to_registers(transfer.values)
                shifted_values.append(transfer.values)
                shifts.append(transfer.shift)
            reduced, adds, add_uops, saved = tile.iiu.inject_reduction_batch(
                pipeline, shifted_values, plan.accumulator_vr, staging, shifts
            )
            n_adds += adds
            slots_saved += saved
            result[:, red.col_offset: red.col_offset + red.width] = reduced[:, : red.width]
        return result, (n_adds, add_uops), slots_saved


class VectorizedExecutor(ExecutionBackend):
    """The stacked-tensor interpreter: one contraction per shard."""

    name = "vectorized"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        shard_totals = ace_forward_vectorized(tile.ace, plan, vectors)
        return _account_batch(
            tile, plan, vectors, shard_totals, optimized, compensation, active_adc_bits
        )


class CostModelExecutor(ExecutionBackend):
    """Cost-only interpreter: real ledgers and timelines, no arithmetic.

    Replays the same :class:`~repro.plan.ir.BatchReceipt` as the vectorized
    engine -- the per-step ``ace.mvm`` charges, the IIU's batched write+ADD
    accounting, and the ``hct.mvm_batch`` timeline charge -- so
    ``CostLedger`` totals, breakdowns, and the returned timelines are
    bit-identical to an actual execution, while ``values`` is an all-zero
    placeholder flagged with ``estimated=True``.  Useful for capacity
    planning and admission-control what-ifs where only the ledger matters.
    ``compensation`` is ignored (there are no values to recover), no noise
    RNG is consumed and no DCE register is written.
    """

    name = "estimate"

    def execute_batch(
        self,
        tile,
        plan: MvmPlan,
        vectors: np.ndarray,
        optimized: bool = True,
        compensation=None,
        active_adc_bits: Optional[int] = None,
    ) -> HctBatchMvmResult:
        vectors = _admit_batch(tile, plan, vectors)
        validate_input_range(vectors, plan.input_bits)
        return _account_batch(
            tile, plan, vectors, None, optimized, None, active_adc_bits
        )


class BackendRegistry:
    """Name -> :class:`ExecutionBackend` registry.

    New backends register here and immediately work at every layer
    (tile, device, pool, server) -- nothing above the registry knows the
    set of engines.
    """

    def __init__(self) -> None:
        self._backends: Dict[str, ExecutionBackend] = {}

    def register(
        self, backend: ExecutionBackend, replace: bool = False
    ) -> ExecutionBackend:
        """Register ``backend`` under its ``name``; returns it for chaining."""
        name = backend.name
        if not name or name == "base":
            raise ConfigurationError(
                "execution backends must define a non-default `name`"
            )
        if name in self._backends and not replace:
            raise ConfigurationError(
                f"backend {name!r} is already registered (pass replace=True "
                "to override)"
            )
        self._backends[name] = backend
        return backend

    def get(self, name: str) -> ExecutionBackend:
        """The backend registered under ``name``."""
        backend = self._backends.get(name)
        if backend is None:
            raise ConfigurationError(
                f"unknown execution backend {name!r}; expected one of "
                f"{self.names()} or an ExecutionBackend instance"
            )
        return backend

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, sorted."""
        return tuple(sorted(self._backends))

    def __contains__(self, name: str) -> bool:
        return name in self._backends


#: The process-wide registry every ``backend=`` knob resolves through.
BACKENDS = BackendRegistry()
BACKENDS.register(ReferenceExecutor())
BACKENDS.register(VectorizedExecutor())
BACKENDS.register(CostModelExecutor())


def default_backend() -> str:
    """The backend name used when callers pass ``backend=None``.

    Reads :data:`BACKEND_ENV_VAR` at call time, so one environment variable
    flips the whole stack (the CI equivalence matrix relies on this).
    """
    return os.environ.get(BACKEND_ENV_VAR, DEFAULT_BACKEND)


def resolve_backend(
    backend: Union[None, str, ExecutionBackend],
) -> ExecutionBackend:
    """Map ``None``/name/instance to an :class:`ExecutionBackend`."""
    if backend is None:
        backend = default_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    return BACKENDS.get(backend)
