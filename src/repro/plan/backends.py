"""Execution backends: interpreters of the :class:`~repro.plan.ir.MvmPlan`.

PR 3's engines were selected by strings threaded through every layer and
hand-synchronised by tests.  Here each engine is an
:class:`ExecutionBackend`, named in :data:`BACKENDS`, and
all consume the *same compiled plan object*:

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
* :class:`GateLevelExecutor` is the reference interpreter with the DCE
  reduction executed NOR add by NOR add.  It is not in :data:`BACKENDS`: it serves
  every single-vector call (:data:`GATE_LEVEL`, a batch of one), the one
  place the analytic reduction is checked against executed gates.

One level up, :func:`execute_device_plan` interprets a
:class:`~repro.plan.ir.DevicePlan`: all tiles of one device-level matrix
on the proven-exact path, where no accumulator can wrap, in one matmul,
with the same replay body running one program bound once per batch size.
Devices use it when the call's backend is the stock
:class:`VectorizedExecutor`.

Backends are resolved by name (or passed as instances) anywhere a
``backend=`` knob exists; ``None`` defers to :func:`default_backend`,
which honours the ``REPRO_BACKEND`` environment variable (the CI
equivalence matrix runs the suite once per backend through it).
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Union

import numpy as np

from ..analog.ace import BatchMvmExecution, BatchPartialProduct
from ..analog.bitslicing import integer_vectors, slice_inputs
from ..analog.kernels import ace_forward_vectorized, dot_bound, validate_input_range
from ..core.arbiter import reserve
from ..digital.pipeline import BitPipeline
from ..errors import AllocationError, ConfigurationError, ExecutionError, QuantizationError
from ..metrics import UNITS, charge_streams, claim
from .ir import DevicePlan, HctBatchMvmResult, MvmPlan

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "GATE_LEVEL",
    "CostModelExecutor",
    "ExecutionBackend",
    "GateLevelExecutor",
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

    #: Name of the backend (its key in :data:`BACKENDS`).
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
    vectors = integer_vectors(vectors)
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


def _replay(program) -> None:
    """Charge and count one call's batches from their bound replay program.

    ``program`` is :meth:`~repro.plan.ir.BatchReceipt.bind`'s (one tile) or
    a :class:`~repro.plan.ir.DevicePlan` entry's (every block of the
    allocation, the device's runtime charge and the accumulator stores).
    Replays the reference interpreter's accounting exactly.  The additive
    effects -- the tile ledgers' per-category totals, the crossbars'
    ``mvm_count``, the IIU and transpose-unit counters -- cost one count
    on the program's :class:`~repro.metrics.Pending` record: each target
    folds ``calls x tally`` when it is next read or written
    (:func:`~repro.metrics.settle`).  The first call, and the first after
    another program (another batch size, the per-tile path) claimed one of
    them, charges at once and claims them all back, folding what they held
    first (:func:`~repro.metrics.claim`).  The rest stays eager: the runtime
    ledger's charge (:func:`~repro.metrics.charge_streams`; the pool reads
    it once per served batch), the schedule commits' arbiter reservations
    and clock advances (:func:`~repro.core.arbiter.reserve`) and the
    accumulator stores (:meth:`~repro.digital.pipeline.BitPipeline.store_words`),
    which are state, not sums.  The one replay body of the per-tile
    backends (:func:`_account_batch`) and of the whole-allocation
    contraction (:func:`execute_device_plan`), whose programs are both
    bound once, so the two cannot drift.
    """
    pending, effects, charges, reservations, registers = program
    if pending.claimed:
        pending.calls += 1
    else:
        claim(pending, effects)
    if charges:
        charge_streams(charges)
    if reservations:
        reserve(reservations)
    if registers:
        BitPipeline.store_words(registers)


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
    The cost side is :func:`_replay`; the value side reduces the shard
    totals per column tile and leaves the accumulator registers as the
    hardware stream would.
    """
    batch = vectors.shape[0]
    handle = plan.handle
    receipt = tile.planner.receipt_for(plan, batch, active_adc_bits)
    digital = tile.digital_post_processing
    _replay(receipt.bind(tile, plan, digital, optimized))
    cycle_units, energy_units, _, _ = receipt.digital[not optimized] if digital else receipt.analog
    estimated = shard_totals is None
    values = np.zeros((batch, handle.shape[1]), dtype=np.int64)

    if not digital:
        # Expert mode: the raw shift-and-add reduction, no DCE truncation.
        if not estimated:
            for shard, totals in zip(plan.kernel.tiles, shard_totals):
                values[:, shard.col_offset: shard.col_offset + shard.used_cols] += totals
        optimized_cycles = unoptimized_cycles = cycle_units / UNITS
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
        energy_pj=energy_units / UNITS,
        breakdown=breakdown,
        num_partial_products=len(plan.steps),
        iiu_slots_saved=slots_saved,
        estimated=estimated,
    )


def execute_device_plan(plan: DevicePlan, vectors: np.ndarray) -> Optional[np.ndarray]:
    """One batch against a whole device-level matrix, as one matmul.

    ``vectors`` is the ``(batch, rows)`` int64 block the device admitted.
    The input range is validated once, before anything is charged.  The
    answer is one ``(batch, row_bands * band_rows) @ (row_bands *
    band_rows, cols)`` float64 matmul over the plan's operand (zero padding
    adds nothing): :func:`~repro.plan.planner.compile_device_plan` proved
    that no accumulator wraps and every sum is exact, so this is the sum of
    the per-tile loop's wrapped blocks, written into the entry's product
    buffer and returned as a new int64 array.  The same matmul yields the
    accumulator registers, the last batch row's block sums: a single
    band's is the answer's last row, several bands' come from one more
    operand row per band holding that band's slice of the last row
    (:meth:`~repro.plan.ir.DevicePlan.operands`) -- exact integers too, so
    no order of additions changes a bit.  Then the entry's replay program,
    bound for this batch size, runs in one frame (:func:`_replay`): the
    call is counted for every block's ledger and counters (folded when
    read), the ``runtime.mvm_batch`` charge of all blocks goes to the
    device's runtime ledger, and the accumulator VRs are kept as words
    (``BitPipeline.store_words``, unpacked only if read), so every ledger
    and register reads as the per-tile loop leaves it.  The returned
    array shares nothing with the registers.

    Returns ``None``, having touched nothing, when a block has left the
    exact path since the plan was compiled (digital or analog mode
    switched off): the caller walks the tiles instead.
    """
    for hct, _, _, _ in plan.tiles:
        if not (hct.digital_post_processing and hct.analog_enabled and hct.ace.enabled):
            return None
    validate_input_range(vectors, plan.input_bits)
    batch = vectors.shape[0]
    block, operand, weights, spread, last, product, answer, accumulators, registers, program = (
        plan.scratch.get(batch) or plan.operands(batch))
    block[...] = vectors
    if spread is not None:
        spread[...] = last
    np.matmul(operand, weights, out=product)
    registers[...] = accumulators
    _replay(program)
    return answer.astype(np.int64)


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
        start_energy = tile.ledger.energy_units
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
                energy_pj=(tile.ledger.energy_units - start_energy) / UNITS,
                breakdown={"analog": cycles},
                num_partial_products=len(execution.partials),
            )

        values, slots_saved = self._reduce_in_dce(tile, plan, execution)
        if compensation is not None:
            values = compensation.recover_batch(values, vectors)

        optimized_cycles, breakdown = plan.cost.predict(batch, True)
        unoptimized_cycles, _ = plan.cost.predict(batch, False)
        charged = optimized_cycles if optimized else unoptimized_cycles
        tile._commit_schedule(plan, optimized_cycles, charged)

        return HctBatchMvmResult(
            values=values,
            batch=batch,
            optimized_cycles=optimized_cycles,
            unoptimized_cycles=unoptimized_cycles,
            energy_pj=(tile.ledger.energy_units - start_energy) / UNITS,
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
        ledger = ace.ledger
        start_cycles, start_energy = ledger.cycle_units, ledger.energy_units
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
        execution.analog_cycles = (ledger.cycle_units - start_cycles) / UNITS
        execution.analog_energy_pj = (ledger.energy_units - start_energy) / UNITS
        return execution

    def _reduce_in_dce(self, tile, plan: MvmPlan, execution: BatchMvmExecution):
        """Reduce the partial-product stream in the DCE, column tile by
        column tile, each in one NumPy sum, its µop stream charged for its
        energy and front-end slots
        (:meth:`~repro.core.injection_unit.InstructionInjectionUnit.inject_reduction_batch`).
        Returns ``(values, slots_saved)``."""
        result = np.zeros((execution.batch, plan.handle.shape[1]), dtype=np.int64)
        slots_saved = 0
        for red, pipeline, shifted_values, shifts in _column_streams(tile, plan, execution):
            reduced, saved = tile.iiu.inject_reduction_batch(
                pipeline, shifted_values, plan.accumulator_vr, plan.staging_vrs, shifts
            )
            slots_saved += saved
            result[:, red.col_offset: red.col_offset + red.width] = reduced[:, : red.width]
        return result, slots_saved


def _column_streams(tile, plan: MvmPlan, execution: BatchMvmExecution):
    """Yield ``(reduction step, pipeline, shifted values, shifts)`` per
    column tile that has partial products, in order: the shift units align
    every partial product in flight and the transpose unit stages it, just
    before the column tile is reduced."""
    handle = plan.handle
    for red in plan.reduction:
        partials = [p for p in execution.partials if p.col_tile == red.col_tile]
        if not partials:
            continue
        shifted_values, shifts = [], []
        for partial in partials:
            transfer = tile.shift_unit.apply(
                np.rint(partial.values).astype(np.int64),
                input_bit=partial.input_bit,
                extra_shift=partial.weight_slice * handle.bits_per_cell,
            )
            tile.transpose_unit.batch_to_registers(transfer.values)
            shifted_values.append(transfer.values)
            shifts.append(transfer.shift)
        yield red, tile.dce.pipeline(plan.output_base + red.col_tile), shifted_values, shifts


class GateLevelExecutor(ReferenceExecutor):
    """:class:`ReferenceExecutor` with the write + ADD stream executed.

    Per vector, the shifted partial products are written into the staging
    VRs and added into the accumulator by NOR-synthesised ripple adds
    (:meth:`~repro.core.injection_unit.InstructionInjectionUnit.inject_reduction`),
    and the sum is read back from the accumulator: nothing of the reduction
    is modelled.  The stream it executed must be the one the plan's cost
    model prices -- ``partials_per_vector`` ADDs per vector, each of
    ``add_uops_per_bit`` µops per bit -- or the call raises
    :class:`~repro.errors.ExecutionError` before it commits a timeline.
    Every single-vector call is a batch of one on :data:`GATE_LEVEL`; it is
    not in :data:`BACKENDS`.
    """

    name = "gate_level"

    def _reduce_in_dce(self, tile, plan: MvmPlan, execution: BatchMvmExecution):
        batch = execution.batch
        result = np.zeros((batch, plan.handle.shape[1]), dtype=np.int64)
        slots_saved, adds = 0, []
        for red, pipeline, shifted_values, shifts in _column_streams(tile, plan, execution):
            columns = slice(red.col_offset, red.col_offset + red.width)
            for vector in range(batch):
                costs, saved = tile.iiu.inject_reduction(
                    pipeline, [values[vector] for values in shifted_values],
                    plan.accumulator_vr, plan.staging_vrs, shifts,
                )
                adds += [cost.uops_per_bit for cost in costs if cost.name == "add"]
                slots_saved += saved
                accumulator = pipeline.read_vr(plan.accumulator_vr, signed=True)
                result[vector, columns] = accumulator[: red.width]
        cost = plan.cost
        if adds != [cost.add_uops_per_bit] * (batch * cost.partials_per_vector):
            raise ExecutionError(
                f"the reduction executed {len(adds)} ADDs of µops per bit "
                f"{sorted(set(adds))}; the plan prices {batch * cost.partials_per_vector} "
                f"of {cost.add_uops_per_bit}"
            )
        return result, slots_saved


#: The interpreter of every single-vector call.
GATE_LEVEL = GateLevelExecutor()


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
        if dot_bound(plan.handle.shape[0], plan.input_bits, plan.handle.value_bits) >= 1 << 53:
            # Past float64's exact integers: the reference's int64 sums.
            return ReferenceExecutor().execute_batch(tile, plan, vectors, optimized,
                                                     compensation, active_adc_bits)
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


#: The engines a ``backend=`` name selects, by name.
BACKENDS: Dict[str, ExecutionBackend] = {
    backend.name: backend
    for backend in (ReferenceExecutor(), VectorizedExecutor(), CostModelExecutor())
}


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
    resolved = BACKENDS.get(backend)
    if resolved is None:
        raise ConfigurationError(
            f"unknown execution backend {backend!r}; expected one of "
            f"{tuple(sorted(BACKENDS))} or an ExecutionBackend instance"
        )
    return resolved
