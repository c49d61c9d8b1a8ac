"""Vectorized bit-plane kernels for analog MVMs.

The reference interpreter of an :class:`~repro.plan.ir.MvmPlan` walks a
four-deep schedule over ``input_bit x row_tile x col_tile x weight_slice``,
issuing one tiny crossbar call per step.  That is faithful to the hardware
schedule but the interpreter overhead dwarfs the arithmetic.  This module
holds the tensor layer the
:class:`~repro.plan.backends.VectorizedExecutor` interprets the same plan
with, collapsing the schedule into a handful of NumPy contractions:

* all input bit-planes of a batch are stacked into one
  ``(input_bits, batch, rows)`` tensor (:func:`~repro.analog.bitslicing.slice_inputs_tensor`);
* the per-shard conductance slices are ``(num_slices, rows, cols)`` windows
  of the block the ACE programmed -- the **shard kernel cache** held by
  the owning :class:`~repro.analog.ace.AnalogComputeElement` and invalidated
  whenever the allocation is released or reprogrammed;
* the partial products of a weight slice -- every input bit of it -- come
  from one broadcast matmul per conductance plane, and ADC quantisation
  runs as a single element-wise pass over the shard's stacked output.

Bit-for-bit equivalence with the reference engine is a hard invariant, not
an aspiration: the stacked matmuls hand BLAS the *same* ``(batch, rows) @
(rows, cols)`` operands per step (broadcasting only moves the loop out of
Python), read noise is the reference's own bitline term
(:func:`~repro.analog.crossbar.add_read_noise`) fed one ``(input_bits,
batch, cols)`` draw per crossbar from that crossbar's generator -- the
samples the reference's per-step calls consume, in their order -- and
latency/energy ledger charges are replayed value-for-value in the
reference charge order (:func:`analog_runs`, compiled once per batch
receipt) so even the floating-point accumulation of the
:class:`~repro.metrics.CostLedger` matches.

The general path allocates nothing per call that scales with the shard:
column sums, the noise term, ADC codes and their rounding all live in one
block of the ACE's per-shape scratch, and every step is the reference's
operation with ``out=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import QuantizationError
from ..metrics import ChargeRuns
from .bitslicing import slice_inputs_tensor
from .crossbar import (
    add_read_noise,
    normalised_column_sums,
    parasitic_signed_sums,
    read_noise_variance,
)

__all__ = [
    "ShardKernel",
    "TileKernel",
    "ace_forward_vectorized",
    "analog_runs",
    "analog_step_costs",
    "build_shard_kernel",
    "validate_input_range",
]


@dataclass(frozen=True)
class TileKernel:
    """Cached tensors and geometry for one (row tile, column tile) shard."""

    row_tile: int
    col_tile: int
    row_start: int
    row_end: int
    col_offset: int
    used_rows: int
    used_cols: int
    array_ids: Tuple[int, ...]
    #: Crossbars holding this shard's weight slices, least significant first.
    crossbars: Tuple[object, ...]
    #: Positive-plane conductances, shape ``(num_slices, rows, cols)``: a
    #: view of the block the ACE programmed, like ``neg`` and ``recombined``.
    pos: np.ndarray
    #: Negative-plane conductances, same shape as ``pos``.
    neg: np.ndarray
    #: Weight slices recombined to signed values (``sum_s (pos_s - neg_s) <<
    #: s*bits_per_cell``), as exact float64 integers -- the operand of the
    #: proven-exact integer fast path.
    recombined: np.ndarray
    #: ``read_noise_variance(pos, neg, scale)``, present only while read
    #: noise is active (nothing else reads it).
    read_variance: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ShardKernel:
    """The per-allocation kernel cache: conductance windows for every shard.

    Built lazily on the first vectorized MVM against a handle and cached by
    the owning ACE (``AnalogComputeElement.kernel_for``); released together
    with the handle, so ``update_row`` / ``update_col`` -- which reprogram
    through release + set_matrix -- can never serve stale tensors.
    """

    handle_id: int
    num_slices: int
    bits_per_cell: int
    lsb_conductance: float
    g_min: float
    tiles: Tuple[TileKernel, ...]
    #: Whether the proven-exact integer fast path may serve this allocation
    #: (ideal conductances and a verified-lossless ADC; see
    #: :func:`exact_path_eligible`).
    exact: bool = False

    @property
    def num_tiles(self) -> int:
        """Number of (row tile, column tile) shards in the cache."""
        return len(self.tiles)


#: ADC round-trip proofs, one per converter configuration ``(type, spec,
#: min, max)``: a process builds a handful (ADC kind x bits per cell x array
#: height), while every crossbar of every registration gets its own instance.
_ADC_PROOFS: Dict[tuple, bool] = {}


def adc_round_trips(adc) -> bool:
    """Whether ``adc`` returns every integer of its range unchanged.

    One code step plus the worst boundary flip must stay below half an
    integer (``lsb < 0.999``); that is then verified, not assumed, by
    quantising every reachable integer and checking it round-trips.  The
    proof depends only on the converter's configuration, so it runs once
    for each.
    """
    key = (type(adc), adc.spec, adc.min_value, adc.max_value)
    proven = _ADC_PROOFS.get(key)
    if proven is None:
        candidates = np.arange(
            int(np.ceil(adc.min_value)), int(np.floor(adc.max_value)) + 1, dtype=float
        )
        proven = _ADC_PROOFS[key] = bool(
            adc.lsb < 0.999 and np.array_equal(np.rint(adc.convert(candidates)), candidates)
        )
    return proven


def exact_path_eligible(crossbars) -> bool:
    """Whether the analog chain of these crossbars is provably lossless.

    The general engine mirrors the reference float pipeline operation for
    operation.  A much faster path is valid when the quantise/recover chain
    is the identity on every partial product the schedule can produce, i.e.
    ``rint(adc.convert(v + eps)) == v`` for every reachable integer ``v``
    and any accumulated float rounding ``eps``.  That holds exactly when

    * the programmed conductances are the *ideal* value mapping (no
      programming noise, no stuck-at faults) -- compared bit-for-bit when
      the slice was written, while the ideal planes were in hand
      (:attr:`AnalogCrossbar.programmed_ideal`), not inferred from config
      flags; and
    * the ADC grid is fine enough to return every reachable integer
      unchanged (:func:`adc_round_trips`).

    Read noise, drift, and parasitics are per-call concerns checked by the
    forward pass itself.
    """
    return all(
        crossbar.programmed_ideal and adc_round_trips(crossbar.adc) for crossbar in crossbars
    )


def build_shard_kernel(ace, handle) -> ShardKernel:
    """The kernel cache of ``handle``: views of what the ACE programmed.

    The crossbars are walked in the allocation order of ``set_matrix``
    (row tile, then column tile, then weight slice), so ``array_ids`` of
    each tile kernel mirrors the reference engine's array grid.  Nothing is
    copied: a tile's conductance stacks are windows of the allocation's
    conductance block, and its recombined weights a window of one
    whole-matrix recombination of the level block.
    """
    rows, cols = handle.shape
    array_rows = ace.config.array_rows
    array_cols = ace.config.array_cols
    levels, conductances = ace.programmed_planes(handle)
    shifts = np.arange(handle.num_slices) * handle.bits_per_cell
    recombined = (
        ((levels[:, 0] - levels[:, 1]) << shifts[:, None, None]).sum(axis=0).astype(float)
    )
    tiles: List[TileKernel] = []
    index = 0
    for row_tile in range(handle.row_tiles):
        r0 = row_tile * array_rows
        r1 = min(rows, r0 + array_rows)
        for col_tile in range(handle.col_tiles):
            c0 = col_tile * array_cols
            c1 = min(cols, c0 + array_cols)
            ids = handle.array_ids[index: index + handle.num_slices]
            index += handle.num_slices
            crossbars = tuple(ace.crossbar(array_id) for array_id in ids)
            pos = conductances[:, 0, r0:r1, c0:c1]
            neg = conductances[:, 1, r0:r1, c0:c1]
            tiles.append(
                TileKernel(
                    row_tile=row_tile,
                    col_tile=col_tile,
                    row_start=r0,
                    row_end=r1,
                    col_offset=c0,
                    used_rows=r1 - r0,
                    used_cols=c1 - c0,
                    array_ids=ids,
                    crossbars=crossbars,
                    pos=pos,
                    neg=neg,
                    recombined=recombined[r0:r1, c0:c1],
                    read_variance=(
                        read_noise_variance(pos, neg, crossbars[0].read_noise_scale)
                        if crossbars[0].noise.read_noise_active else None
                    ),
                )
            )
    sample = tiles[0].crossbars[0]
    return ShardKernel(
        handle_id=handle.handle_id,
        num_slices=handle.num_slices,
        bits_per_cell=handle.bits_per_cell,
        lsb_conductance=sample.mapper.lsb_conductance(),
        g_min=ace.device.g_min,
        tiles=tuple(tiles),
        exact=all(exact_path_eligible(tile.crossbars) for tile in tiles),
    )


def validate_input_range(vectors: np.ndarray, input_bits: int) -> None:
    """Range checks of ``slice_inputs_tensor`` without building bit planes.

    The exact integer path (and the cost-only backend) never materialise
    the bit-plane tensor, but they must reject invalid inputs with the same
    errors, in the same order, as the general path (and the reference
    interpreter's ``slice_inputs``) -- from one ``min`` and one ``max``
    instead of two boolean temporaries.
    """
    if vectors.dtype.kind not in "iu":
        raise QuantizationError("input bit-slicing expects an integer vector")
    if not vectors.size:
        return
    if np.minimum.reduce(vectors, axis=None) < 0:
        raise QuantizationError("input bit-slicing expects non-negative inputs")
    if np.maximum.reduce(vectors, axis=None) >= (1 << input_bits):
        raise QuantizationError(f"input values exceed {input_bits} bits")


def _tile_codes(ace, kernel: ShardKernel, tile: TileKernel, bit_planes: np.ndarray) -> np.ndarray:
    """ADC output values of one shard, shape ``(slices, input_bits, batch, cols)``.

    Computed in the ACE's scratch, so valid until the next shard: one
    ``(input_bits, batch, cols)`` block per weight slice for the column
    sums and codes, one more that the second plane and then the noise term
    pass through, and one for the draw.
    """
    input_bits, batch, _ = bit_planes.shape
    x = ace.float_scratch(input_bits, batch, tile.used_rows)
    x[...] = bit_planes[:, :, tile.row_start: tile.row_end]
    work = ace.float_scratch(kernel.num_slices + 2, input_bits, batch, tile.used_cols)
    signed, other, draw = work[:-2], work[-2], work[-1]
    lsb = kernel.lsb_conductance
    baseline = (kernel.g_min * x.sum(axis=2))[..., None]  # (input_bits, batch, 1)
    read_noise = tile.read_variance is not None
    parasitics = ace.parasitics
    if parasitics is not None:
        bits_int = np.ascontiguousarray(bit_planes[:, :, tile.row_start: tile.row_end])

    for index, crossbar in enumerate(tile.crossbars):
        sums = signed[index]
        if parasitics is None:
            # Each (slice, input bit) pair is the same (batch, rows) @
            # (rows, cols) product the reference engine issues, so BLAS sees
            # identical operands and the outputs match bit for bit; one draw
            # per crossbar is the reference's per-step consumption of that
            # crossbar's private generator, in input-bit order.
            normalised_column_sums(x, tile.pos[index], baseline, lsb, out=sums)
            sums -= normalised_column_sums(x, tile.neg[index], baseline, lsb, out=other)
            if read_noise:
                add_read_noise(
                    sums, x, tile.read_variance[index], crossbar.noise.rng, out=other, draw=draw
                )
        else:
            rng = crossbar.noise.rng if read_noise else None
            for bit in range(input_bits):
                sums[bit] = parasitic_signed_sums(
                    parasitics, x[bit], bits_int[bit], tile.pos[index], tile.neg[index],
                    baseline[bit], lsb, crossbar.read_noise_scale, rng,
                )
    return tile.crossbars[0].adc.convert(signed, out=signed)


def analog_step_costs(
    kernel: ShardKernel, batch: int, active_adc_bits: Optional[int] = None
) -> Tuple[Tuple[float, float], ...]:
    """Per-shard ``(cycles, energy_pj)`` of one analog macro-step of a batch.

    The analytic counterpart of the reference interpreter's per-step
    crossbar charges: a pure function of the shard geometry and periphery,
    computed once per :class:`~repro.plan.ir.BatchReceipt`.
    """
    step_costs = []
    for tile in kernel.tiles:
        sample = tile.crossbars[0]
        adc_latency, adc_energy = sample.adc.conversion_costs(
            tile.used_cols, sample.num_adcs, active_adc_bits
        )
        latency = sample.dac.drive_latency(tile.used_rows) + 1.0 + adc_latency
        energy = (
            sample.dac.drive_energy_pj(tile.used_rows)
            + sample.row_periphery_power_mw * 1.0
            + tile.used_cols * sample.sample_hold_energy_pj
            + adc_energy
        )
        step_costs.append((batch * latency, batch * energy))
    return tuple(step_costs)


def analog_runs(
    kernel: ShardKernel, input_bits: int, batch: int, active_adc_bits: Optional[int] = None
) -> ChargeRuns:
    """The reference interpreter's ``ace.mvm`` charge stream, run-length.

    The reference issues one charge per (input bit, shard, slice) step,
    input bits outermost, each of that shard's :func:`analog_step_costs`.
    As runs (:data:`~repro.metrics.ChargeRuns`) that is one run of the whole
    stream when every shard costs the same, otherwise one run of
    ``num_slices`` per (input bit, shard) in the reference issue order.
    Either way a ledger replaying them performs the same additions in the
    same order, so its floating-point totals and breakdowns match value for
    value.
    """
    step_costs = analog_step_costs(kernel, batch, active_adc_bits)
    if len(set(step_costs)) == 1:
        return (("ace.mvm", input_bits * len(step_costs) * kernel.num_slices, *step_costs[0]),)
    return tuple(
        ("ace.mvm", kernel.num_slices, cycles, energy_pj)
        for _ in range(input_bits)
        for cycles, energy_pj in step_costs
    )


def ace_forward_vectorized(ace, plan, vectors: np.ndarray) -> List[np.ndarray]:
    """The arithmetic of one :class:`~repro.plan.ir.MvmPlan` batch, vectorized.

    ``vectors`` is the ``(batch, rows)`` int64 block the backend admitted.
    Returns one ``(batch, used_cols)`` int64 array per shard, in
    ``plan.kernel.tiles`` order: the shift-and-add sum of that shard's
    post-ADC partial products (the ``rint -> << shift -> accumulate``
    sequence the shift units and DCE perform, as one contraction of the
    rounded codes with ``2.0 ** shift`` -- integers times powers of two,
    every partial sum far below 2**53, so float64 is exact), before DCE
    truncation.  Input range errors are raised before anything is computed;
    no ledger, counter or register is touched -- the batch's
    :class:`~repro.plan.ir.BatchReceipt` charges the cost side.
    """
    input_bits = plan.input_bits
    batch, rows = vectors.shape
    kernel = plan.kernel
    if (
        kernel.exact
        and ace.parasitics is None
        and not kernel.tiles[0].crossbars[0].noise.read_noise_active
    ):
        validate_input_range(vectors, input_bits)
        # Proven-exact fast path: with ideal conductances and a
        # verified-lossless ADC, every (input bit, slice) partial product
        # survives the quantise/recover chain exactly, so the whole
        # bit-plane schedule collapses into one exact-integer matmul per
        # shard against the recombined weight slices (all values stay far
        # below 2**53, so float64 arithmetic is exact).  int64 -> float64
        # is exact for every representable input; storing into the ACE's
        # per-shape scratch block instead of astype() keeps the steady-state
        # serving path allocation-free.
        vectors_float = ace.float_scratch(batch, rows)
        vectors_float[...] = vectors
        shard_totals = []
        for tile in kernel.tiles:
            block = vectors_float[:, tile.row_start: tile.row_end]
            shard_totals.append((block @ tile.recombined).astype(np.int64))
        return shard_totals

    bit_planes = slice_inputs_tensor(
        vectors, input_bits, out=ace.bitplane_scratch(input_bits, batch, rows)
    )
    weights = 2.0 ** (
        np.arange(input_bits)[None, :]
        + np.arange(kernel.num_slices)[:, None] * kernel.bits_per_cell
    )
    shard_totals = []
    for tile in kernel.tiles:
        codes = _tile_codes(ace, kernel, tile, bit_planes)
        np.rint(codes, out=codes)
        shard_totals.append(
            np.tensordot(weights, codes, axes=([0, 1], [0, 1])).astype(np.int64)
        )
    return shard_totals
