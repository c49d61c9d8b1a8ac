"""A single analog ReRAM crossbar performing in-array MVM (Figure 1).

The crossbar stores one weight *bit slice* per device column pair (when a
differential encoding is used) and executes one-bit-input MVMs: the input
bit vector is applied to the wordlines, Ohm's law multiplies each bit by its
device conductance, and Kirchhoff's current law sums the currents down every
bitline.  The resulting column currents are normalised by the LSB
conductance (value domain) and digitised by an ADC model.

The functional path is exact in the absence of noise: programming the slice
``W`` and applying input bits ``x`` returns ``x @ W`` once quantised by an
ADC whose range covers the possible sums.  Enabling the noise stack and the
parasitic model perturbs the conductances exactly the way the paper's
CrossSim+MILO methodology does, which is what the accuracy experiments
(Section 7.5) and the parasitic-compensation scheme (Section 4.3) exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import CapacityError, DeviceError
from ..metrics import CostLedger, Settled
from ..reram import ConductanceMapper, DeviceParameters, NoiseConfig, NoiseStack, ParasiticModel
from .adc import AnalogToDigitalConverter, SarAdc
from .dac import DigitalToAnalogConverter

__all__ = [
    "AnalogCrossbar",
    "CrossbarOutput",
    "add_read_noise",
    "normalised_column_sums",
    "parasitic_signed_sums",
    "read_noise_variance",
]

#: Energy of one bitline's sample-and-hold per step, in pJ.
SAMPLE_HOLD_ENERGY_PJ = 2.1e-5


def normalised_column_sums(x, conductances, baseline, lsb, out=None):
    """Column currents normalised to the value domain: ``(x @ g - b) / lsb``.

    The Ohm/Kirchhoff current sum shared by every execution engine -- the
    crossbar's looped reference path and the vectorized kernel layer both
    compute signed column sums through this one expression, so the float
    pipeline cannot drift between them.  Broadcasts over any leading stack
    dimensions of ``x`` / ``conductances`` (NumPy dispatches the same 2-D
    products either way).  The three operations run in place, in ``out``
    when given: the same values in a caller-owned block.
    """
    sums = np.matmul(x, conductances, out=out)
    sums -= baseline
    sums /= lsb
    return sums


def read_noise_variance(pos_g, neg_g, scale):
    """Value-domain variance one driven wordline adds to each bitline per
    access: ``scale**2 * (g_pos**2 + g_neg**2)`` with ``scale = sigma / lsb``
    (:attr:`AnalogCrossbar.read_noise_scale`)."""
    return (pos_g * pos_g + neg_g * neg_g) * (scale * scale)


def add_read_noise(signed, x, variance, rng, out=None, draw=None):
    """Add one access's read noise to value-domain column sums, in place.

    ``signed += sqrt(x @ variance) * z`` with ``variance`` from
    :func:`read_noise_variance` and ``z`` standard normals drawn from
    ``rng`` in C order, one per element of ``signed``.  This is the
    per-device model (every conductance read as ``g * (1 + sigma * n)``,
    fresh ``n`` per device, per vector) summed down the bitline: for
    binary ``x`` the per-device terms of column ``j`` add up to exactly
    ``N(0, (x @ variance)_j)``.  Only the clamp at zero conductance is
    dropped (``n < -1 / sigma``; see :mod:`repro.reram.noise`).

    The single source of the read-noise term for both execution engines:
    :meth:`AnalogCrossbar.mvm_1bit` consumes ``used_cols`` normals of the
    crossbar's stream, :meth:`AnalogCrossbar.mvm_batch` ``batch *
    used_cols``, and the vectorized engine ``(input_bits, batch,
    used_cols)`` per crossbar per call -- the same stream, because the
    reference schedule visits a crossbar once per input bit in bit order.
    ``out`` (shaped like ``signed``) and ``draw`` are optional work blocks.
    """
    noise = np.matmul(x, variance, out=out)
    np.sqrt(noise, out=noise)
    noise *= rng.standard_normal(noise.shape, out=draw)
    signed += noise
    return signed


def parasitic_signed_sums(
    parasitics, x, input_bits_matrix, pos_g, neg_g, baseline, lsb, scale=0.0, rng=None
):
    """Signed value-domain sums of one binary input batch under IR drop.

    ``input_bits_matrix`` is the raw ``(batch, rows)`` 0/1 matrix (the
    parasitic solve is input-dependent), ``x`` its float view.  Single
    source of truth for the parasitic branch of both execution engines.
    With ``rng`` (read noise active, ``scale`` the crossbar's
    ``read_noise_scale``) the term of :func:`add_read_noise` is added, on
    the attenuated conductances.
    Attenuation itself is solved on the programmed, not the read-perturbed,
    conductances; what that leaves out is second order (``sigma`` x IR drop).
    """
    p_eff = parasitics.apply_batch(pos_g, input_bits_matrix)
    n_eff = parasitics.apply_batch(neg_g, input_bits_matrix)
    rows = x[:, None, :]
    pos_sum = (np.matmul(rows, p_eff)[:, 0, :] - baseline) / lsb
    neg_sum = (np.matmul(rows, n_eff)[:, 0, :] - baseline) / lsb
    signed = pos_sum - neg_sum
    if rng is not None:
        add_read_noise(signed[:, None, :], rows, read_noise_variance(p_eff, n_eff, scale), rng)
    return signed


@dataclass(frozen=True)
class CrossbarOutput:
    """Result of one one-bit-input MVM over a crossbar.

    Attributes
    ----------
    values:
        Signed partial products per bitline (value domain, post-ADC).
    latency_cycles:
        Cycles spent driving, settling, and converting.
    energy_pj:
        Energy spent in the array, periphery, and ADC.
    """

    values: np.ndarray
    latency_cycles: float
    energy_pj: float


class AnalogCrossbar:
    """A ``rows x cols`` multi-level-cell analog crossbar with periphery."""

    _claim = None
    #: Number of MVM operations executed (utilisation statistics); a replay
    #: program counts its steps lazily (:class:`~repro.metrics.Settled`).
    mvm_count = Settled("mvm_count")

    def __init__(
        self,
        rows: int = 64,
        cols: int = 64,
        bits_per_cell: int = 1,
        device: Optional[DeviceParameters] = None,
        noise: Optional[NoiseConfig] = None,
        parasitics: Optional[ParasiticModel] = None,
        adc: Optional[AnalogToDigitalConverter] = None,
        num_adcs: int = 2,
        dac: Optional[DigitalToAnalogConverter] = None,
        ledger: Optional[CostLedger] = None,
        row_periphery_power_mw: float = 0.7,
        noise_stream: Tuple[int, ...] = (),
    ) -> None:
        self.rows = int(rows)
        self.cols = int(cols)
        self.bits_per_cell = int(bits_per_cell)
        self.device = device if device is not None else DeviceParameters()
        self.noise = NoiseStack(
            self.device, noise if noise is not None else NoiseConfig.ideal(), noise_stream
        )
        self.parasitics = parasitics
        self.mapper = ConductanceMapper(self.device, self.bits_per_cell)
        max_sum = self.rows * (2 ** self.bits_per_cell - 1)
        self.adc = adc if adc is not None else SarAdc(min_value=-max_sum, max_value=max_sum)
        self.num_adcs = int(num_adcs)
        self.dac = dac if dac is not None else DigitalToAnalogConverter()
        self.ledger = ledger if ledger is not None else CostLedger()
        self.row_periphery_power_mw = row_periphery_power_mw

        #: ``(2, rows, cols)`` integer levels and conductances of the
        #: programmed slice: positive plane, then negative plane.
        self._levels: Optional[np.ndarray] = None
        self._conductances: Optional[np.ndarray] = None
        #: Whether programming left every device at its ideal conductance,
        #: compared value for value when the slice was written (one of the
        #: two conditions of :func:`~repro.analog.kernels.exact_path_eligible`).
        self.programmed_ideal = False
        self._mvm_count = 0  # ``mvm_count``'s storage: a new array has no claim to settle

    def _fold(self, steps: int, calls: int) -> None:
        self._mvm_count += calls * steps

    # ------------------------------------------------------------------ #
    # Programming                                                          #
    # ------------------------------------------------------------------ #
    @property
    def is_programmed(self) -> bool:
        """Whether a matrix slice has been written into the array."""
        return self._conductances is not None

    def program(self, levels: np.ndarray) -> None:
        """Program a non-negative integer slice into the positive devices only."""
        zeros = np.zeros_like(np.asarray(levels, dtype=np.int64))
        self.program_differential(levels, zeros)

    def program_differential(self, positive: np.ndarray, negative: np.ndarray) -> None:
        """Program positive and negative device planes (differential pairs)."""
        positive = np.asarray(positive, dtype=np.int64)
        negative = np.asarray(negative, dtype=np.int64)
        if positive.shape != negative.shape:
            raise DeviceError("positive and negative slices must have the same shape")
        levels = np.stack((positive, negative))
        if levels.shape[1] > self.rows or levels.shape[2] > self.cols:
            raise CapacityError(
                f"slice of shape {levels.shape[1:]} does not fit a "
                f"{self.rows}x{self.cols} crossbar"
            )
        self._program(levels, self.mapper.value_to_conductance(self.mapper.check(levels)))
        self.ledger.charge(
            "ace.program",
            cycles=self.device.program_latency_cycles,
            energy_pj=levels.size * self.device.program_energy_pj,
        )

    def _program(self, levels: np.ndarray, ideal: np.ndarray) -> None:
        """Write the ``(2, rows, cols)`` level planes, whose ideal
        conductance mapping is ``ideal``, into the devices: the body of
        :meth:`program_differential` and of the ACE's one write pass, which
        hands every crossbar views of its level and conductance blocks and
        charges the programming itself.  Nothing is checked or charged
        here.  The block is programmed in place -- a plane the error
        sources moved is overwritten with what the devices hold, positive
        plane first -- and kept as this crossbar's conductances.
        """
        self.programmed_ideal = True
        for plane in ideal:
            programmed = self.noise.program(plane)
            # The plane itself back: no error source is configured.
            if programmed is not plane and not np.array_equal(programmed, plane):
                self.programmed_ideal = False
                plane[...] = programmed
        self._levels = levels
        self._conductances = ideal

    def rewind(self) -> None:
        """Return the array to the state it was built in: its noise stream
        restarts from ``(seed, *noise_stream)`` (a stuck-at map is drawn
        anew) and no MVM is counted.  The ACE rewinds an array before it
        reprograms it in place, so what a noisy array answers does not
        depend on what it held before.  The calls a pending replay program
        counted here are thrown away, not folded first: the program stays
        this array's and counts on from zero."""
        if self.noise._rng is not None:  # a stack that never drew is as built
            self.noise = NoiseStack(self.device, self.noise.config, self.noise.stream)
        if self._claim is not None:
            self._claim[2] = self._claim[0].calls
        self._mvm_count = 0

    def _programmed(self, planes: Optional[np.ndarray], index: int) -> np.ndarray:
        if planes is None:
            raise DeviceError("crossbar has not been programmed")
        return planes[index]

    @property
    def programmed_shape(self) -> tuple:
        """Shape of the currently programmed slice."""
        return self._programmed(self._levels, 0).shape

    @property
    def positive_levels(self) -> np.ndarray:
        """Programmed positive-plane integer levels (pre conductance mapping)."""
        return self._programmed(self._levels, 0)

    @property
    def negative_levels(self) -> np.ndarray:
        """Programmed negative-plane integer levels (pre conductance mapping)."""
        return self._programmed(self._levels, 1)

    @property
    def positive_conductances(self) -> np.ndarray:
        """Programmed positive-plane conductances (post write-verify noise).

        These are the frozen post-programming values; read noise is added
        to the column sums they produce, per MVM.  The vectorized execution
        engine reads the same block through its per-shard kernel cache.
        """
        return self._programmed(self._conductances, 0)

    @property
    def negative_conductances(self) -> np.ndarray:
        """Programmed negative-plane conductances (post write-verify noise)."""
        return self._programmed(self._conductances, 1)

    @property
    def read_noise_scale(self) -> float:
        """``sigma / lsb``: the read-noise deviation of a conductance ``g``
        is ``read_noise_scale * g`` in the value domain."""
        return self.noise.read_noise.sigma / self.mapper.lsb_conductance()

    # ------------------------------------------------------------------ #
    # One-bit-input MVM                                                    #
    # ------------------------------------------------------------------ #
    def step_costs(
        self, used_rows: int, used_cols: int, active_adc_bits: Optional[int] = None
    ) -> Tuple[float, float]:
        """``(cycles, energy_pj)`` of one one-bit-input step over a
        ``used_rows x used_cols`` slice: wordline drive, array settling and
        sample-and-hold, ADC conversion.  The one formula both engines
        charge per step and the planner's timeline reads.
        """
        latency = (
            self.dac.drive_latency(used_rows)
            + 1.0  # array settling / sample-and-hold
            + self.adc.conversion_latency(used_cols, self.num_adcs, active_adc_bits)
        )
        energy = (
            self.dac.drive_energy_pj(used_rows)
            + self.row_periphery_power_mw * 1.0
            + used_cols * SAMPLE_HOLD_ENERGY_PJ
            + self.adc.conversion_energy_pj(used_cols, active_adc_bits)
        )
        return latency, energy

    def mvm_1bit(self, input_bits: np.ndarray, active_adc_bits: Optional[int] = None) -> CrossbarOutput:
        """Apply a binary input vector to the wordlines and digitise the columns.

        Parameters
        ----------
        input_bits:
            0/1 vector of length ``programmed rows``.
        active_adc_bits:
            Optional early-termination hint forwarded to ramp ADCs.
        """
        if self._conductances is None:
            raise DeviceError("crossbar has not been programmed")
        input_bits = np.asarray(input_bits, dtype=np.int64)
        pos_g, neg_g = self._conductances
        used_rows, used_cols = pos_g.shape
        if input_bits.shape != (used_rows,):
            raise DeviceError(
                f"input vector of shape {input_bits.shape} does not match the "
                f"programmed slice rows ({used_rows})"
            )
        if np.any((input_bits != 0) & (input_bits != 1)):
            raise DeviceError("mvm_1bit expects a binary input vector")

        if self.parasitics is not None:
            pos_g = self.parasitics.apply(pos_g, input_bits)
            neg_g = self.parasitics.apply(neg_g, input_bits)

        x = input_bits.astype(float)
        lsb = self.mapper.lsb_conductance()
        # Column currents, normalised to the value domain: subtract the
        # baseline current contributed by g_min on every activated device.
        baseline = self.device.g_min * x.sum()
        pos_sum = (x @ pos_g - baseline) / lsb
        neg_sum = (x @ neg_g - baseline) / lsb
        signed = pos_sum - neg_sum
        if self.noise.read_noise_active:
            variance = read_noise_variance(pos_g, neg_g, self.read_noise_scale)
            add_read_noise(signed, x, variance, self.noise.rng)
        quantised = self.adc.convert(signed)

        latency, energy = self.step_costs(used_rows, used_cols, active_adc_bits)
        self.ledger.charge("ace.mvm", cycles=latency, energy_pj=energy)
        self.mvm_count += 1
        return CrossbarOutput(values=quantised, latency_cycles=latency, energy_pj=energy)

    def mvm_batch(
        self, input_bit_matrix: np.ndarray, active_adc_bits: Optional[int] = None
    ) -> CrossbarOutput:
        """Apply a batch of binary input vectors in one vectorised pass.

        Functionally equivalent to calling :meth:`mvm_1bit` once per row of
        ``input_bit_matrix`` (shape ``(batch, programmed rows)``), but the
        column currents of the whole batch are computed with a single matrix
        multiply and digitised together, which is what makes the batched
        execution engine fast on the host.  The returned ``values`` has shape
        ``(batch, cols)``; latency and energy are charged for all ``batch``
        sequential hardware MVMs at once.

        Read noise is drawn per vector, as the hardware's ``batch``
        sequential accesses would see it: one call consumes ``batch *
        used_cols`` standard normals of this crossbar's stream in C order,
        the very samples ``batch`` successive ``mvm_1bit`` calls consume
        (:func:`add_read_noise`), so looped and batched execution of one
        crossbar agree value for value and leave the generator in the same
        state.
        """
        if self._conductances is None:
            raise DeviceError("crossbar has not been programmed")
        input_bit_matrix = np.atleast_2d(np.asarray(input_bit_matrix, dtype=np.int64))
        batch = input_bit_matrix.shape[0]
        pos_g, neg_g = self._conductances
        used_rows, used_cols = pos_g.shape
        if input_bit_matrix.shape[1] != used_rows:
            raise DeviceError(
                f"input batch of shape {input_bit_matrix.shape} does not match the "
                f"programmed slice rows ({used_rows})"
            )
        if np.any((input_bit_matrix != 0) & (input_bit_matrix != 1)):
            raise DeviceError("mvm_batch expects binary input vectors")

        x = input_bit_matrix.astype(float)
        lsb = self.mapper.lsb_conductance()
        baseline = self.device.g_min * x.sum(axis=1, keepdims=True)
        scale = self.read_noise_scale
        rng = self.noise.rng if self.noise.read_noise_active else None
        if self.parasitics is not None:
            # IR drop depends on the individual input pattern, but the
            # parasitic network solve is element-wise per vector, so the
            # whole batch runs through one stacked attenuation + matmul pass
            # (bit-identical to solving vector by vector).
            signed = parasitic_signed_sums(
                self.parasitics, x, input_bit_matrix, pos_g, neg_g, baseline, lsb, scale, rng
            )
        else:
            signed = normalised_column_sums(x, pos_g, baseline, lsb)
            signed -= normalised_column_sums(x, neg_g, baseline, lsb)
            if rng is not None:
                add_read_noise(signed, x, read_noise_variance(pos_g, neg_g, scale), rng)
        quantised = self.adc.convert(signed)

        per_vector_latency, per_vector_energy = self.step_costs(
            used_rows, used_cols, active_adc_bits
        )
        latency = batch * per_vector_latency
        energy = batch * per_vector_energy
        self.ledger.charge("ace.mvm", cycles=latency, energy_pj=energy)
        self.mvm_count += batch
        return CrossbarOutput(values=quantised, latency_cycles=latency, energy_pj=energy)
