"""Accumulator registers, pinned: what a device call leaves in the DCE.

Every hybrid MVM leaves its reduced sum -- the last batch row, wrapped to
the pipeline's width -- in the accumulator vector register of each output
pipeline (Section 4, the bit-pipelined reduction).  Nothing on the serving
path reads those registers, so the exact path may defer their bit planes
until somebody does; whoever reads them must still see what the hardware
stream would have left.

``TestAccumulatorDigest`` runs one fixed-seed sequence per backend and
hashes every output pipeline's registers at each checkpoint, read three
ways -- ``read_vr``, the ``arrays[b].bits`` planes and a DCE word op
(``copy`` of the accumulator into a spare register) -- with the first read
after a call rotating among the three, so each is in turn the access that
finds the register pending.  The sequence covers exact calls at every
``DEVICE_CALL_SHAPES`` entry, two matrices on one HCT (a per-tile batch, a
gate-level single MVM and a second output pipeline between device calls),
``set_vr_bits`` on the accumulator and on another register between calls,
a call that falls back to the tiles because one left digital mode, a
``disable_analog_mode``, and a release and reprogram.  ``EXPECTED`` was
computed before the registers were deferred (at ``b4c477a``), is the same
for both backends and must not move; the matrices and vectors come from a
fixed seed, not ``REPRO_TEST_SEED``, for that reason.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ChipConfig, DarthPumDevice, DevicePool, HctConfig
from repro.errors import AllocationError
from repro.testing import DEVICE_CALL_SHAPES

EXPECTED = "70b74d8eddf950bde139d084a0f81c94981fba4faf6345f1bf26129848868f6f"


def _registers(device, allocation, input_bits):
    """``(pipeline, accumulator VR)`` of every output pipeline, placement order."""
    registers = []
    for _, hct, handle in device._tiles(allocation):
        plan = hct.planner.plan_for(handle, input_bits)
        for red in plan.reduction:
            register = (hct.dce.pipeline(plan.output_base + red.col_tile),
                        plan.accumulator_vr)
            if register not in registers:
                registers.append(register)
    return registers


#: The three ways a register is read, in the order a checkpoint rotates.
READS = ("read_vr", "bits", "word_op")


def _read(kind, pipeline, vr):
    if kind == "read_vr":
        return pipeline.read_vr(vr, signed=True)
    if kind == "bits":
        return np.stack([array.bits for array in pipeline.arrays])
    spare = pipeline.num_vrs - 1
    pipeline.copy(spare, vr)  # a gate-level word op reading the accumulator
    return pipeline.read_vr(spare)


class _Digest:
    """sha256 over call results and register reads, in sequence order."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.checkpoints = 0

    def absorb(self, label, array):
        self.sha.update(label.encode())
        self.sha.update(repr(array.shape).encode())
        self.sha.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())

    def checkpoint(self, registers):
        for n, (pipeline, vr) in enumerate(registers):
            first = (self.checkpoints + n) % len(READS)
            for kind in READS[first:] + READS[:first]:
                self.absorb(kind, _read(kind, pipeline, vr))
        self.checkpoints += 1

    def hexdigest(self):
        return self.sha.hexdigest()


def _matrix(rng, shape, element_size):
    low = -(1 << (element_size - 1)) if element_size > 1 else -1
    return rng.integers(low, max(1, -low), size=shape)


def _vectors(rng, batch, rows, input_bits):
    return rng.integers(0, 1 << input_bits, size=(batch, rows), dtype=np.int64)


def _accumulator_digest(backend):
    rng = np.random.default_rng(26)
    digest = _Digest()

    def call(device, allocation, matrix, input_bits, batch):
        vectors = _vectors(rng, batch, matrix.shape[0], input_bits)
        out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits,
                                    backend=backend)
        assert np.array_equal(out, vectors @ matrix)
        digest.absorb("result", out)

    # Exact calls at every device-call shape; the middle call of three is
    # never read, so the last one replaces registers nobody looked at.
    devices = {}
    for label in sorted(DEVICE_CALL_SHAPES):
        shape, element_size, input_bits, config = DEVICE_CALL_SHAPES[label]
        device = DarthPumDevice(config=config)
        matrix = _matrix(rng, shape, element_size)
        allocation = device.set_matrix(matrix, element_size=element_size, precision=0)
        registers = _registers(device, allocation, input_bits)
        for batch, read in ((5, True), (2, False), (3, True)):
            call(device, allocation, matrix, input_bits, batch)
            if read:
                digest.checkpoint(registers)
        devices[label] = device, allocation, matrix, input_bits, registers

    # Two matrices on one HCT: a device allocation and two more programmed
    # on its tile, one sharing its output pipeline, one on the next.
    device = DarthPumDevice(config=ChipConfig(hct=HctConfig.small(), num_hcts=2))
    matrix = _matrix(rng, (16, 12), 4)
    allocation = device.set_matrix(matrix, element_size=4, precision=0)
    hct = device.chip.hct(allocation.hct_indices[0])
    shared, beside = _matrix(rng, (16, 8), 4), _matrix(rng, (16, 10), 4)
    shared_handle = hct.set_matrix(shared, value_bits=4)
    beside_handle = hct.set_matrix(beside, value_bits=4, output_pipeline=1)
    registers = _registers(device, allocation, 4) + [(hct.dce.pipeline(1), 0)]
    for tile_matrix, handle in ((shared, shared_handle), (beside, beside_handle)):
        call(device, allocation, matrix, 4, 4)
        vectors = _vectors(rng, 3, 16, 4)
        out = hct.execute_mvm_batch(handle, vectors, input_bits=4, backend=backend)
        assert np.array_equal(out.values, vectors @ tile_matrix)
        digest.absorb("tile_batch", out.values)
        digest.checkpoint(registers)
        call(device, allocation, matrix, 4, 2)
        vector = _vectors(rng, 1, 16, 4)[0]
        single = hct.execute_mvm(handle, vector, input_bits=4)
        digest.absorb("tile_single", single.values)
        digest.checkpoint(registers)

    # Register writes between calls: the accumulator itself, then another VR.
    band, band_allocation, band_matrix, band_bits, band_registers = (
        devices["row_band_8_tiles"])
    pipeline, vr = band_registers[0]
    for target in (vr, vr + 5):
        call(band, band_allocation, band_matrix, band_bits, 4)
        pipeline.set_vr_bits(target, rng.integers(-99, 99, size=pipeline.rows))
        digest.checkpoint(band_registers)

    # One tile leaves digital mode: the compiled device plan falls back to
    # the tiles, and that tile's registers keep what the last call left.
    call(band, band_allocation, band_matrix, band_bits, 4)
    expert = band.chip.hct(band_allocation.hct_indices[2])
    expert.disable_digital_mode()
    call(band, band_allocation, band_matrix, band_bits, 3)
    digest.checkpoint(band_registers)
    expert.enable_digital_mode()
    call(band, band_allocation, band_matrix, band_bits, 2)
    digest.checkpoint(band_registers)

    # disableAnalogMode: the matrix moves into the output pipelines' VRs.
    call(band, band_allocation, band_matrix, band_bits, 4)
    band.disable_analog_mode(band_allocation)
    digest.checkpoint(band_registers)
    with pytest.raises(AllocationError):
        band.exec_mvm_batch(band_allocation, _vectors(rng, 2, 128, band_bits),
                            input_bits=band_bits, backend=backend)
    digest.checkpoint(band_registers)

    # Release and reprogram onto the same tiles.
    device, allocation, matrix, input_bits, registers = devices["encoder_projection"]
    call(device, allocation, matrix, input_bits, 4)
    device.release(allocation)
    matrix = _matrix(rng, matrix.shape, 6)
    allocation = device.set_matrix(matrix, element_size=6, precision=0)
    assert _registers(device, allocation, input_bits) == registers
    digest.checkpoint(registers)
    call(device, allocation, matrix, input_bits, 5)
    digest.checkpoint(registers)
    return digest.hexdigest()


class TestAccumulatorDigest:
    @pytest.mark.parametrize("backend", ["vectorized", "reference"])
    def test_registers_read_as_the_hardware_stream_left_them(self, backend):
        assert _accumulator_digest(backend) == EXPECTED


class TestReturnedArrayIsNotRegisterState:
    """The result a caller gets is theirs: writing into it cannot reach the
    registers a later read sees (the exact path returns a one-band result
    without copying it, and keeps the registers' words pending)."""

    @pytest.mark.parametrize("label", ["encoder_projection", "row_band_8_tiles"])
    def test_mutating_the_result_leaves_read_vr_alone(self, label):
        shape, element_size, input_bits, config = DEVICE_CALL_SHAPES[label]
        rng = np.random.default_rng(27)
        matrix = _matrix(rng, shape, element_size)
        vectors = _vectors(rng, 4, shape[0], input_bits)
        twins = []
        for _ in range(2):
            device = DarthPumDevice(config=config)
            allocation = device.set_matrix(matrix, element_size=element_size, precision=0)
            out = device.exec_mvm_batch(allocation, vectors, input_bits=input_bits)
            twins.append((device, allocation, out))
        twins[0][2][...] = 12345  # before anything reads a register
        mutated, untouched = (
            [pipeline.read_vr(vr) for pipeline, vr in _registers(device, allocation,
                                                                 input_bits)]
            for device, allocation, _ in twins
        )
        assert all(np.array_equal(a, b) for a, b in zip(mutated, untouched))
        assert np.array_equal(twins[1][2], vectors @ matrix)

    def test_pooled_single_band_result_is_not_register_state(self):
        shape, element_size, input_bits, _ = DEVICE_CALL_SHAPES["encoder_projection"]
        rng = np.random.default_rng(28)
        pool = DevicePool(num_devices=2)
        matrix = _matrix(rng, shape, element_size)
        allocation = pool.set_matrix(matrix, element_size=element_size)
        vectors = _vectors(rng, 3, shape[0], input_bits)
        out = pool.exec_mvm_batch(allocation, vectors, input_bits=input_bits)
        (task,) = allocation.tasks
        device = pool.devices[task.device_index]
        out[-1] = -1
        (pipeline, vr), = _registers(device, task.device_allocation, input_bits)
        assert np.array_equal(pipeline.read_vr(vr, signed=True)[: shape[1]],
                              (vectors @ matrix)[-1])
