"""Tests for the hybrid ISA, assembler, executor, and runtime library."""

import numpy as np
import pytest

from repro.core import ChipConfig, DarthPumChip, HctConfig
from repro.errors import IsaError, QuantizationError
from repro.isa import Instruction, InstructionClass, Opcode, Program, ProgramExecutor, assemble, disassemble
from repro.runtime import DarthPumDevice, plan_matrix, precision_to_bits_per_cell


class TestInstructions:
    def test_missing_operand_rejected(self):
        with pytest.raises(IsaError):
            Instruction(Opcode.DADD, {"pipeline": 0, "dst": 1, "a": 2})

    def test_instruction_classes(self):
        assert Instruction(Opcode.MVM, {"handle": "m", "vector_vr": 0, "result_vr": 1,
                                        "input_bits": 8}).klass is InstructionClass.ANALOG
        assert Instruction(Opcode.DXOR, {"pipeline": 0, "dst": 1, "a": 2, "b": 3}).klass \
            is InstructionClass.DIGITAL
        assert Instruction(Opcode.FENCE, {}).klass is InstructionClass.COORDINATION

    def test_program_class_histogram(self):
        program = Program()
        program.append(Opcode.FENCE)
        program.append(Opcode.DXOR, pipeline=0, dst=1, a=2, b=3)
        assert program.count_by_class() == {"coordination": 1, "digital": 1}


class TestAssembler:
    def test_assemble_and_roundtrip(self):
        source = """
        # toy program
        dwrite pipeline=0 vr=0 data=a
        dadd   pipeline=0 dst=2 a=0 b=1
        dread  pipeline=0 vr=2
        """
        program = assemble(source)
        assert len(program) == 3
        assert assemble(disassemble(program)).instructions == program.instructions

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(IsaError):
            assemble("frobnicate x=1")

    def test_malformed_operand_rejected(self):
        with pytest.raises(IsaError):
            assemble("dread pipeline 0")


class TestExecutor:
    def test_digital_program_executes(self, small_tile):
        executor = ProgramExecutor(small_tile)
        executor.bind_data("a", np.array([1, 2, 3, 4]))
        executor.bind_data("b", np.array([10, 20, 30, 40]))
        program = assemble(
            """
            dwrite pipeline=4 vr=0 data=a
            dwrite pipeline=4 vr=1 data=b
            dadd   pipeline=4 dst=2 a=0 b=1
            dxor   pipeline=4 dst=3 a=0 b=1
            dread  pipeline=4 vr=2
            dread  pipeline=4 vr=3
            """
        )
        trace = executor.run(program)
        assert np.array_equal(trace.reads[2][:4], [11, 22, 33, 44])
        assert np.array_equal(trace.reads[3][:4], np.array([1, 2, 3, 4]) ^ np.array([10, 20, 30, 40]))

    def test_mvm_instruction_through_executor(self, small_tile, rng):
        executor = ProgramExecutor(small_tile)
        matrix = rng.integers(0, 3, size=(8, 6))
        vector = rng.integers(0, 3, size=8)
        executor.bind_matrix("m", matrix)
        executor.host_data["m"] = matrix
        executor.bind_data("v", vector)
        program = Program()
        program.append(Opcode.DWRITE, pipeline=4, vr=0, data="v")
        program.append(Opcode.SET_MATRIX, handle="m", shape=(8, 6), value_bits=2, bits_per_cell=1)
        program.append(Opcode.MVM, handle="m", vector_vr=0, result_vr=1, input_bits=2,
                       vector_pipeline=4, result_pipeline=4)
        program.append(Opcode.DREAD, pipeline=4, vr=1)
        trace = executor.run(program)
        assert np.array_equal(trace.mvm_results[0], vector @ matrix)
        assert np.array_equal(trace.reads[1][:6], vector @ matrix)


class TestAllocator:
    def test_precision_scale_mapping(self):
        assert precision_to_bits_per_cell(0, 8) == 1
        assert precision_to_bits_per_cell(1, 8) == 4
        assert precision_to_bits_per_cell(2, 8) == 8
        assert precision_to_bits_per_cell(2, 4) == 4

    def test_plan_matrix_covers_whole_matrix(self):
        placement = plan_matrix((200, 90), element_size=8, precision=0, hct_config=HctConfig.paper_default())
        covered = np.zeros((200, 90), dtype=bool)
        for tile in placement.tiles:
            covered[tile.row_start:tile.row_end, tile.col_start:tile.col_end] = True
        assert covered.all()

    def test_small_matrix_fits_one_hct(self):
        placement = plan_matrix((64, 64), element_size=8, precision=0, hct_config=HctConfig.paper_default())
        assert placement.hcts_needed == 1


class TestDevice:
    @pytest.fixture
    def device(self):
        config = ChipConfig(hct=HctConfig.small(), num_hcts=8)
        return DarthPumDevice(chip=DarthPumChip(config))

    def test_set_matrix_and_exec_mvm(self, device, rng):
        matrix = rng.integers(-3, 3, size=(12, 10))
        allocation = device.set_matrix(matrix, element_size=4, precision=0)
        x = rng.integers(0, 7, size=12)
        result = device.exec_mvm(allocation, x, input_bits=3)
        assert np.array_equal(result, x @ matrix)

    def test_update_row_and_re_execute(self, device, rng):
        matrix = rng.integers(0, 3, size=(8, 8))
        allocation = device.set_matrix(matrix, element_size=2, precision=0)
        new_row = np.ones(8, dtype=np.int64)
        device.update_row(allocation, 2, new_row)
        x = np.zeros(8, dtype=np.int64)
        x[2] = 1
        assert np.array_equal(device.exec_mvm(allocation, x, input_bits=1), new_row)

    def test_float_matrix_rejected(self, device):
        with pytest.raises(QuantizationError):
            device.set_matrix(np.ones((4, 4)) * 0.5)

    def test_a_refused_update_changes_nothing(self, device, rng):
        """A row or column the encoder refuses leaves the stored copy, and
        so ``expected_mvm``, as it was."""
        matrix = rng.integers(-8, 8, size=(8, 8))
        allocation = device.set_matrix(matrix, element_size=4)
        x = rng.integers(0, 8, size=8)
        for update in (device.update_row, device.update_col):
            with pytest.raises(QuantizationError, match="magnitude exceeds 8"):
                update(allocation, 0, [100] * 8)
            assert np.array_equal(allocation.matrix, matrix)
            assert np.array_equal(device.expected_mvm(allocation, x), x @ matrix)
            assert np.array_equal(device.exec_mvm(allocation, x, input_bits=3), x @ matrix)

    def test_a_row_refused_in_its_last_block_writes_no_block(self, device, rng):
        """8x512 over eight HCTs, the row's last value out of range: the
        whole row is checked before the first block is reprogrammed."""
        matrix = rng.integers(-8, 8, size=(8, 512))
        allocation = device.set_matrix(matrix, element_size=4)
        assert allocation.hcts_used == 8
        row = rng.integers(-8, 8, size=512)
        row[-1] = 99
        before = device.chip.total_ledger().snapshot()
        with pytest.raises(QuantizationError, match="magnitude exceeds 8"):
            device.update_row(allocation, 3, row)
        after = device.chip.total_ledger().snapshot()
        vectors = rng.integers(1, 8, size=(4, 8))
        assert np.array_equal(device.exec_mvm_batch(allocation, vectors, input_bits=3),
                              vectors @ matrix)
        assert after == before  # no block was programmed
        assert np.array_equal(allocation.matrix, matrix)

    def test_a_negative_index_updates_the_device_too(self, device, rng):
        """Row -1 is the last row at the device as in its copy, and a row
        past the end is refused before anything is written."""
        matrix = rng.integers(-8, 8, size=(40, 20))
        allocation = device.set_matrix(matrix, element_size=4)
        assert allocation.hcts_used > 1
        new = rng.integers(-8, 8, size=(40, 20))
        device.update_row(allocation, -1, new[-1])
        device.update_col(allocation, -1, new[:, -1])
        matrix[-1], matrix[:, -1] = new[-1], new[:, -1]
        with pytest.raises(IndexError):
            device.update_row(allocation, 40, new[0])
        vectors = rng.integers(0, 8, size=(3, 40))
        assert np.array_equal(allocation.matrix, matrix)
        assert np.array_equal(device.exec_mvm_batch(allocation, vectors, input_bits=3),
                              vectors @ matrix)

    def test_float_updates_are_refused_not_truncated(self, device, rng):
        matrix = rng.integers(-8, 8, size=(8, 8))
        allocation = device.set_matrix(matrix, element_size=4)
        tile = device.chip.hct(allocation.hct_indices[0])
        handle = allocation.handles[0]
        for update, target in ((device.update_row, allocation), (device.update_col, allocation),
                               (tile.ace.update_row, handle), (tile.ace.update_col, handle)):
            with pytest.raises(QuantizationError, match="integer"):
                update(target, 1, [1.7] * 8)
        assert np.array_equal(allocation.matrix, matrix)
        assert np.array_equal(tile.ace.stored_matrix(handle), matrix)

    def test_release_returns_hcts(self, device, rng):
        allocation = device.set_matrix(rng.integers(0, 3, size=(8, 8)), element_size=2)
        assert device.chip.allocated_hcts > 0
        device.release(allocation)
        assert device.chip.allocated_hcts == 0
