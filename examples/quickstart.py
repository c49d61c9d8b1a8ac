"""Quickstart: program a matrix into DARTH-PUM and run a hybrid MVM.

Demonstrates the application-agnostic library calls of Table 1
(``setMatrix`` / ``execMVM`` / ``execMVMBatch``) through
:class:`repro.DarthPumDevice`, serving-style batched execution, sharding
across a multi-chip :class:`repro.DevicePool`, plus a look under the hood at
a single hybrid compute tile: the analog partial products, the digital
shift-and-add reduction, and the cycle/energy cost of both the optimised
and unoptimised schedules (Figure 10).

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import time

import numpy as np

from repro import (
    ChipConfig,
    DarthPumChip,
    DarthPumDevice,
    DevicePool,
    HctConfig,
    HybridComputeTile,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    # 1. The programmer-facing runtime (Table 1 API).                     #
    # ------------------------------------------------------------------ #
    chip = DarthPumChip(ChipConfig(hct=HctConfig.small(), num_hcts=8))
    device = DarthPumDevice(chip=chip)

    matrix = rng.integers(-8, 8, size=(24, 16))
    vector = rng.integers(0, 15, size=24)
    allocation = device.set_matrix(matrix, element_size=4, precision=0)
    result = device.exec_mvm(allocation, vector, input_bits=4)

    print("setMatrix(): stored a", matrix.shape, "matrix on", allocation.hcts_used, "HCT(s)")
    print("execMVM() result matches numpy:", np.array_equal(result, vector @ matrix))

    # New values of the same shape are written where the old ones sit.
    updated = matrix[::-1].copy()
    device.update_matrix(allocation, updated)
    device.update_row(allocation, 0, matrix[0])
    updated[0] = matrix[0]
    print("setMatrix() in place + updateRow() match numpy:",
          np.array_equal(device.exec_mvm(allocation, vector, input_bits=4), vector @ updated))

    # ------------------------------------------------------------------ #
    # 2. Batched execution: serve a whole batch in one arbiter pass.      #
    # ------------------------------------------------------------------ #
    vectors = rng.integers(0, 15, size=(32, 24))
    start = time.perf_counter()
    looped = np.stack([device.exec_mvm(allocation, v, input_bits=4) for v in vectors])
    loop_seconds = time.perf_counter() - start
    start = time.perf_counter()
    batched = device.exec_mvm_batch(allocation, vectors, input_bits=4)
    batch_seconds = time.perf_counter() - start

    print("\nexecMVMBatch() over a batch of", vectors.shape[0], "vectors:")
    print("  bit-identical to 32 sequential execMVM() calls:",
          np.array_equal(batched, looped))
    print(f"  host wall-clock: {loop_seconds * 1e3:.0f} ms looped vs "
          f"{batch_seconds * 1e3:.0f} ms batched "
          f"({loop_seconds / max(batch_seconds, 1e-9):.0f}x)")

    # ------------------------------------------------------------------ #
    # 3. A multi-chip pool: shard a matrix too large for one chip.        #
    # ------------------------------------------------------------------ #
    pool = DevicePool(num_devices=3,
                      config=ChipConfig(hct=HctConfig.small(), num_hcts=3))
    large = rng.integers(-8, 8, size=(100, 30))
    pooled = pool.set_matrix(large, element_size=4, precision=0)
    requests = rng.integers(0, 8, size=(8, 100))
    answers = pool.exec_mvm_batch(pooled, requests, input_bits=3)

    print("\nDevicePool: stored a", large.shape, "matrix as", pooled.num_shards,
          "row shards on devices", pooled.devices_used)
    print("  sharded batch matches numpy:", np.array_equal(answers, requests @ large))
    print("  per-device utilisation:", [round(u, 2) for u in pool.utilization()])

    # ------------------------------------------------------------------ #
    # 4. Under the hood: one hybrid compute tile.                         #
    # ------------------------------------------------------------------ #
    tile = HybridComputeTile(HctConfig.small())
    handle = tile.set_matrix(matrix[:16, :12], value_bits=4, bits_per_cell=2)
    mvm = tile.execute_mvm(handle, vector[:16], input_bits=4)

    print("\nOne hybrid MVM on a single tile:")
    print("  partial products produced by the ACE:", mvm.num_partial_products)
    print("  optimised schedule (shift-in-flight): ", round(mvm.optimized_cycles), "cycles")
    print("  naive schedule (Figure 10a):          ", round(mvm.unoptimized_cycles), "cycles")
    print("  speedup from the shift units + IIU:   ",
          round(mvm.speedup_from_optimization, 2), "x")
    print("  energy:", round(mvm.energy_pj, 1), "pJ")
    print("  front-end instruction slots saved by the IIU:", mvm.iiu_slots_saved)
    tile.ace.reprogram(handle, -matrix[:16, :12])
    again = tile.execute_mvm(handle, vector[:16], input_bits=4)
    print("  arrays reprogrammed in place, result matches numpy:",
          np.array_equal(again.values, vector[:16] @ -matrix[:16, :12]))


if __name__ == "__main__":
    main()
