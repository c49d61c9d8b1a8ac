"""Kernel speedup gate: the vectorized backend vs the step-faithful reference.

The acceptance gate for the vectorized plan interpreter: on the paper's
canonical hot kernel -- a 64x64 matrix MVM at batch 32, 8-bit inputs and
weights -- ``backend="vectorized"`` must be at least 10x faster than
``backend="reference"`` while remaining bit-identical (results and
cost-ledger totals).

The measured numbers are written to
``benchmarks/artifacts/kernel_speedup.json`` (the CI artifact).  When the
``REPRO_BENCH_RECORD=1`` environment variable is set (the CI benchmarks
job does), the headline numbers are also appended to the
``BENCH_kernels.json`` trajectory file at the repo root so they accumulate
across PRs; plain tier-1 runs leave the trajectory untouched.  A recorded
row names its host (``cpus``, ``python``, ``numpy``, ``commit``) and carries
the cost of one steady-state exact-path device call (``exact_call_us`` and
``calls_per_exec``, both measured by the ``device-call`` mode of
``benchmarks/profile_serving.py``) over ``tiles`` tiles: the 8-tile row band
since PR 15, the single-tile encoder shape in the rows without ``tiles``.
Since PR 21 a row also carries ``noisy_call_us``: one steady-state call under
``NoiseConfig.paper_default()`` (the general path: read noise, lossy ADC) at
each of the three paper shapes, and newer rows ``flush_us``: what reading
the row band's accumulator registers back after a call costs (the call
leaves them as words, unpacked on first read).  None of these is asserted
here --
``tests/test_hot_path.py`` gates the call count and the noisy call's draws
and allocations.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
from profile_serving import (
    NOISY_CALL_LABELS,
    best_call_us,
    count_calls,
    device_call_at,
    register_flush_us,
)

from repro import DarthPumDevice
from repro.reram import NoiseConfig
from repro.testing import DEVICE_CALL_SHAPES

MATRIX_SHAPE = (64, 64)
BATCH = 32
INPUT_BITS = 8
ELEMENT_SIZE = 8
#: A wall-clock ratio that may stay in tier-1: it read 159 / 162 / 165 / 170 /
#: 170x in five runs at PR 21 (2 shared vCPUs) and 131-168x in the recorded
#: rows since 2026-09-30 -- 13x headroom over the gate at the least.
REQUIRED_SPEEDUP = 10.0

ARTIFACTS_DIR = Path(__file__).parent / "artifacts"


def _bench(device, allocation, vectors, backend, repeats=7, loops=5):
    """Best-of-N wall-clock seconds for one batched MVM under ``backend``."""
    device.exec_mvm_batch(allocation, vectors, input_bits=INPUT_BITS, backend=backend)
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            result = device.exec_mvm_batch(
                allocation, vectors, input_bits=INPUT_BITS, backend=backend
            )
        best = min(best, (time.perf_counter() - start) / loops)
    return best, result


def test_vectorized_kernel_speedup_gate(host, record_row):
    rng = np.random.default_rng(7)
    matrix = rng.integers(-100, 100, size=MATRIX_SHAPE)
    vectors = rng.integers(0, 2 ** INPUT_BITS, size=(BATCH, MATRIX_SHAPE[0]))

    reference_device = DarthPumDevice()
    reference_allocation = reference_device.set_matrix(
        matrix, element_size=ELEMENT_SIZE, precision=0
    )
    vectorized_device = DarthPumDevice()
    vectorized_allocation = vectorized_device.set_matrix(
        matrix, element_size=ELEMENT_SIZE, precision=0
    )

    reference_seconds, reference_result = _bench(
        reference_device, reference_allocation, vectors, "reference"
    )
    vectorized_seconds, vectorized_result = _bench(
        vectorized_device, vectorized_allocation, vectors, "vectorized"
    )
    speedup = reference_seconds / vectorized_seconds

    # Bit-identical: results and ledger totals.
    assert np.array_equal(vectorized_result, reference_result)
    assert np.array_equal(vectorized_result, vectors @ matrix)
    reference_ledger = reference_device.chip.total_ledger()
    vectorized_ledger = vectorized_device.chip.total_ledger()
    assert reference_ledger.cycles == vectorized_ledger.cycles
    assert reference_ledger.energy_pj == vectorized_ledger.energy_pj

    exact_call, exact_device, exact_allocation = device_call_at("row_band_8_tiles")
    tiles = len(exact_allocation.placement.tiles)
    exact_call_us = best_call_us(exact_call)
    calls_per_exec = sum(count_calls(exact_call))
    flush_us = register_flush_us(exact_call, exact_device, exact_allocation,
                                 DEVICE_CALL_SHAPES["row_band_8_tiles"][2], loops=300)
    noisy_call_us = {
        label: round(best_call_us(
            device_call_at(label, noise=NoiseConfig.paper_default())[0], repeats=5, loops=20
        ), 1)
        for label in NOISY_CALL_LABELS
    }

    payload = {
        "benchmark": "kernel_speedup",
        "matrix_shape": list(MATRIX_SHAPE),
        "batch": BATCH,
        "input_bits": INPUT_BITS,
        "element_size": ELEMENT_SIZE,
        "reference_ms": reference_seconds * 1e3,
        "vectorized_ms": vectorized_seconds * 1e3,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "bit_identical": True,
        "tiles": tiles,
        "exact_call_us": exact_call_us,
        "calls_per_exec": calls_per_exec,
        "flush_us": flush_us,
        "noisy_call_us": noisy_call_us,
        **host,
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "kernel_speedup.json").write_text(json.dumps(payload, indent=2))

    record_row("BENCH_kernels.json", {
        "reference_ms": round(reference_seconds * 1e3, 3),
        "vectorized_ms": round(vectorized_seconds * 1e3, 3),
        "speedup": round(speedup, 1),
        "tiles": tiles,
        "exact_call_us": round(exact_call_us, 1),
        "calls_per_exec": calls_per_exec,
        "flush_us": round(flush_us, 1),
        "noisy_call_us": noisy_call_us,
    })

    assert speedup >= REQUIRED_SPEEDUP, (
        f"vectorized engine is only {speedup:.1f}x faster than the reference "
        f"engine (gate requires >= {REQUIRED_SPEEDUP}x): "
        f"reference {reference_seconds * 1e3:.2f} ms, "
        f"vectorized {vectorized_seconds * 1e3:.3f} ms"
    )
