"""Serving throughput: dynamic batching vs request-at-a-time execution.

The acceptance gate for the serving front-end: at an offered load of 16+
concurrent single-vector requests, the :class:`~repro.runtime.server.PumServer`
(which coalesces compatible requests into ``exec_mvm_batch`` calls) must
achieve at least 3x the throughput of serving the same requests one
``exec_mvm`` at a time, while remaining bit-identical in the noise-free
configuration.

The measured numbers are also written to
``benchmarks/artifacts/serving_throughput.json`` so CI can upload the perf
trajectory as a workflow artifact.

The file also records what a served request costs in steady state -- the
``server-round`` rows of ``benchmarks/profile_serving.py`` (microseconds and
function calls per request at 1 and 32 tenants and for 64 single
``submit()`` calls, and the share of a round that is the server's own Python) -- into ``benchmarks/artifacts/`` and, with
``REPRO_BENCH_RECORD=1``, the ``BENCH_serving.json`` trajectory.  Nothing is
asserted on those times; ``tests/test_hot_path.py`` budgets the call counts.
The ``registration`` row of the same script is recorded the same way: what a
new 64x64 4-bit ``register_matrix`` and the first wave against it cost
(``register_new_us``, ``first_call_us`` and the stage split).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest
from profile_serving import (
    REGISTRATION_KINDS,
    SERVER_ROUND_ROWS,
    registration_row,
    server_round_row,
)

from repro import DevicePool, PumServer, StaticBatchingPolicy

CONCURRENT_REQUESTS = 32  # offered load; the gate requires >= 16
MATRIX_SHAPE = (64, 64)
INPUT_BITS = 8
MAX_BATCH = 16

ARTIFACTS_DIR = Path(__file__).parent / "artifacts"


@pytest.fixture(scope="module")
def offered_load():
    """A fixed request stream plus matching sequential and served pools."""
    rng = np.random.default_rng(41)
    matrix = rng.integers(-100, 100, size=MATRIX_SHAPE)
    vectors = rng.integers(0, 256, size=(CONCURRENT_REQUESTS, MATRIX_SHAPE[0]))
    return matrix, vectors


def run_sequential(matrix, vectors):
    """Request-at-a-time baseline: one ``exec_mvm`` per arriving request."""
    pool = DevicePool(num_devices=2)
    allocation = pool.set_matrix(matrix, element_size=8, precision=0)
    pool.exec_mvm(allocation, vectors[0], input_bits=INPUT_BITS)  # warm-up
    start = time.perf_counter()
    results = np.stack([
        pool.exec_mvm(allocation, vector, input_bits=INPUT_BITS)
        for vector in vectors
    ])
    return results, time.perf_counter() - start


def run_served(matrix, vectors):
    """The same offered load through the dynamic-batching server."""
    server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(MAX_BATCH, 2))
    server.register_matrix("m", matrix, element_size=8)
    warm = server.submit("m", vectors[0], input_bits=INPUT_BITS)
    server.run_until_idle()
    assert warm.result().ok
    start = time.perf_counter()
    futures = [
        server.submit("m", vector, input_bits=INPUT_BITS) for vector in vectors
    ]
    server.run_until_idle()
    results = np.stack([future.result().result for future in futures])
    return results, time.perf_counter() - start, server


def test_serving_beats_request_at_a_time_by_3x(offered_load):
    matrix, vectors = offered_load
    sequential, sequential_seconds = run_sequential(matrix, vectors)
    served, served_seconds, server = run_served(matrix, vectors)

    # Bit-identical in the noise-free configuration.
    assert np.array_equal(served, sequential)
    assert np.array_equal(served, vectors @ matrix)

    speedup = sequential_seconds / max(served_seconds, 1e-12)
    summary = server.stats.summary()
    print(
        f"\nserving {CONCURRENT_REQUESTS} concurrent requests: "
        f"sequential {sequential_seconds * 1e3:.1f} ms, "
        f"served {served_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x, "
        f"mean batch fill {summary['mean_batch_fill']:.1f}"
    )

    ARTIFACTS_DIR.mkdir(exist_ok=True)
    payload = {
        "concurrent_requests": CONCURRENT_REQUESTS,
        "matrix_shape": list(MATRIX_SHAPE),
        "max_batch": MAX_BATCH,
        "sequential_seconds": sequential_seconds,
        "served_seconds": served_seconds,
        "speedup": speedup,
        "requests_per_second_sequential": CONCURRENT_REQUESTS / sequential_seconds,
        "requests_per_second_served": CONCURRENT_REQUESTS / served_seconds,
        "telemetry": summary,
    }
    path = ARTIFACTS_DIR / "serving_throughput.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))

    assert summary["mean_batch_fill"] > 1.0  # batching actually happened
    # Headroom, five runs at PR 21 (2 shared vCPUs): 5 208 / 5 744 / 5 940 /
    # 8 136 / 8 649x (sequential ~4.8 s, served 0.6-0.9 ms).
    assert speedup >= 3.0


def test_serving_throughput_benchmark(offered_load, benchmark):
    """Report served requests/second for the throughput dashboards."""
    matrix, vectors = offered_load
    server = PumServer(num_devices=2, scheduling=StaticBatchingPolicy(MAX_BATCH, 2))
    server.register_matrix("m", matrix, element_size=8)

    def serve_wave():
        futures = [
            server.submit("m", vector, input_bits=INPUT_BITS) for vector in vectors
        ]
        server.run_until_idle()
        return [future.result() for future in futures]

    responses = benchmark(serve_wave)
    assert len(responses) == CONCURRENT_REQUESTS
    assert all(response.ok for response in responses)


def test_server_round_cost_is_recorded(record_row):
    """One steady-state request through the server, priced; nothing gated."""
    rows = [server_round_row(*row) for row in SERVER_ROUND_ROWS]
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "server_round.json").write_text(json.dumps(rows, indent=2))
    for row in rows:
        print(f"\nserver round, {row['tenants']} tenants by {row['ingress']}: "
              f"{row['us_per_request']} "
              f"us/request (pool alone {row['pool_us_per_request']}), server "
              f"share {row['server_share']}")
        record_row("BENCH_serving.json", {"benchmark": "server_round", **row})


def test_registration_cost_is_recorded(record_row):
    """A registration with new bytes and its first call, priced for the same
    shape (reprogrammed in place) and a new one; nothing gated."""
    rows = [registration_row(kind, rounds=100, repeats=3) for kind in REGISTRATION_KINDS]
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "registration.json").write_text(json.dumps(rows, indent=2))
    for row in rows:
        print(f"\n{row['kind']} {row['element_size']}-bit registration: "
              f"{row['register_new_us']} us, first call {row['first_call_us']} us")
        record_row("BENCH_serving.json", {"benchmark": "registration", **row})
