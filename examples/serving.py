"""Serving: dynamic batching of single-vector requests over a device pool.

Demonstrates the :class:`repro.PumServer` front-end: registering matrices,
submitting prioritised single-vector MVM requests with deadlines, driving
the deterministic scheduler clock (or a background thread), admission
control under overload, and the telemetry the scheduler emits (queue depth,
batch fill, latency percentiles in ticks, energy per request).  Finishes by
pushing all three paper workloads -- AES MixColumns, a CNN convolution, and
an LLM projection -- through the same server.

Run with:  python examples/serving.py
"""

from __future__ import annotations

import numpy as np

from repro import PumServer, StaticBatchingPolicy, ThreadedServerDriver
from repro.runtime import (
    serve_aes_mixcolumns,
    serve_cnn_conv,
    serve_llm_projection,
)
from repro.workloads.cnn.layers import Conv2d


def main() -> None:
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    # 1. Register matrices, submit requests, drive the simulated clock.   #
    # ------------------------------------------------------------------ #
    server = PumServer(num_devices=2, policy="cache_affinity",
                       scheduling=StaticBatchingPolicy(8, 3), queue_capacity=32)
    matrix = rng.integers(-50, 50, size=(32, 24))
    server.register_matrix("ranker", matrix, element_size=8)

    futures = [
        server.submit("ranker", rng.integers(0, 16, size=32),
                      input_bits=4, priority=i % 3)
        for i in range(20)
    ]
    responses = server.run_until_idle()
    print(f"served {len(responses)} requests in {server.now} ticks")
    first = futures[0].result()
    print(f"request 0: batch of {first.batch_size}, "
          f"latency {first.latency_ticks} ticks, "
          f"{first.energy_pj:.0f} pJ")

    # ------------------------------------------------------------------ #
    # 2. Deadlines and admission control under overload.                  #
    # ------------------------------------------------------------------ #
    tight = server.submit("ranker", rng.integers(0, 16, size=32),
                          input_bits=4, deadline=server.now + 1)
    server.tick()
    server.tick()
    print(f"tight-deadline request: {tight.result().status}")

    # ------------------------------------------------------------------ #
    # 3. Wall-clock serving with the threaded driver.                     #
    # ------------------------------------------------------------------ #
    with ThreadedServerDriver(server, tick_interval=1e-4):
        future = server.submit("ranker", rng.integers(0, 16, size=32),
                               input_bits=4)
        response = future.result(timeout=5.0)
    print(f"threaded response ok={response.ok} "
          f"(batch of {response.batch_size})")

    # ------------------------------------------------------------------ #
    # 4. All three paper workloads through the same server.               #
    # ------------------------------------------------------------------ #
    columns = rng.integers(0, 256, size=(8, 4))
    mixed = serve_aes_mixcolumns(server, columns)
    print(f"AES MixColumns served: {columns[0]} -> {mixed[0]}")

    conv = Conv2d(3, 4, kernel=3, rng=rng)
    image = rng.standard_normal((1, 3, 8, 8))
    device_out, reference = serve_cnn_conv(server, conv, image, positions=4)
    print("CNN conv served: max |device - reference| = "
          f"{np.abs(device_out - reference).max():.4f}")

    weight = rng.standard_normal((16, 8))
    tokens = rng.standard_normal((6, 16))
    device_out, reference = serve_llm_projection(server, weight, tokens)
    print("LLM projection served: max |device - reference| = "
          f"{np.abs(device_out - reference).max():.4f}")

    # ------------------------------------------------------------------ #
    # 5. Aggregate telemetry.                                             #
    # ------------------------------------------------------------------ #
    print("\ntelemetry:")
    for key, value in server.stats.summary().items():
        print(f"  {key:>28}: {value:.2f}")


if __name__ == "__main__":
    main()
