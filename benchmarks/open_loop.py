"""The open-loop Poisson load generator of the two cluster gates.

``test_cluster_scaling.py`` and ``test_cluster_chaos_gate.py`` offer load
the same way: wave arrival times are drawn up front from an exponential
inter-arrival distribution and never adjusted -- the generator keeps
offering load even when the cluster falls behind, so the latency
percentiles include queueing delay, not just service time -- and every wave
is answered against a fault-free single-process :class:`PumServer`.  Each
gate keeps its own seeds, rates, chaos and assertions; the chaos arrives
through the ``on_wave`` hook.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.config import ChipConfig, HctConfig
from repro.errors import AdmissionError
from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer


async def submit_with_backpressure(gw, vectors, input_bits, backoff):
    """Submit one wave to matrix ``"m"``, waiting ``backoff`` seconds out
    each AdmissionError shed (CircuitOpenError included -- an open breaker
    is backpressure, not data loss); returns (futures, sheds)."""
    sheds = 0
    while True:
        try:
            return await gw.submit_batch("m", vectors, input_bits), sheds
        except AdmissionError:
            sheds += 1
            await asyncio.sleep(backoff)


async def poisson_run(gw, waves, rate, seed, input_bits, backoff,
                      on_wave=None):
    """Offer ``waves`` to ``gw`` at ``rate`` requests/second, arrivals drawn
    from ``seed``; ``on_wave(index)`` is awaited as each wave arrives,
    before it is submitted.

    Returns (responses in submission order, latencies by wave, sheds).
    """
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(len(waves[0]) / rate, size=len(waves)))
    loop = asyncio.get_running_loop()
    latencies = [[] for _ in waves]
    futures = []
    sheds = 0
    start = loop.time()
    for index, (at, wave) in enumerate(zip(arrivals, waves)):
        now = loop.time() - start
        if at > now:
            await asyncio.sleep(at - now)
        if on_wave is not None:
            await on_wave(index)
        submitted = loop.time()

        def record(future, submitted=submitted, index=index):
            latencies[index].append(loop.time() - submitted)

        batch, wave_sheds = await submit_with_backpressure(
            gw, wave, input_bits, backoff
        )
        sheds += wave_sheds
        for future in batch:
            future.add_done_callback(record)
        futures.extend(batch)
    return await asyncio.gather(*futures), latencies, sheds


def single_server_answers(matrix, trace, input_bits):
    """``trace`` answered by one fault-free single-process server."""
    pool = DevicePool(
        num_devices=1, config=ChipConfig(hct=HctConfig.small(), num_hcts=3)
    )
    server = PumServer(pool=pool, queue_capacity=4096)
    server.register_matrix("m", matrix, input_bits=input_bits)
    futures = server.submit_batch("m", trace, input_bits)
    server.run_until_idle()
    return np.stack([f.result().result for f in futures])
