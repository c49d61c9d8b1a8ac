"""Cluster scaling benchmark: multi-process workers vs the GIL.

Drives an open-loop load generator (Poisson arrivals -- the arrival
process does not slow down when the server does, which is what exposes
queueing) through the cluster gateway and records:

* **throughput scaling** -- aggregate drain throughput of 1 worker vs
  :data:`SCALE_WORKERS` workers on the *noisy* chip preset.  Noise
  modelling is pure-Python per batch, so a single process serializes on
  the GIL however many devices its pool drives;
  worker processes are the only way that workload scales.  The >= 2x
  gate (:data:`SCALE_GATE`) applies on runners with at least
  :data:`SCALE_WORKERS` usable cores; on smaller machines (the 2x is
  physically impossible on one core) the gate degrades to a
  transport-overhead sanity floor -- the artifact always records the
  core count alongside the numbers so trajectories compare like with
  like.
* **latency under offered load** -- p50/p99 wall-clock request latency
  at a fixed Poisson rate, plus the shed count (open-loop backpressure
  reaching the caller).
* **chaos recovery** -- the same Poisson run with one of two replicated
  workers SIGKILLed mid-load: every future must resolve completed (the
  gateway retries stranded batches on the surviving replica), and the
  artifact records the recovery blip (post-kill p99 vs fault-free p99)
  and the retry counters.
* **bit identity** -- a noise-free trace answered by the gateway must
  equal the single-process :class:`PumServer` answer bit for bit.

Results go to ``benchmarks/artifacts/cluster.json`` on every run; with
``REPRO_BENCH_RECORD=1`` (the CI cluster job) the headline numbers are
appended to the ``BENCH_cluster.json`` trajectory at the repo root.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import statistics
import time
from pathlib import Path

import numpy as np
import open_loop

from repro.metrics import percentile
from repro.runtime.cluster import ClusterGateway

CPUS = os.cpu_count() or 1
SCALE_WORKERS = 4
#: The acceptance gate: >= 2x aggregate throughput going 1 -> 4 workers
#: on the GIL-bound noisy workload -- but only where the hardware can
#: physically deliver it.  A 4-process cluster on a single core can at
#: best tie the single worker, so there the gate is a sanity floor
#: catching transport pathologies (a healthy shm transport costs far
#: less than 4x).
SCALE_GATE = 2.0 if CPUS >= SCALE_WORKERS else 0.25

MATRIX_SHAPE = (24, 16)
INPUT_BITS = 4
DRAIN_REQUESTS = 512
WAVE_SIZE = 16
REPEATS = 3
POISSON_REQUESTS = 256
POISSON_RATE = 1200.0  # offered load, requests/second
KILL_WAVE = 4
#: Wait before re-offering a shed wave.
SHED_BACKOFF = 2e-4

ARTIFACTS_DIR = Path(__file__).parent / "artifacts"

RNG = np.random.default_rng(41)
MATRIX = RNG.integers(-8, 8, size=MATRIX_SHAPE, dtype=np.int64)


def gateway(num_workers, **kwargs):
    kwargs.setdefault("chip", "small")
    kwargs.setdefault("noise", "paper_default")
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_ticks", 1)
    kwargs.setdefault("inflight_window", 256)
    return ClusterGateway(num_workers=num_workers, **kwargs)


def load(requests, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(
        0, 1 << INPUT_BITS,
        size=(requests // WAVE_SIZE, WAVE_SIZE, MATRIX_SHAPE[0]),
        dtype=np.int64,
    )


# --------------------------------------------------------------------- #
# Throughput scaling                                                      #
# --------------------------------------------------------------------- #
async def drain_throughput(num_workers):
    """Best closed-loop drain throughput (requests/second) of a config."""
    vectors = load(DRAIN_REQUESTS, seed=42)
    async with gateway(num_workers, replication=1) as gw:
        await gw.register_matrix("m", MATRIX, input_bits=INPUT_BITS)
        rates = []
        for _ in range(1 + REPEATS):  # first drain is warm-up
            futures = []
            start = time.perf_counter()
            for wave in vectors:
                batch, _ = await open_loop.submit_with_backpressure(
                    gw, wave, INPUT_BITS, SHED_BACKOFF
                )
                futures.extend(batch)
            responses = await asyncio.gather(*futures)
            elapsed = time.perf_counter() - start
            assert all(r.ok for r in responses)
            rates.append(DRAIN_REQUESTS / elapsed)
        return statistics.median(rates[1:])


# --------------------------------------------------------------------- #
# Open-loop Poisson load                                                  #
# --------------------------------------------------------------------- #
async def poisson_run(kill=False):
    """Open-loop Poisson drive (:func:`open_loop.poisson_run`); returns
    (latencies by wave, sheds, stats).  With ``kill``, the matrix's primary
    is SIGKILLed as wave :data:`KILL_WAVE` arrives, so that wave is sent to
    a dead worker and must be retried on the replica.
    """
    async with gateway(
        2, replication=2, heartbeat_interval=0.02
    ) as gw:
        await gw.register_matrix("m", MATRIX, input_bits=INPUT_BITS)

        async def on_wave(index):
            if kill and index == KILL_WAVE:
                victim = gw.placement_of("m")[0]
                os.kill(gw._workers[victim].process.pid, signal.SIGKILL)

        responses, latencies, sheds = await open_loop.poisson_run(
            gw, load(POISSON_REQUESTS, seed=44), POISSON_RATE, 43,
            INPUT_BITS, SHED_BACKOFF, on_wave,
        )
        assert len(responses) == POISSON_REQUESTS  # no future lost
        assert all(r.ok for r in responses), (
            f"{sum(not r.ok for r in responses)} requests did not complete"
        )
        return latencies, sheds, gw.stats.snapshot()


# --------------------------------------------------------------------- #
# Bit identity                                                            #
# --------------------------------------------------------------------- #
async def cluster_answers(trace):
    async with gateway(2, replication=2, noise=None) as gw:
        await gw.register_matrix("m", MATRIX, input_bits=INPUT_BITS)
        responses = await asyncio.gather(
            *await gw.submit_batch("m", trace, INPUT_BITS)
        )
        assert all(r.ok for r in responses)
        return np.stack([r.result for r in responses])


def single_server_answers(trace):
    return open_loop.single_server_answers(MATRIX, trace, INPUT_BITS)


# --------------------------------------------------------------------- #
# The benchmark                                                           #
# --------------------------------------------------------------------- #
def test_cluster_scaling_benchmark(record_row):
    trace = load(WAVE_SIZE, seed=45)[0]
    identical = np.array_equal(
        asyncio.run(cluster_answers(trace)), single_server_answers(trace)
    )
    assert identical, "gateway answers diverged from the single server"

    single = asyncio.run(drain_throughput(1))
    scaled = asyncio.run(drain_throughput(SCALE_WORKERS))
    scaling = scaled / max(single, 1e-12)

    clean_latencies, clean_sheds, clean_stats = asyncio.run(
        poisson_run(kill=False)
    )
    chaos_latencies, chaos_sheds, chaos_stats = asyncio.run(
        poisson_run(kill=True)
    )

    flat_clean = [l for wave in clean_latencies for l in wave]
    post_kill = [
        l for wave in chaos_latencies[KILL_WAVE:] for l in wave
    ]
    clean_p50 = percentile(flat_clean, 50) * 1e3
    clean_p99 = percentile(flat_clean, 99) * 1e3
    chaos_p99 = percentile(post_kill, 99) * 1e3
    blip = chaos_p99 / max(clean_p99, 1e-12)

    assert chaos_stats["worker_failures"] == 1
    assert chaos_stats["retried_batches"] >= 1
    assert chaos_stats["failed"] == 0

    print(
        f"\ncluster: {single:.0f} req/s x1 worker -> {scaled:.0f} req/s "
        f"x{SCALE_WORKERS} workers ({scaling:.2f}x on {CPUS} cpus, gate "
        f">= {SCALE_GATE}x); open-loop p50 {clean_p50:.2f} ms / p99 "
        f"{clean_p99:.2f} ms at {POISSON_RATE:.0f} req/s "
        f"({clean_sheds} sheds); kill blip p99 {chaos_p99:.2f} ms "
        f"({blip:.2f}x), {chaos_stats['retried_batches']} batches retried"
    )

    payload = {
        "benchmark": "cluster_scaling",
        "cpus": CPUS,
        "scale_workers": SCALE_WORKERS,
        "requests": DRAIN_REQUESTS,
        "wave_size": WAVE_SIZE,
        "noise": "paper_default",
        "throughput_1_worker_rps": single,
        f"throughput_{SCALE_WORKERS}_workers_rps": scaled,
        "throughput_scaling": scaling,
        "scaling_gate": SCALE_GATE,
        "poisson_rate_rps": POISSON_RATE,
        "poisson_requests": POISSON_REQUESTS,
        "p50_latency_ms": clean_p50,
        "p99_latency_ms": clean_p99,
        "open_loop_sheds": clean_sheds,
        "chaos_post_kill_p99_ms": chaos_p99,
        "chaos_recovery_blip": blip,
        "chaos_sheds": chaos_sheds,
        "chaos_retried_batches": chaos_stats["retried_batches"],
        "chaos_worker_failures": chaos_stats["worker_failures"],
        "chaos_failed_requests": chaos_stats["failed"],
        "bit_identical": bool(identical),
        "lost_requests": 0,
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "cluster.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )

    record_row("BENCH_cluster.json", {
        "throughput_1_worker_rps": round(single, 1),
        f"throughput_{SCALE_WORKERS}_workers_rps": round(scaled, 1),
        "throughput_scaling": round(scaling, 3),
        "p50_latency_ms": round(clean_p50, 3),
        "p99_latency_ms": round(clean_p99, 3),
        "chaos_recovery_blip": round(blip, 2),
        "chaos_retried_batches": chaos_stats["retried_batches"],
    })

    assert scaling >= SCALE_GATE, (
        f"1 -> {SCALE_WORKERS} workers scaled {scaling:.2f}x on {CPUS} "
        f"cpus (gate {SCALE_GATE}x)"
    )
