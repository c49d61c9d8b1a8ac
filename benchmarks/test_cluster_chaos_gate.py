"""Cluster chaos gate: every failure mode at once, zero lost answers.

One open-loop Poisson run absorbs the full chaos menu simultaneously:

* a **seeded transport fault campaign** (drop / duplicate / delay /
  corrupt, from :class:`TransportFaultSchedule` keyed on
  ``REPRO_TEST_SEED``) on the request *and* reply ring of every worker;
* one **induced straggler** -- a worker that keeps heartbeating but
  sleeps through a batch, so only the batch timeout can catch it;
* one **SIGKILL** of a replica mid-load, healed by the supervisor
  (``auto_restart=True``).

The gate is absolute, not statistical: every admitted future resolves
exactly once and ``completed``, the answers are bit-identical to a
fault-free single-process :class:`PumServer` twin (the run is
noise-free, so divergence means the chaos layer corrupted data), the
straggler was hedged rather than declared dead, and the killed worker
came back inside its restart budget.  The p99 latency blip (post-fault
p99 over the fault-free run's p99) is recorded -- and loosely bounded --
as the price of recovery.

Results go to ``benchmarks/artifacts/cluster_chaos.json`` on every run;
with ``REPRO_BENCH_RECORD=1`` (the CI cluster-chaos job, which sweeps
seeds {12345, 1, 31337}) a headline row is appended to the
``BENCH_cluster.json`` trajectory at the repo root.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from pathlib import Path

import numpy as np

from repro.core.config import ChipConfig, HctConfig
from repro.errors import AdmissionError
from repro.metrics import percentile
from repro.runtime.cluster import ClusterGateway, TransportFaultSpec
from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer
from repro.testing import REPRO_TEST_SEED

CPUS = os.cpu_count() or 1

MATRIX_SHAPE = (24, 16)
INPUT_BITS = 4
WAVE_SIZE = 16
WAVES = 12
POISSON_RATE = 600.0  # offered load, requests/second
STRAGGLE_WAVE = 2
STRAGGLE_SECONDS = 0.8
KILL_WAVE = 6
BATCH_TIMEOUT = 0.35
#: Recovery-price ceiling, in absolute terms: the worst recovery chain
#: is deterministic -- a straggle of STRAGGLE_SECONDS, or a batch eating
#: consecutive timeouts with exponential backoff (0.35 + 0.7 + 1.4 s)
#: plus a supervised restart -- so post-fault p99 beyond ~4 s of that
#: envelope means hedging or the supervisor stopped working.  The blip
#: *ratio* against the fault-free twin is recorded but not gated: its
#: denominator is a millisecond-scale clean p99 that swings with host
#: load, which would make a ratio gate flaky.
P99_CEILING_MS = 8_000.0

ARTIFACTS_DIR = Path(__file__).parent / "artifacts"

RNG = np.random.default_rng(41)
MATRIX = RNG.integers(-8, 8, size=MATRIX_SHAPE, dtype=np.int64)


def load():
    rng = np.random.default_rng(46)
    return rng.integers(
        0, 1 << INPUT_BITS,
        size=(WAVES, WAVE_SIZE, MATRIX_SHAPE[0]),
        dtype=np.int64,
    )


def gateway(**kwargs):
    return ClusterGateway(
        num_workers=2, chip="small", noise=None, replication=2,
        max_batch=8, max_wait_ticks=1, inflight_window=256,
        heartbeat_interval=0.02, stop_timeout=8.0, **kwargs
    )


async def submit_with_backpressure(gw, vectors):
    """Submit one wave, waiting out AdmissionError sheds (which includes
    CircuitOpenError -- an open breaker is backpressure, not data loss);
    returns (futures, sheds)."""
    sheds = 0
    while True:
        try:
            return await gw.submit_batch("m", vectors, INPUT_BITS), sheds
        except AdmissionError:
            sheds += 1
            await asyncio.sleep(2e-3)


async def poisson_run(chaos):
    """Open-loop Poisson drive; with ``chaos`` the full menu is applied.

    Returns (responses in submission order, per-wave latencies, sheds,
    stats, faults_injected).
    """
    rng = np.random.default_rng(47)
    waves = load()
    arrivals = np.cumsum(
        rng.exponential(WAVE_SIZE / POISSON_RATE, size=len(waves))
    )
    spec = TransportFaultSpec(
        seed=REPRO_TEST_SEED, num_events=3, horizon_frames=10,
    ) if chaos else None
    knobs = {
        "batch_timeout": BATCH_TIMEOUT,
        "transport_faults": spec,
        "auto_restart": True,
        "restart_budget": 3,
    } if chaos else {}
    async with gateway(**knobs) as gw:
        await gw.register_matrix("m", MATRIX, input_bits=INPUT_BITS)
        straggler = gw.placement_of("m")[0]
        victim = gw.placement_of("m")[1]
        loop = asyncio.get_running_loop()
        latencies = [[] for _ in waves]
        futures = []
        sheds = 0
        start = loop.time()
        for index, (at, wave) in enumerate(zip(arrivals, waves)):
            now = loop.time() - start
            if at > now:
                await asyncio.sleep(at - now)
            if chaos and index == STRAGGLE_WAVE:
                await gw.induce_straggler(
                    straggler, batches=1, seconds=STRAGGLE_SECONDS
                )
            if chaos and index == KILL_WAVE:
                os.kill(gw._workers[victim].process.pid, signal.SIGKILL)
            submitted = loop.time()

            def record(future, submitted=submitted, index=index):
                latencies[index].append(loop.time() - submitted)

            batch, wave_sheds = await submit_with_backpressure(gw, wave)
            sheds += wave_sheds
            for future in batch:
                future.add_done_callback(record)
            futures.extend(batch)
        responses = await asyncio.gather(*futures)
        if chaos:
            # The supervisor must heal the killed replica before we leave.
            deadline = loop.time() + 60
            while gw.stats.supervised_restarts < 1 \
                    or not gw.worker_status()[victim]["alive"]:
                assert loop.time() < deadline, "supervised restart never came"
                await asyncio.sleep(0.02)
        faults = sum(
            worker.requests.fault_injector.faults_injected
            for worker in gw._workers
            if worker.requests.fault_injector is not None
        )
        return responses, latencies, sheds, gw.stats.snapshot(), faults


def single_server_answers(trace):
    pool = DevicePool(
        num_devices=1, config=ChipConfig(hct=HctConfig.small(), num_hcts=3)
    )
    server = PumServer(pool=pool, queue_capacity=4096)
    server.register_matrix("m", MATRIX, input_bits=INPUT_BITS)
    futures = server.submit_batch("m", trace, INPUT_BITS)
    server.run_until_idle()
    return np.stack([f.result().result for f in futures])


# --------------------------------------------------------------------- #
# The gate                                                                #
# --------------------------------------------------------------------- #
def test_cluster_chaos_gate(record_row):
    clean_responses, clean_latencies, clean_sheds, clean_stats, _ = \
        asyncio.run(poisson_run(chaos=False))
    chaos_responses, chaos_latencies, chaos_sheds, chaos_stats, faults = \
        asyncio.run(poisson_run(chaos=True))

    # Zero lost futures, zero failures, nothing resolved twice: gather
    # returned exactly one terminal response per admitted request.
    total = WAVES * WAVE_SIZE
    assert len(chaos_responses) == total
    assert all(r.ok for r in chaos_responses), (
        f"{sum(not r.ok for r in chaos_responses)} of {total} requests "
        f"failed under chaos"
    )
    assert chaos_stats["failed"] == 0

    # Bit identity against the fault-free twin *and* the single-process
    # server: chaos may cost latency, never answers.
    order = np.argsort([r.request_id for r in chaos_responses])
    chaos_answers = np.stack([chaos_responses[i].result for i in order])
    clean_order = np.argsort([r.request_id for r in clean_responses])
    clean_answers = np.stack(
        [clean_responses[i].result for i in clean_order]
    )
    local = single_server_answers(load().reshape(total, MATRIX_SHAPE[0]))
    assert np.array_equal(chaos_answers, clean_answers)
    assert np.array_equal(chaos_answers, local)

    # Every chaos ingredient demonstrably happened and was absorbed.
    assert faults >= 1, "the seeded transport campaign never fired"
    assert chaos_stats["batch_timeouts"] >= 1
    assert chaos_stats["hedged_batches"] >= 1
    assert chaos_stats["worker_failures"] >= 1
    assert chaos_stats["supervised_restarts"] >= 1
    assert chaos_stats["retried_batches"] >= 1

    flat_clean = [l for wave in clean_latencies for l in wave]
    post_fault = [
        l for wave in chaos_latencies[STRAGGLE_WAVE:] for l in wave
    ]
    clean_p50 = percentile(flat_clean, 50) * 1e3
    clean_p99 = percentile(flat_clean, 99) * 1e3
    chaos_p99 = percentile(post_fault, 99) * 1e3
    blip = chaos_p99 / max(clean_p99, 1e-12)
    assert chaos_p99 <= P99_CEILING_MS, (
        f"post-fault p99 {chaos_p99:.1f} ms ({blip:.1f}x the clean p99 "
        f"{clean_p99:.1f} ms) exceeds the {P99_CEILING_MS:.0f} ms "
        f"recovery envelope"
    )

    print(
        f"\ncluster chaos (seed {REPRO_TEST_SEED}): {total} requests, "
        f"{faults} transport faults, 1 straggler, 1 SIGKILL -> 0 lost, "
        f"0 failed, bit-identical; clean p50 {clean_p50:.2f} ms / p99 "
        f"{clean_p99:.2f} ms, post-fault p99 {chaos_p99:.2f} ms "
        f"({blip:.2f}x blip); {chaos_stats['batch_timeouts']} timeouts, "
        f"{chaos_stats['hedged_batches']} hedges, "
        f"{chaos_stats['supervised_restarts']} supervised restart(s), "
        f"{chaos_sheds} sheds (clean {clean_sheds})"
    )

    payload = {
        "benchmark": "cluster_chaos",
        "cpus": CPUS,
        "seed": REPRO_TEST_SEED,
        "requests": total,
        "wave_size": WAVE_SIZE,
        "poisson_rate_rps": POISSON_RATE,
        "batch_timeout_s": BATCH_TIMEOUT,
        "straggle_seconds": STRAGGLE_SECONDS,
        "transport_faults_injected": faults,
        "batch_timeouts": chaos_stats["batch_timeouts"],
        "hedged_batches": chaos_stats["hedged_batches"],
        "retried_batches": chaos_stats["retried_batches"],
        "duplicate_replies": chaos_stats["duplicate_replies"],
        "circuit_opens": chaos_stats["circuit_opens"],
        "worker_failures": chaos_stats["worker_failures"],
        "supervised_restarts": chaos_stats["supervised_restarts"],
        "open_loop_sheds": chaos_sheds,
        "clean_p50_latency_ms": clean_p50,
        "clean_p99_latency_ms": clean_p99,
        "post_fault_p99_latency_ms": chaos_p99,
        "p99_blip": blip,
        "p99_ceiling_ms": P99_CEILING_MS,
        "bit_identical": True,
        "lost_requests": 0,
        "failed_requests": chaos_stats["failed"],
    }
    ARTIFACTS_DIR.mkdir(exist_ok=True)
    (ARTIFACTS_DIR / "cluster_chaos.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True)
    )

    record_row("BENCH_cluster.json", {
        "benchmark": "cluster_chaos",
        "seed": REPRO_TEST_SEED,
        "transport_faults_injected": faults,
        "batch_timeouts": chaos_stats["batch_timeouts"],
        "hedged_batches": chaos_stats["hedged_batches"],
        "supervised_restarts": chaos_stats["supervised_restarts"],
        "p99_blip": round(blip, 2),
        "post_fault_p99_latency_ms": round(chaos_p99, 3),
    })
