"""End-to-end cluster tests: gateway + worker processes over shm rings.

Every test spawns real worker processes (fork start method where the
platform has it) against the small chip configuration, so the whole
suite stays in CI-friendly territory while exercising the actual
process boundary: registration fan-out, zero-copy submission, failover,
backpressure, and graceful drain/restart.
"""

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.core.config import ChipConfig, HctConfig
from repro.errors import AdmissionError, ClusterError, QuantizationError
from repro.runtime.cluster import ClusterGateway
from repro.runtime.pool import DevicePool
from repro.runtime.server import PumServer

RNG = np.random.default_rng(11)
MATRIX = RNG.integers(-8, 8, size=(24, 16), dtype=np.int64)
TRACE = RNG.integers(0, 16, size=(40, 24), dtype=np.int64)


def run(coroutine):
    return asyncio.run(coroutine)


def gateway(**kwargs):
    kwargs.setdefault("chip", "small")
    kwargs.setdefault("num_workers", 2)
    return ClusterGateway(**kwargs)


def local_server(num_devices=1):
    pool = DevicePool(
        num_devices=num_devices,
        config=ChipConfig(hct=HctConfig.small(), num_hcts=3),
    )
    return PumServer(pool=pool, queue_capacity=4096)


# --------------------------------------------------------------------- #
# Correctness                                                             #
# --------------------------------------------------------------------- #
def test_results_bit_identical_to_single_server():
    """The cluster answer equals a single-process PumServer's, bit for bit."""

    async def cluster_trace():
        async with gateway(replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE)
            responses = await asyncio.gather(*futures)
            assert all(r.ok for r in responses), \
                [r.error for r in responses if not r.ok]
            return np.stack([r.result for r in responses])

    cluster = run(cluster_trace())
    server = local_server()
    server.register_matrix("w", MATRIX)
    futures = server.submit_batch("w", TRACE)
    server.run_until_idle()
    local = np.stack([f.result().result for f in futures])
    assert np.array_equal(cluster, local)


def test_submit_single_vector():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            future = await gw.submit("w", TRACE[0])
            response = await future
            assert response.ok
            assert response.worker_id == 0
            assert response.latency_ticks >= 0
            return response.result

    result = run(scenario())
    server = local_server()
    server.register_matrix("w", MATRIX)
    future = server.submit("w", TRACE[0])
    server.run_until_idle()
    assert np.array_equal(result, future.result().result)


def test_responses_preserve_row_order_and_ids():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE[:10])
            responses = await asyncio.gather(*futures)
            assert [r.request_id for r in responses] == list(range(10))
            assert all(r.name == "w" for r in responses)

    run(scenario())


# --------------------------------------------------------------------- #
# Placement and registration                                              #
# --------------------------------------------------------------------- #
def test_registration_reuse_is_noop():
    async def scenario():
        async with gateway(replication=2) as gw:
            first = await gw.register_matrix("w", MATRIX)
            again = await gw.register_matrix("w", MATRIX.copy())
            assert first == again
            assert gw.stats.registration_reuses == 1
            # Different bytes re-place and re-program.
            await gw.register_matrix("w", MATRIX + 1)
            assert gw.stats.registration_reuses == 1

    run(scenario())


def test_placement_is_content_deterministic():
    """Rendezvous placement depends only on matrix bytes, not call order."""

    async def placements(names):
        async with gateway(num_workers=2, replication=1, num_hcts=9) as gw:
            result = {}
            for name, offset in names:
                await gw.register_matrix(name, MATRIX + offset)
                result[name] = gw.placement_of(name)
            return result

    forward = run(placements([("a", 0), ("b", 1), ("c", 2)]))
    reverse = run(placements([("c", 2), ("b", 1), ("a", 0)]))
    assert forward == reverse


def test_unregistered_name_is_rejected():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            with pytest.raises(AdmissionError, match="no matrix registered"):
                await gw.submit_batch("ghost", TRACE[:2])

    run(scenario())


def test_plan_handle_crosses_the_wire():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            handle = gw.plan_handle("w")
            assert handle.shape == MATRIX.shape
            assert handle.predicted_cycles(8) > handle.predicted_cycles(1) > 0

    run(scenario())


# --------------------------------------------------------------------- #
# Failure handling                                                        #
# --------------------------------------------------------------------- #
def test_bad_vectors_fail_their_batch_not_the_worker():
    """An out-of-range batch resolves failed; the worker keeps serving."""

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            bad = np.full((3, 24), 999, dtype=np.int64)  # >= 2**8
            futures = await gw.submit_batch("w", bad)
            responses = await asyncio.gather(*futures)
            assert [r.status for r in responses] == ["failed"] * 3
            assert all("QuantizationError" in r.error for r in responses)
            # Floats are refused at the gateway, which would otherwise cast
            # (truncate) them before the worker's server saw the dtype.
            with pytest.raises(QuantizationError, match="must be integers"):
                await gw.submit_batch("w", TRACE[:2] + 0.5)
            with pytest.raises(QuantizationError, match="must be integers"):
                await gw.submit("w", TRACE[0].astype(np.float64))
            # The worker survived and still serves good traffic.
            futures = await gw.submit_batch("w", TRACE[:4])
            responses = await asyncio.gather(*futures)
            assert all(r.ok for r in responses)

    run(scenario())


def test_killed_worker_retries_on_replica_without_losing_futures():
    """Chaos: SIGKILL one holder under load; replicas absorb everything."""

    async def scenario():
        async with gateway(replication=2, heartbeat_interval=0.02) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = []
            rng = np.random.default_rng(5)
            for wave in range(25):
                vectors = rng.integers(0, 16, size=(8, 24), dtype=np.int64)
                futures.extend(await gw.submit_batch("w", vectors))
                if wave == 4:
                    os.kill(gw._workers[0].process.pid, signal.SIGKILL)
                await asyncio.sleep(0.002)
            responses = await asyncio.gather(*futures)
            assert len(responses) == 25 * 8  # every future resolved
            assert all(r.ok for r in responses)
            stats = gw.stats.snapshot()
            assert stats["worker_failures"] == 1
            assert stats["retried_batches"] >= 1
            status = gw.worker_status()
            assert status[0]["alive"] is False
            assert status[1]["alive"] is True

    run(scenario())


def test_killed_worker_without_replica_resolves_failed():
    """With replication=1 the stranded futures fail -- but never hang."""

    async def scenario():
        async with gateway(replication=1, heartbeat_interval=0.02) as gw:
            await gw.register_matrix("w", MATRIX)
            holder = gw.placement_of("w")[0]
            futures = await gw.submit_batch("w", TRACE[:16])
            os.kill(gw._workers[holder].process.pid, signal.SIGKILL)
            responses = await asyncio.wait_for(
                asyncio.gather(*futures), timeout=30
            )
            assert len(responses) == 16
            for response in responses:
                assert response.status in ("completed", "failed")
            # Later traffic for the dead placement is shed to the caller.
            deadline = asyncio.get_running_loop().time() + 30
            while True:
                try:
                    await gw.submit_batch("w", TRACE[:2])
                except AdmissionError:
                    break
                assert asyncio.get_running_loop().time() < deadline

    run(scenario())


# --------------------------------------------------------------------- #
# Backpressure                                                            #
# --------------------------------------------------------------------- #
def test_saturated_windows_shed_to_caller():
    async def scenario():
        async with gateway(num_workers=1, inflight_window=4) as gw:
            await gw.register_matrix("w", MATRIX)
            admitted, shed = [], 0
            for _ in range(10):
                try:
                    admitted.extend(await gw.submit_batch("w", TRACE[:2]))
                except AdmissionError:
                    shed += 1
            assert shed > 0
            assert gw.stats.shed == shed * 2
            responses = await asyncio.gather(*admitted)
            assert all(r.ok for r in responses)

    run(scenario())


def test_batch_larger_than_window_is_rejected_upfront():
    async def scenario():
        async with gateway(num_workers=1, inflight_window=4) as gw:
            await gw.register_matrix("w", MATRIX)
            with pytest.raises(AdmissionError, match="inflight window"):
                await gw.submit_batch("w", TRACE[:8])

    run(scenario())


# --------------------------------------------------------------------- #
# Drain and restart                                                       #
# --------------------------------------------------------------------- #
def test_graceful_drain_returns_worker_stats():
    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            futures = await gw.submit_batch("w", TRACE[:6])
            stats = await gw.drain_worker(0)
            # Drain waited for the inflight window to empty first.
            assert all(future.done() for future in futures)
            assert stats["completed"] == 6.0
            assert stats["batches"] >= 1.0

    run(scenario())


def test_restart_worker_keeps_serving_without_losing_futures():
    async def scenario():
        async with gateway(num_workers=2, replication=2) as gw:
            await gw.register_matrix("w", MATRIX)
            before = await gw.submit_batch("w", TRACE[:8])
            await gw.restart_worker(0)
            assert all(future.done() for future in before)
            resolved = await asyncio.gather(*before)
            assert all(r.ok for r in resolved)
            # The restarted worker was re-registered and serves again.
            after = await asyncio.gather(
                *await gw.submit_batch("w", TRACE[8:16])
            )
            assert all(r.ok for r in after)
            assert gw.stats.restarts == 1
            assert gw.worker_status()[0]["alive"] is True

    run(scenario())


def test_submitting_after_close_raises():
    async def scenario():
        gw = gateway(num_workers=1)
        async with gw:
            await gw.register_matrix("w", MATRIX)
        with pytest.raises(ClusterError, match="not running"):
            await gw.submit_batch("w", TRACE[:2])

    run(scenario())


# --------------------------------------------------------------------- #
# Configuration validation                                                #
# --------------------------------------------------------------------- #
def test_invalid_configuration_is_rejected():
    with pytest.raises(ClusterError, match="at least one worker"):
        ClusterGateway(num_workers=0)
    with pytest.raises(ClusterError, match="replication"):
        ClusterGateway(num_workers=2, replication=3)
    with pytest.raises(ClusterError, match="inflight_window"):
        ClusterGateway(num_workers=1, inflight_window=0)
