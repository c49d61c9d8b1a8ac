"""End-to-end cluster tests: gateway + worker processes over shm rings.

Every test but the last two classes spawns real worker processes (fork
start method where the platform has it) against the small chip
configuration, so the whole suite stays in CI-friendly territory while
exercising the actual process boundary: registration fan-out, zero-copy
submission, failover, backpressure, and graceful drain/restart.
``TestReplicaOrder`` and ``TestControlRoundTrip`` script an un-started
gateway instead: routing order and control timeouts need no processes.
"""

import asyncio
import hashlib
import itertools
import os
import signal

import numpy as np
import pytest

from repro.core.config import ChipConfig, HctConfig
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    ClusterError,
    QuantizationError,
)
from repro.runtime.cluster import ClusterGateway
from repro.runtime.cluster import gateway as gateway_module
from repro.runtime.cluster.gateway import _MatrixRecord, _PendingBatch
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


# --------------------------------------------------------------------- #
# Replica order, pinned (no processes)                                    #
# --------------------------------------------------------------------- #
class _StubRing:
    """A request ring that accepts or refuses every frame, and counts them."""

    def __init__(self, accepts):
        self.accepts = accepts
        self.pushes = 0

    def push(self, parts):
        self.pushes += 1
        return self.accepts


class _StubHandle:
    def predicted_cycles(self, n):
        return 10.0 * n


class TestReplicaOrder:
    """Which replica a batch is offered to, in what order, pinned.

    An un-started three-worker gateway with scripted worker state: per case
    ``alive`` x breaker tripped x ``outstanding_cycles`` x ring full, then one
    ``submit_batch``, or ``_retry`` / ``_hedge`` of a batch with a scripted
    ``attempted`` set -- 8 448 cases.  ``EXPECTED`` hashes, per case, the
    order in which ``_dispatch`` was offered workers (a worker offered the
    same batch again counted once), the worker that took the batch, the
    retry / hedge / shed counters, the exception and the parked count; it was
    computed at the commit before the gateway's three sort blocks became
    ``_replicas`` (``ff67030``) and must not move.
    """

    PLACEMENT = [2, 0, 1]
    FLAGS = list(itertools.product([False, True], repeat=3))
    CYCLES = [(0.0, 0.0, 0.0), (5.0, 1.0, 3.0), (2.0, 2.0, 1.0)]
    RING_FULL = [(), (2,), (2, 0), (0, 1, 2)]
    ATTEMPTED = [(), (2,), (0,), (2, 0), (0, 1, 2)]
    EXPECTED = (
        "1d8187220b1021737352c1824cd5fad49693cf7240f895da36c1e3df9cfaa323"
    )

    def scripted_gateway(self, alive, tripped, cycles, ring_full):
        gw = ClusterGateway(num_workers=3, replication=3, batch_timeout=1.0,
                            breaker_cooldown=30.0)
        gw._started = True
        for worker in gw._workers:
            index = worker.worker_id
            worker.alive = alive[index]
            worker.requests = _StubRing(accepts=index not in ring_full)
            worker.outstanding_cycles = cycles[index]
            worker.plan_handles["m"] = _StubHandle()
            if tripped[index]:
                worker.breaker.record_failure()
                worker.breaker.record_failure()
                assert not worker.breaker.allows()
        gw._matrices["m"] = _MatrixRecord(
            fingerprint=("digest",), matrix=np.zeros((4, 4), dtype=np.int64),
            element_size=8, precision=0, input_bits=8,
            placement=list(self.PLACEMENT),
        )
        offered = []
        dispatch = gw._dispatch

        def logging_dispatch(worker, batch):
            offered.append(worker.worker_id)
            return dispatch(worker, batch)

        gw._dispatch = logging_dispatch
        return gw, offered

    async def drive(self, gw, op, attempted):
        """Run one routing call; returns ``(taken_by, exception)``."""
        vectors = np.ones((2, 4), dtype=np.int64)
        if op == "submit":
            try:
                await gw.submit_batch("m", vectors)
            except AdmissionError as exc:
                detail = sorted(exc.worker_ids) \
                    if isinstance(exc, CircuitOpenError) else str(exc)
                return -1, (type(exc).__name__, detail)
            taken = [worker.worker_id for worker in gw._workers
                     if worker.pending]
            return taken[0], None
        loop = asyncio.get_running_loop()
        batch = _PendingBatch(
            batch_id=7, name="m", input_bits=8, vectors=vectors,
            futures=[loop.create_future() for _ in range(2)],
            request_ids=[0, 1], worker_id=-1, cost=20.0,
            attempted=set(attempted),
        )
        if op == "retry":
            assert gw._retry(batch) == (batch.worker_id >= 0)
        else:
            gw._hedge(batch)
        for future in batch.futures:
            future.cancel()
        return batch.worker_id, None

    async def all_cases(self):
        """Yield ``(case, gateway, offered, taken_by, exception)``."""
        for alive, tripped, cycles, ring_full in itertools.product(
                self.FLAGS, self.FLAGS, self.CYCLES, self.RING_FULL):
            calls = [("submit", ())] + [
                (op, attempted) for attempted in self.ATTEMPTED
                for op in ("retry", "hedge")
            ]
            for op, attempted in calls:
                gw, offered = self.scripted_gateway(
                    alive, tripped, cycles, ring_full)
                taken, error = await self.drive(gw, op, attempted)
                case = (alive, tripped, cycles, ring_full, op, attempted)
                yield case, gw, offered, taken, error

    def test_offer_order_is_unchanged(self):
        async def digest():
            sha, cases = hashlib.sha256(), 0
            async for case, gw, offered, taken, error in self.all_cases():
                cases += 1
                stats = gw.stats
                sha.update(repr((
                    case, list(dict.fromkeys(offered)), taken, error,
                    stats.retried_batches, stats.hedged_batches, stats.shed,
                    stats.submitted, stats.batches, len(gw._parked),
                )).encode())
            return cases, sha.hexdigest()

        assert run(digest()) == (8448, self.EXPECTED)

    def test_a_few_rows_by_hand(self):
        """The rank, spelled out: breaker refuses, then already tried, then
        outstanding cycles; placement order breaks ties."""
        healthy, none = (True, True, True), (False, False, False)

        async def offers(op, attempted, tripped=none, cycles=(0.0, 0.0, 0.0)):
            gw, offered = self.scripted_gateway(
                healthy, tripped, cycles, ring_full=(0, 1, 2))
            await self.drive(gw, op, attempted)
            return list(dict.fromkeys(offered))

        async def scenario():
            assert await offers("submit", ()) == [2, 0, 1]
            assert await offers("submit", (), cycles=(5.0, 1.0, 3.0)) == [1, 2, 0]
            assert await offers("submit", (), tripped=(False, False, True)) == [0, 1]
            assert await offers("retry", (2,)) == [0, 1]
            assert await offers("retry", (0,), tripped=(False, True, False)) == [2, 1]
            assert await offers("hedge", (2,)) == [0, 1, 2]
            assert await offers("hedge", (2,), tripped=(True, False, False)) == [1, 2, 0]

        run(scenario())

    def test_hedge_offers_each_ring_the_batch_once(self):
        """A ring that just refused the frame is not offered it again."""

        async def scenario():
            async for case, gw, _, _, _ in self.all_cases():
                if case[4] == "hedge":
                    pushes = [w.requests.pushes for w in gw._workers]
                    assert max(pushes) <= 1, (case, pushes)

        run(scenario())


# --------------------------------------------------------------------- #
# Control round trips, typed (no processes)                               #
# --------------------------------------------------------------------- #
class TestControlRoundTrip:
    """A control request that gets no answer raises ``ClusterError``."""

    def silent_gateway(self, monkeypatch, accepts):
        monkeypatch.setattr(gateway_module, "CONTROL_TIMEOUT", 0.05)
        gw = ClusterGateway(num_workers=1)
        gw._started = True
        gw._workers[0].alive = True
        gw._workers[0].requests = _StubRing(accepts=accepts)
        return gw

    def test_an_unanswered_request_times_out_typed(self, monkeypatch):
        gw = self.silent_gateway(monkeypatch, accepts=True)

        async def scenario():
            with pytest.raises(ClusterError, match="worker 0 .*DRAIN"):
                await gw.drain_worker(0)
            with pytest.raises(ClusterError, match="worker 0 .*STRAGGLE"):
                await gw.induce_straggler(0)
            assert gw._workers[0].requests.pushes == 2
            assert gw._control == {}

        run(scenario())

    def test_a_refused_push_leaves_no_expectation_behind(self, monkeypatch):
        gw = self.silent_gateway(monkeypatch, accepts=False)

        async def scenario():
            with pytest.raises(ClusterError, match="ring is full"):
                await gw.drain_worker(0)
            assert gw._control == {}
            with pytest.raises(ClusterError, match="ring is full"):
                await gw.induce_straggler(0)
            assert gw._control == {}

        run(scenario())
