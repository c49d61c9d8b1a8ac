"""End-to-end cluster tests: gateway + worker processes over shm rings.

Every test before ``TestReplicaOrder`` spawns real worker processes (fork
start method where the platform has it) against the small chip
configuration, so the whole suite stays in CI-friendly territory while
exercising the actual process boundary: registration fan-out, zero-copy
submission, failover, backpressure, and graceful drain/restart.
``TestReplicaOrder`` and the classes after it script an un-started gateway
instead: routing order, control timeouts, what a reply frame does to its
batch, what a wave's responses are and every way a wave resolves need no
processes.
"""

import asyncio
import hashlib
import itertools
import os
import signal
import types

import numpy as np
import pytest
from digest_text import rendered
from layerbench import workloads
from scripted_cluster import StubHandle, StubRing, deliver, results_frame, scripted_worker

from repro.core.config import ChipConfig, HctConfig
from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    ClusterError,
    ExecutionError,
    QuantizationError,
    ReproError,
)
from repro.plan.backends import resolve_backend
from repro.runtime.cluster import ClusterGateway, ShmRing, build_worker_server
from repro.runtime.cluster import gateway as gateway_module
from repro.runtime.cluster.gateway import _MatrixRecord, _PendingBatch, matrix_fingerprint
from repro.runtime.cluster.messages import (
    K_DRAIN,
    K_ERROR,
    K_REGISTER,
    K_REGISTERED,
    K_RESULTS,
    K_SUBMIT,
    decode_message,
    encode_message,
)
from repro.runtime.cluster.worker import WorkerState, _answer, _handle, _serve
from repro.runtime.pool import DevicePool
from repro.runtime.scheduling import StaticBatchingPolicy
from repro.runtime.server import PumServer
from repro.testing import derive_rng

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


def test_killed_worker_retries_on_replica_without_losing_futures(monkeypatch):
    """Chaos: SIGKILL one holder under load; replicas absorb everything."""
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", 0.02)

    async def scenario():
        async with gateway(replication=2) as gw:
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


def test_killed_worker_without_replica_resolves_failed(monkeypatch):
    """With replication=1 the stranded futures fail -- but never hang."""
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", 0.02)

    async def scenario():
        async with gateway(replication=1) as gw:
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
def test_saturated_windows_shed_to_caller(monkeypatch):
    monkeypatch.setattr(gateway_module, "INFLIGHT_WINDOW", 4)

    async def scenario():
        async with gateway(num_workers=1) as gw:
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


def test_batch_larger_than_window_is_rejected_upfront(monkeypatch):
    monkeypatch.setattr(gateway_module, "INFLIGHT_WINDOW", 4)

    async def scenario():
        async with gateway(num_workers=1) as gw:
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
# Wakeups: a doorbell, not a poll timer                                   #
# --------------------------------------------------------------------- #
def test_idle_worker_beats_on_the_heartbeat_period_not_a_poll_timer(monkeypatch):
    """With nothing submitted a worker wakes to beat, and for nothing else."""
    period, window = 0.05, 0.3
    monkeypatch.setattr(gateway_module, "HEARTBEAT_INTERVAL", period)

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await asyncio.sleep(0.1)  # READY is long answered: the worker is idle
            before, _ = gw._board.read(0)
            await asyncio.sleep(window)
            after, _ = gw._board.read(0)
            return after - before

    assert run(scenario()) <= window / period + 2


def test_round_trip_under_the_spawn_start_method(monkeypatch):
    """Rings, board and both doorbells reach a *spawned* worker too."""
    monkeypatch.setattr(gateway_module, "START_METHOD", "spawn")

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            responses = await asyncio.wait_for(
                asyncio.gather(*await gw.submit_batch("w", TRACE[:16])), timeout=60
            )
            return np.stack([r.result for r in responses])

    assert np.array_equal(run(scenario()), TRACE[:16] @ MATRIX)


def test_close_and_restart_leave_no_descriptor_or_reader_behind():
    """``close()`` gives back every pipe end, segment and loop registration:
    20 start/close cycles and a restart end where they began."""

    def open_descriptors():
        return len(os.listdir("/proc/self/fd"))

    async def scenario():
        loop = asyncio.get_running_loop()
        readers = len(loop._selector.get_map())
        counts = []
        for cycle in range(21):
            gw = gateway(num_workers=2)
            await gw.start()
            if cycle == 20:
                await gw.restart_worker(0)
                assert len(loop._selector.get_map()) == readers + 2
            await gw.close()
            del gw
            assert len(loop._selector.get_map()) == readers
            counts.append(open_descriptors())
        # The first cycle starts what lives as long as the process does (the
        # shared-memory resource tracker and its pipe); after it, nothing grows.
        assert counts[1:] == counts[:1] * 20, counts

    run(scenario())


def test_live_gateway_survives_a_malformed_results_frame():
    """A CRC-valid RESULTS frame with three arrays fails *its batch*; the
    replies behind it still resolve and ``close()`` still releases the rings."""

    async def scenario():
        async with gateway(num_workers=1) as gw:
            await gw.register_matrix("w", MATRIX)
            worker = gw._workers[0]
            # While the worker sleeps ahead of the batch it pushes nothing, so
            # the test may stand in as the reply ring's one producer.
            await gw.induce_straggler(0, batches=1, seconds=0.4)
            batch_id = gw._next_batch
            forged = await gw.submit_batch("w", TRACE[:2])
            assert worker.replies.push(encode_message(
                K_RESULTS, {"batch": batch_id, "name": "w"},
                [np.zeros(2, dtype=np.uint8), np.zeros((2, 16), dtype=np.int64),
                 np.zeros(2, dtype=np.int64)],
            ))
            responses = await asyncio.wait_for(asyncio.gather(*forged), timeout=5)
            assert [r.status for r in responses] == ["failed"] * 2
            assert all("malformed RESULTS" in r.error for r in responses)
            good = await asyncio.wait_for(
                asyncio.gather(*await gw.submit_batch("w", TRACE[:4])), timeout=5
            )
            assert all(r.ok for r in good)
            assert gw.stats.transport_errors == 1
            # The straggler's own, late answer to the forged batch: a duplicate.
            assert gw.stats.duplicate_replies == 1

    run(scenario())


# --------------------------------------------------------------------- #
# Configuration validation                                                #
# --------------------------------------------------------------------- #
def test_invalid_configuration_is_rejected():
    with pytest.raises(ClusterError, match="at least one worker"):
        ClusterGateway(num_workers=0)
    with pytest.raises(ClusterError, match="replication"):
        ClusterGateway(num_workers=2, replication=3)


def test_worker_pool_is_the_same_whichever_spec_built_it():
    """A worker's pool has no knobs: the spec the gateway sends (no pool
    keys) and layerbench's twin spec (which still names them, at the values
    they always had) build the same pool."""
    specs = {
        "gateway": ClusterGateway(**workloads.ClusterWorkload.GATEWAY)._spec_base,
        "layerbench": workloads.ClusterWorkload(0).worker_spec(),
    }
    pools = {origin: build_worker_server(spec).pool for origin, spec in specs.items()}
    described = {
        origin: (pool.num_devices, pool.replication, pool.verify, pool._executor)
        for origin, pool in pools.items()
    }
    assert described["gateway"] == described["layerbench"] \
        == (1, 1, "off", resolve_backend(None))


class TestWorkerAdmitsTheWholeWindow:
    """The gateway sends its workers no queue size: a worker's queue holds
    ``build_worker_server``'s default, and that is at least the gateway's
    inflight window, so a worker never rejects a row the gateway admitted
    (a queue smaller than the window would resolve the overflow rows
    ``"rejected"``, which ``GatewayStats`` counts as ``rejected``)."""

    @pytest.fixture(params=["default", "layerbench"])
    def spec(self, request):
        """The spec a default gateway and layerbench's gateway send."""
        keywords = {} if request.param == "default" else workloads.ClusterWorkload.GATEWAY
        return ClusterGateway(**keywords)._spec_base

    def test_the_window_fits_the_worker_queue(self, spec):
        assert gateway_module.INFLIGHT_WINDOW <= build_worker_server(spec).queue_capacity

    def test_a_full_window_wave_has_no_rejected_row(self, spec):
        server = build_worker_server(spec)
        server.register_matrix("m", MATRIX)
        window = gateway_module.INFLIGHT_WINDOW
        vectors = np.resize(TRACE, (window, TRACE.shape[1]))
        reply, (statuses, results, _, _) = _serve(
            server, {"batch": 0, "name": "m", "input_bits": 8}, vectors, lambda: None)
        assert "errors" not in reply
        assert statuses.tolist() == [gateway_module.STATUS_CODES["completed"]] * window
        assert (server.stats.rejected, server.stats.completed) == (0, window)
        assert np.array_equal(results, vectors @ MATRIX)
        server.pool.close()


# --------------------------------------------------------------------- #
# Replica order, pinned (no processes)                                    #
# --------------------------------------------------------------------- #
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

    @pytest.fixture(autouse=True)
    def tripped_breakers_stay_open(self, monkeypatch):
        monkeypatch.setattr(gateway_module, "BREAKER_COOLDOWN", 30.0)
        monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 1.0)

    def scripted_gateway(self, alive, tripped, cycles, ring_full):
        gw = ClusterGateway(num_workers=3, replication=3)
        gw._started = True
        for worker in gw._workers:
            index = worker.worker_id
            worker.alive = alive[index]
            worker.requests = StubRing(accepts=index not in ring_full)
            worker.outstanding_cycles = cycles[index]
            worker.plan_handles["m"] = StubHandle()
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
            futures=gateway_module._WaveFutures(loop, "m", range(2)),
            worker_id=-1, cost=20.0,
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
        gw._workers[0].requests = StubRing(accepts=accepts)
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


# --------------------------------------------------------------------- #
# Reply frames against a scripted gateway (no processes)                  #
# --------------------------------------------------------------------- #
class TestMalformedReplies:
    """A reply that passes its CRC and is still not what it says: its batch
    fails (when it names one), the reader carries on, nothing leaks."""

    def test_forged_frames_fail_their_batch_and_a_good_frame_still_resolves(self):
        from repro.runtime.cluster.messages import _PREFIX
        from repro.runtime.cluster.transport import Doorbell

        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _, context: reported.append(context))
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            worker.replies = ShmRing(capacity=1 << 16, bell=Doorbell())
            loop.add_reader(worker.replies.bell, gw._on_bell, worker)
            try:
                forged = {
                    "three arrays": encode_message(
                        K_RESULTS, {"batch": 0, "name": "m"},
                        [np.zeros(2, dtype=np.uint8), np.ones((2, 16), dtype=np.int64),
                         np.zeros(2, dtype=np.int64)]),
                    "one row for two requests": results_frame(1, 1),
                    "results not a matrix": encode_message(
                        K_RESULTS, {"batch": 2, "name": "m"},
                        [np.zeros(2, dtype=np.uint8), np.ones(2, dtype=np.int64),
                         np.zeros(2, dtype=np.int64), np.zeros(2, dtype=np.float64)]),
                    "errors not an object": results_frame(3, 2, errors=["boom"]),
                }
                for batch_id, (what, frame) in enumerate(forged.items()):
                    futures = await gw.submit_batch("m", TRACE[:2])
                    assert worker.replies.push(frame)
                    responses = await asyncio.wait_for(asyncio.gather(*futures), 5)
                    assert [r.status for r in responses] == ["failed"] * 2, what
                    assert all("malformed RESULTS" in r.error for r in responses)
                    assert gw.stats.transport_errors == batch_id + 1
                assert worker.inflight == 0 and not worker.pending
                # Frames that name no batch: the codec's (``extra`` is a JSON
                # list) and the handler's (REGISTERED without a handle).
                blob = b"[1]"
                assert worker.replies.push(
                    [_PREFIX.pack(K_RESULTS, 0, 0, 0, 0, 0, len(blob), 0, 0), blob])
                assert worker.replies.push(encode_message(K_REGISTERED, {"name": "m"}))
                futures = await gw.submit_batch("m", TRACE[:2])
                assert worker.replies.push(results_frame(4, 2))
                responses = await asyncio.wait_for(asyncio.gather(*futures), 5)
                assert all(r.ok and r.result.tolist() == [1] * 16 for r in responses)
                assert gw.stats.transport_errors == 6
                assert [type(c["exception"]) for c in reported] == [KeyError]
                assert gw.stats.failed == 8 and gw.stats.completed == 2
            finally:
                await gw.close()
            assert worker.replies is None

        run(scenario())

    def test_close_releases_the_transport_whatever_a_task_died_of(self):
        from repro.runtime.cluster.transport import Doorbell

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            ring = ShmRing(capacity=1 << 12, bell=Doorbell())
            scripted_worker(gw).replies = ring

            async def dies():
                raise ValueError("not enough values to unpack")

            gw._tasks = [asyncio.create_task(dies())]
            await asyncio.sleep(0)
            await gw.close()  # does not re-raise, and gets as far as the rings
            assert ring._data is None

        run(scenario())


def test_rows_a_worker_rejected_are_counted_rejected_not_failed():
    """A RESULTS frame's status-3 rows (turned away by the worker's server at
    admission) land in ``GatewayStats.rejected``; ``failed`` keeps only the
    rows that failed.  Scripted: no worker process."""
    names = ["completed", "completed", "shed", "failed", "rejected", "rejected"]

    async def scenario():
        gw = ClusterGateway(num_workers=1)
        worker = scripted_worker(gw)
        try:
            futures = await gw.submit_batch("m", TRACE[:len(names)])
            codes = [gateway_module.STATUS_CODES[name] for name in names]
            deliver(gw, worker, results_frame(gw._next_batch - 1, len(names), statuses=codes))
            return [future.result().status for future in futures], gw.stats
        finally:
            await gw.close()

    statuses, stats = run(scenario())
    assert statuses == names
    assert (stats.completed, stats.shed, stats.failed, stats.rejected) == (2, 1, 1, 2)


class TestErrorRepliesNameTheirBatch:
    """An ERROR reply that loses its batch id strands the batch's riders."""

    def test_a_submit_that_names_no_matrix_is_a_typed_error(self):
        server = local_server()
        server.register_matrix("w", MATRIX)
        with pytest.raises(ReproError, match="no matrix registered"):
            _handle(server, K_SUBMIT, {"batch": 3, "input_bits": 8}, [TRACE[:2]])

    def test_the_batch_id_rides_from_the_prefix_to_the_riders(self):
        from repro.runtime.cluster.worker import _answer

        server = local_server()
        server.register_matrix("w", MATRIX)
        nameless = b"".join(bytes(part) for part in encode_message(
            K_SUBMIT, {"batch": 0, "input_bits": 8}, [TRACE[:2]]))
        # Its prefix decodes and nothing after it does: the array table names
        # a dtype NumPy has never heard of.
        garbled = b"".join(bytes(part) for part in encode_message(
            K_SUBMIT, {"batch": 1, "name": "w", "input_bits": 8}, [TRACE[:2]]
        )).replace(b"<i8", b"<zz", 1)
        replies = [_answer(server, memoryview(frame), lambda: None, WorkerState())
                   for frame in (nameless, garbled)]
        for batch_id, reply, error in zip(
                (0, 1), replies, ("AdmissionError", "TransportError")):
            kind, header, _ = decode_message(memoryview(b"".join(reply)))
            assert (kind, header["batch"]) == (K_ERROR, batch_id)
            assert header["error"].startswith(error)
            assert "trace" not in header  # typed, not the catch-all

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            riders = [await gw.submit_batch("m", TRACE[:2]) for _ in replies]
            for reply in replies:
                gw._on_reply(worker, *decode_message(memoryview(b"".join(reply))))
            return [[future.result() for future in futures] for futures in riders]

        for responses, error in zip(run(scenario()), ("AdmissionError", "TransportError")):
            assert [r.status for r in responses] == ["failed"] * 2
            assert all(r.error.startswith(error) for r in responses)


def test_hedge_jitter_is_seeded_by_batch_and_attempt(monkeypatch):
    """A pure function of ``(batch_id, attempt)`` inside ``[timeout, 1.1 x
    timeout]`` -- no generator built per dispatch."""
    monkeypatch.setattr(gateway_module.time, "monotonic", lambda: 100.0)
    monkeypatch.setattr(np.random, "default_rng", None)  # not on this path
    monkeypatch.setattr(gateway_module, "HEDGE_BACKOFF", 1.0)
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", 2.0)
    gw = ClusterGateway(num_workers=1)

    def headroom(batch_id, attempts):
        batch = _PendingBatch(
            batch_id=batch_id, name="m", input_bits=8, vectors=TRACE[:1], futures=[],
            worker_id=0, cost=0.0, attempts=attempts,
        )
        return gw._attempt_deadline(batch) - 100.0

    table = {(batch_id, attempts): headroom(batch_id, attempts)
             for batch_id in range(64) for attempts in (1, 2, 3, 4)}
    assert all(2.0 <= value <= 2.2 for value in table.values())
    assert table == {key: headroom(*key) for key in table}  # deterministic
    assert len(set(table.values())) == len(table)  # differs per batch and attempt
    assert max(table.values()) - min(table.values()) > 0.15  # and uses the spread
    monkeypatch.setattr(gateway_module, "BATCH_TIMEOUT", None)
    assert gw._attempt_deadline(None) is None


def test_a_float_matrix_is_refused_before_the_registration_memo():
    """``MATRIX + 0.5`` truncates to the live bytes: the gateway refuses it
    instead of answering from its memo, and no worker hears of it."""

    async def scenario():
        gw = ClusterGateway(num_workers=1)
        worker = scripted_worker(gw)
        gw._matrices["m"].fingerprint = matrix_fingerprint(MATRIX, 8, 0)
        with pytest.raises(QuantizationError, match="integer"):
            await gw.register_matrix("m", MATRIX + 0.5)
        assert gw.stats.registration_reuses == 0 and worker.requests.pushes == 0
        assert await gw.register_matrix("m", MATRIX.copy()) == [0]  # the memo
        await gw.close()

    run(scenario())


# --------------------------------------------------------------------- #
# One wave's responses, pinned (no processes)                             #
# --------------------------------------------------------------------- #
class TestWaveEquivalence:
    """What one 12-row wave resolves to, through ``worker._handle`` and
    ``gateway._on_reply``: every ``ClusterResponse`` field, the gateway's
    stats and the worker's window.  ``EXPECTED`` was computed at the commit
    before RESULTS frames were built and resolved per wave (``c5592f7``):
    the all-completed wave takes the vectorised branch on both sides, the
    other two the per-row one, and none of it may move.  It was re-pinned
    over ``ca3b0f3`` when the ledger moved to integer units (the last bits
    of ``energy_pj`` moved); ``ROUNDED``, computed at ``ca3b0f3``, held
    across that move.  Both were re-pinned when ``GatewayStats`` gained
    ``rejected``: with that key dropped and its rows added back to
    ``failed``, the stats hash to the previous pins.
    """

    EXPECTED = {
        "clean": "f77e8270e2b9e11c101a74c09f042a9486350cda28110a70081bebc546dc2206",
        "rejected at admission":
            "013108242cdd4272eacfe51e7efe7df90a678fad417a3b62950a8ca8ad6d835c",
        "failed in the pool":
            "08fcf67d8451b770a9327573ce965538d785be57d576222fbf83cd8b2531693a",
    }
    #: The siblings: the same material through ``digest_text.rendered``.
    ROUNDED = {
        "clean": "521379b7f98cc4c797ec2257f1d200d62f36e54c8f8c7883a79a72608194e177",
        "rejected at admission":
            "5e10cc473b007af7936aed81a484855a282f7d6a90c12395820d51bbc38421b4",
        "failed in the pool":
            "d68ad829e4d141fd2e750feec21520d45901c7f6989acf7b132dfd8b92a67cca",
    }
    STATUSES = {
        "clean": ["completed"] * 12,
        "rejected at admission": ["completed"] * 5 + ["rejected"] * 7,
        "failed in the pool": ["completed"] * 4 + ["failed"] * 4 + ["completed"] * 4,
    }

    def wave(self, queue_capacity, fail_pool_calls=()):
        pool = DevicePool(
            num_devices=1, config=ChipConfig(hct=HctConfig.small(), num_hcts=3))
        server = PumServer(pool=pool, scheduling=StaticBatchingPolicy(4, 1),
                           queue_capacity=queue_capacity)
        server.register_matrix("m", MATRIX)
        calls, execute = [], pool.exec_mvm_batch

        def flaky(*args, **kwargs):
            calls.append(None)
            if len(calls) in fail_pool_calls:
                raise ExecutionError("injected pool failure")
            return execute(*args, **kwargs)

        pool.exec_mvm_batch = flaky

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw, server.plan_handle("m"))
            futures = await gw.submit_batch("m", TRACE[:12])
            reply = _handle(server, K_SUBMIT,
                            {"batch": 0, "name": "m", "input_bits": 8}, [TRACE[:12]])
            frame = memoryview(b"".join(bytes(part) for part in reply))
            gw._on_reply(worker, *decode_message(frame))
            rows = [
                (r.request_id, r.name, r.status,
                 None if r.result is None else r.result.tolist(),
                 r.latency_ticks, r.energy_pj, r.worker_id, r.error)
                for r in (future.result() for future in futures)
            ]
            window = (worker.inflight, worker.outstanding_cycles, len(worker.pending))
            return rows, gw.stats.snapshot(), window

        return run(scenario())

    @pytest.mark.parametrize("label, arguments", [
        ("clean", (4096,)),
        ("rejected at admission", (5,)),
        ("failed in the pool", (4096, (2,))),
    ])
    def test_responses_and_stats_are_unchanged(self, label, arguments):
        rows, stats, window = self.wave(*arguments)
        assert [row[2] for row in rows] == self.STATUSES[label]
        digest = hashlib.sha256(repr((rows, stats, window)).encode()).hexdigest()
        assert digest == self.EXPECTED[label]

    @pytest.mark.parametrize("label, arguments", [
        ("clean", (4096,)),
        ("rejected at admission", (5,)),
        ("failed in the pool", (4096, (2,))),
    ])
    def test_responses_and_stats_rounded(self, label, arguments):
        digest = hashlib.sha256(rendered(self.wave(*arguments))).hexdigest()
        assert digest == self.ROUNDED[label]

    def test_a_wave_with_no_completed_row_is_still_answered(self):
        """Every batch fails in the pool, so the result matrix is ``(12, 0)``
        -- an array with no castable buffer, which used to crash the frame's
        encoding into a batch-less ERROR and strand all twelve riders."""
        rows, stats, window = self.wave(4096, fail_pool_calls=range(1, 4))
        assert [row[2:4] for row in rows] == [("failed", None)] * 12
        assert all(row[7] == "ExecutionError: injected pool failure" for row in rows)
        assert (stats["failed"], stats["completed"], stats["transport_errors"]) == (12, 0, 0)
        assert window == (0, 0.0, 0)


# --------------------------------------------------------------------- #
# A worker's reply bytes, pinned (no processes)                           #
# --------------------------------------------------------------------- #
def frame_of(kind, header, arrays=()):
    return memoryview(b"".join(bytes(part) for part in encode_message(kind, header, arrays)))


class TestWorkerReplyPin:
    """The bytes a worker answers with, frame in, frame out through
    ``worker._answer``: RESULTS columns, error texts, REGISTERED handles and
    the K_DRAIN ACK's stats.  ``EXPECTED`` was computed at ``d743f96``, the
    commit whose worker still queued each SUBMIT on its own ``PumServer``
    and ticked it idle.
    """

    #: Worker A: ``StaticBatchingPolicy(16, 4)``, room for 4096 rows.
    #: Worker B: ``StaticBatchingPolicy(8, 0)``, room for 20 rows.
    #: Worker C: ``paper_default`` noise, ``StaticBatchingPolicy(16, 4)``.
    SPECS = {
        "A": {"chip": "small", "num_hcts": 3, "max_batch": 16, "max_wait_ticks": 4},
        "B": {"chip": "small", "num_hcts": 3, "max_batch": 8, "max_wait_ticks": 0,
              "queue_capacity": 20},
        "C": {"chip": "small", "num_hcts": 3, "noise": "paper_default"},
    }
    EXPECTED = {
        "A: register": "4a073f0a69b58bc17de12aae610eaf59d415a5ec499ba751cacbc083d1f31aee",
        "A: 16 rows": "382e1a82930cbba2212ca58144465a2d23f32495a1028b533edcc37caecb6128",
        "A: ragged tail": "28cee28fd7b514f5e355da5bc6429a53047cd2796a525b2c1c974f1cfe54d3cc",
        "A: empty": "dd73eeb38004304b4f52360410ae82d15d52cb75895aecb3068daddcafe3a3e7",
        "A: failed chunk": "4b1a46933c96161429c43b8366eab483c3616941bd25306abcf971f6e6bd7436",
        "A: out of range": "75106f875b15470e0490927f9a05cc8faefe7876fbf20197485fb9184b239356",
        "A: wrong shape": "e10c8001e97b21a4d059e7f026e7b80f7e1000ae1961d1a8c5638e06d5b722bf",
        "A: duplicate": "382e1a82930cbba2212ca58144465a2d23f32495a1028b533edcc37caecb6128",
        "A: after it": "7972a8627c68a37ff4289bd64de0e1c537169fe162371ef6415c265cd402f240",
        "A: drain": "a2eca5e330702f1bf3469dbc980cf3b40c5b6b00bed39ecaf81332d9b8316ad8",
        "B: register": "4a073f0a69b58bc17de12aae610eaf59d415a5ec499ba751cacbc083d1f31aee",
        "B: past capacity": "f89b885c907fde0bfa32333ff73df4a1d261dbf1b3defb8468ba72024c432c5a",
        "B: at capacity": "83044a1e0e309195450c9dc4cf0c469cc90ac251ef776bf34c682d0104987634",
        "B: drain": "f80344a3dde8b8c55b0b0254e230f4631c34bfcdc4a0ecb3192b9fa5cf8d90bf",
        "C: register": "4a073f0a69b58bc17de12aae610eaf59d415a5ec499ba751cacbc083d1f31aee",
        "C: first wave": "fdc3ba089073f294ba684ddda1892d8538edbf5285df4e734156db022978f9ca",
        "C: second wave": "1638c9de98c1a73094981dc41e1aa8739ac3d8b43e33da2bec42835cbb80a2ac",
        "C: drain": "d03c293914f9cf62e41e66e991ebf6d2a58b0f9f7242830983fa8ac7b8d28972",
    }

    @staticmethod
    def campaign():
        """``{label: sha256 of the reply frame}`` over the three workers."""
        replies = {}
        for worker, spec in TestWorkerReplyPin.SPECS.items():
            server, state = build_worker_server(spec), WorkerState()
            calls, execute = [], server.pool.exec_mvm_batch

            def flaky(*args, **kwargs):
                calls.append(None)
                if failing[0] and len(calls) == failing[0]:
                    raise ExecutionError("injected pool failure")
                return execute(*args, **kwargs)

            failing = [0]
            server.pool.exec_mvm_batch = flaky

            def answer(label, kind, header, arrays=()):
                reply = _answer(server, frame_of(kind, header, arrays),
                                lambda: None, state)
                replies[f"{worker}: {label}"] = hashlib.sha256(
                    b"".join(bytes(part) for part in reply)).hexdigest()

            answer("register", K_REGISTER,
                   {"name": "m", "element_size": 8, "precision": 0, "input_bits": 8},
                   [MATRIX])
            submit = {"name": "m", "input_bits": 8}
            if worker == "A":
                answer("16 rows", K_SUBMIT, {"batch": 0, **submit}, [TRACE[:16]])
                answer("ragged tail", K_SUBMIT, {"batch": 1, **submit}, [TRACE])
                answer("empty", K_SUBMIT, {"batch": 2, **submit}, [TRACE[:0]])
                failing[0] = len(calls) + 2
                answer("failed chunk", K_SUBMIT, {"batch": 3, **submit}, [TRACE])
                failing[0] = 0
                answer("out of range", K_SUBMIT, {"batch": 4, **submit}, [TRACE[:4] + 250])
                answer("wrong shape", K_SUBMIT, {"batch": 5, **submit}, [TRACE[:4, :8]])
                answer("duplicate", K_SUBMIT, {"batch": 0, **submit}, [TRACE[:16]])
                answer("after it", K_SUBMIT, {"batch": 6, **submit}, [TRACE[:3]])
            elif worker == "B":
                answer("past capacity", K_SUBMIT, {"batch": 0, **submit}, [TRACE[:30]])
                answer("at capacity", K_SUBMIT, {"batch": 1, **submit}, [TRACE[:20]])
            else:
                answer("first wave", K_SUBMIT, {"batch": 0, **submit}, [TRACE[:20]])
                answer("second wave", K_SUBMIT, {"batch": 1, **submit}, [TRACE[20:]])
            answer("drain", K_DRAIN, {})
            server.pool.close()
        return replies

    def test_reply_bytes_are_unchanged(self):
        assert self.campaign() == self.EXPECTED


class TestWorkerServesInOnePass:
    """What a SUBMIT leaves behind on the worker once it is answered."""

    SPECS = TestWorkerReplyPin.SPECS

    @pytest.mark.parametrize("worker", sorted(SPECS))
    def test_nothing_holds_the_request_frame(self, worker):
        """The worker reads a SUBMIT's vectors in place: once the answer is
        built, no view of the frame is left (a bytearray with an exported
        buffer refuses to resize), and the reply replays unchanged after the
        frame's bytes are overwritten."""
        server, state = build_worker_server(self.SPECS[worker]), WorkerState()
        _answer(server, frame_of(K_REGISTER, {"name": "m"}, [MATRIX]), lambda: None, state)
        frame = bytearray(frame_of(K_SUBMIT, {"batch": 0, "name": "m", "input_bits": 8},
                                   [TRACE[:30]]))
        reply = _answer(server, memoryview(frame), lambda: None, state)
        first = b"".join(bytes(part) for part in reply)
        frame[:] = bytes(len(frame))
        frame.extend(b"resizable")
        again = _answer(server, frame_of(K_SUBMIT, {"batch": 0}), lambda: None, state)
        assert b"".join(bytes(part) for part in again) == first
        assert decode_message(memoryview(first))[0] == K_RESULTS
        server.pool.close()

    def test_a_chunk_that_crashes_leaves_nothing_queued(self):
        """A non-library error in a wave's second chunk fails the message
        (an ERROR with its trace) and leaves no row behind for the next
        SUBMIT to run: that one is answered with its own rows only."""
        server, state = build_worker_server(self.SPECS["A"]), WorkerState()
        _answer(server, frame_of(K_REGISTER, {"name": "m"}, [MATRIX]), lambda: None, state)
        calls, execute = [], server.pool.exec_mvm_batch

        def crashing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected crash")
            return execute(*args, **kwargs)

        server.pool.exec_mvm_batch = crashing
        submit = {"name": "m", "input_bits": 8}
        crashed = _answer(server, frame_of(K_SUBMIT, {"batch": 0, **submit}, [TRACE]),
                          lambda: None, state)
        kind, header, _ = decode_message(memoryview(b"".join(bytes(p) for p in crashed)))
        assert (kind, header["batch"]) == (K_ERROR, 0)
        assert header["error"] == "RuntimeError: injected crash" and "trace" in header
        assert server.pending == 0
        calls.clear()
        reply = _answer(server, frame_of(K_SUBMIT, {"batch": 1, **submit}, [TRACE[:4]]),
                        lambda: None, state)
        _, _, (statuses, results, latency, _) = decode_message(
            memoryview(b"".join(bytes(p) for p in reply)))
        assert statuses.tolist() == [0] * 4 and latency.tolist() == [4] * 4
        assert np.array_equal(results, TRACE[:4] @ MATRIX) and len(calls) == 1
        server.pool.close()


# --------------------------------------------------------------------- #
# Every way a cluster wave resolves, pinned (no processes)                #
# --------------------------------------------------------------------- #
def holder(gw, batch_id):
    """The worker ``batch_id`` is in flight on."""
    return next(worker for worker in gw._workers if batch_id in worker.pending)


def random_reply(rng, batch_id, rows, codes=(), errors=None):
    """A RESULTS frame of random columns, and those columns."""
    statuses = np.zeros(rows, dtype=np.uint8)
    statuses[:len(codes)] = codes
    arrays = [statuses, rng.integers(-999, 999, size=(rows, 16)),
              rng.integers(0, 64, size=rows), rng.random(rows) * 100]
    header = {"batch": batch_id, "name": "m"}
    if errors:
        header["errors"] = errors
    return arrays, encode_message(K_RESULTS, header, arrays)


async def cluster_wave_campaign(rng):
    """Resolve waves every way the gateway can, on a scripted two-worker
    gateway whose clock only moves when the campaign moves it.

    In order: every row completed; completed, failed, shed, rejected and
    unknown codes with error texts; a malformed RESULTS frame; a duplicated
    RESULTS frame; a wave hedged after a timeout whose first worker answers
    late; a K_ERROR naming the batch; a wave that times out on every attempt;
    a wave parked until it expires; ``close()`` with one wave parked and one
    in flight.  Matrix ``"m"`` is on both workers, ``"n"`` on worker 1 only.
    The real watchdog runs against the scripted clock, so which batch times
    out, and when, is fixed.

    Returns what ``submit_batch`` returned for each wave, the reply that
    resolved it as ``(worker_id, arrays, errors)`` (``None`` when nothing
    did) and the gateway's stats.
    """
    clock = [100.0]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway_module, "time",
                      types.SimpleNamespace(monotonic=lambda: clock[0]))
        # No breaker trips: its cooldown runs on the real clock.
        patch.setattr(gateway_module, "BREAKER_THRESHOLD", 1000)
        patch.setattr(gateway_module, "BATCH_TIMEOUT", 0.02)
        gw = ClusterGateway(num_workers=2, replication=2)
        gw._started = True
        for worker in gw._workers:
            worker.alive = True
            worker.requests = StubRing(accepts=True)
            worker.plan_handles["m"] = worker.plan_handles["n"] = StubHandle()
        for name, placement in (("m", [0, 1]), ("n", [1])):
            gw._matrices[name] = _MatrixRecord(
                fingerprint=(name,), matrix=MATRIX, element_size=8, precision=0,
                input_bits=8, placement=placement,
            )
        gw._tasks = [asyncio.create_task(gw._watchdog())]
        waves, replies = [], []

        async def submit(name, rows):
            waves.append(await gw.submit_batch(
                name, rng.integers(0, 16, size=(rows, 24))))
            replies.append(None)
            batch_id = gw._next_batch - 1
            return batch_id, holder(gw, batch_id)

        def answer(worker, batch_id, rows, codes=(), errors=None):
            arrays, frame = random_reply(rng, batch_id, rows, codes, errors)
            deliver(gw, worker, frame)
            return worker.worker_id, arrays, errors or {}

        async def until(predicate):
            for _ in range(20_000):
                if predicate():
                    return
                await asyncio.sleep(0.001)
            raise AssertionError("the watchdog never got there")

        async def time_out(timeouts):
            clock[0] += 1.0
            await until(lambda: gw.stats.batch_timeouts == timeouts)

        try:
            batch, worker = await submit("m", 16)
            replies[-1] = answer(worker, batch, 16)

            batch, worker = await submit("m", 12)
            codes = rng.choice([0, 1, 2, 3, 255], size=12)
            codes[:5] = [0, 1, 2, 3, 255]
            errors = {str(row): f"row {row} went wrong" for row in range(12)
                      if codes[row] in (1, 3) or row == 0}
            replies[-1] = answer(worker, batch, 12, codes, errors)

            batch, worker = await submit("m", 5)
            deliver(gw, worker, encode_message(
                K_RESULTS, {"batch": batch, "name": "m"},
                random_reply(rng, batch, 5)[0][:3]))

            batch, worker = await submit("m", 7)
            arrays, frame = random_reply(rng, batch, 7)
            deliver(gw, worker, frame)
            deliver(gw, worker, frame)
            replies[-1] = (worker.worker_id, arrays, {})

            batch, first = await submit("m", 9)
            await time_out(1)
            second = holder(gw, batch)
            assert second is not first
            answer(first, batch, 9)  # late: the hedge owns the batch now
            replies[-1] = answer(second, batch, 9)

            batch, worker = await submit("m", 4)
            deliver(gw, worker, encode_message(K_ERROR, {
                "batch": batch, "name": "m",
                "error": "AdmissionError: injected at the worker",
            }))

            await submit("m", 3)
            for timeouts in range(2, 2 + gateway_module.MAX_ATTEMPTS):
                await time_out(timeouts)
            timeouts = 1 + gateway_module.MAX_ATTEMPTS

            ring = gw._workers[1].requests
            await submit("n", 6)
            ring.accepts = False
            await time_out(timeouts + 1)
            assert len(gw._parked) == 1
            clock[0] += 1.0
            await until(lambda: not gw._parked)

            ring.accepts = True
            await submit("n", 8)
            ring.accepts = False
            await time_out(timeouts + 2)
            assert len(gw._parked) == 1
            await submit("m", 10)
        finally:
            await gw.close()
    return waves, replies, gw.stats.snapshot()


def response_fields(response):
    result = b"-" if response.result is None else \
        np.ascontiguousarray(response.result, dtype=np.int64).tobytes()
    return (response.request_id, response.name, response.status, result,
            response.latency_ticks, repr(response.energy_pj), response.worker_id,
            response.error)


class TestClusterWaveResolution:
    """What a caller can read off the waves ``submit_batch`` returned."""

    #: sha256 over every row's ``ClusterResponse`` fields (wave, then row
    #: order) and the gateway's stats after :func:`cluster_wave_campaign` on a
    #: fixed seed, computed at ``4eda68f`` -- the commit before a cluster wave
    #: resolved once -- so it holds on every leg of the seed matrix.  Re-pinned
    #: when ``GatewayStats`` gained ``rejected``; folded back into ``failed``,
    #: the stats hash to the previous pin.
    EXPECTED = "7ba279db0035d900e30581005be82d3adabd2b688d03def938d3728a8c94c124"
    STATUSES = [
        {"completed"}, {"completed", "failed", "shed", "rejected"}, {"failed"},
        {"completed"}, {"completed"}, {"failed"}, {"failed"}, {"failed"},
        {"failed"}, {"failed"},
    ]

    @staticmethod
    def campaign(rng):
        async def scenario():
            waves, replies, stats = await cluster_wave_campaign(rng)
            return [[future.result() for future in wave] for wave in waves], replies, stats

        return run(scenario())

    def test_resolution_digest_is_unchanged(self):
        responses, _, stats = self.campaign(np.random.default_rng(28))
        digest = hashlib.sha256()
        for wave in responses:
            for response in wave:
                digest.update(repr(response_fields(response)).encode())
        digest.update(repr(sorted(stats.items())).encode())
        assert [{r.status for r in wave} for wave in responses] == self.STATUSES
        assert digest.hexdigest() == self.EXPECTED

    def test_the_campaign_under_the_suite_seed(self):
        """Every row resolved once, to what the frame that won said."""
        responses, replies, stats = self.campaign(derive_rng("cluster-wave-resolution"))
        rows = [response for wave in responses for response in wave]
        assert [r.request_id for r in rows] == list(range(len(rows)))
        assert all(r.name == ("n" if index in (7, 8) else "m")
                   for index, wave in enumerate(responses) for r in wave)
        for wave, reply in zip(responses, replies):
            if reply is None:
                assert {r.status for r in wave} == {"failed"}
                assert all(r.result is None and r.error for r in wave)
                continue
            worker_id, (statuses, results, latency, energy), errors = reply
            for row, r in enumerate(wave):
                assert r.status == gateway_module.STATUS_NAMES.get(
                    int(statuses[row]), "failed")
                assert r.ok == (r.result is not None)
                if r.ok:
                    assert r.result.tolist() == results[row].tolist()
                assert (r.latency_ticks, r.energy_pj, r.worker_id, r.error) == (
                    latency[row], energy[row], worker_id, errors.get(str(row)))
        completed = sum(r.ok for r in rows)
        shed = sum(r.status == "shed" for r in rows)
        rejected = sum(r.status == "rejected" for r in rows)
        assert (stats["completed"], stats["shed"], stats["rejected"], stats["failed"]) == (
            completed, shed, rejected, len(rows) - completed - shed - rejected)
        assert (stats["duplicate_replies"], stats["transport_errors"]) == (2, 1)
        assert stats["batch_timeouts"] == 3 + gateway_module.MAX_ATTEMPTS
        assert "malformed RESULTS" in responses[2][0].error
        assert "attempt" in responses[6][0].error
        assert "expired" in responses[7][0].error
        assert [responses[8][0].error, responses[9][0].error] == [
            "gateway closed with requests parked",
            "gateway closed with requests in flight",
        ]

    def test_rows_are_real_asyncio_futures(self):
        """``await``, ``gather``, ``wait`` and done callbacks, before and after
        the wave resolves; a row is one future however often it is asked for."""

        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            wave = await gw.submit_batch("m", TRACE[:8])
            assert len(wave) == 8 and all(asyncio.isfuture(row) for row in wave[:7])
            assert wave[0] is wave[0] and wave[-2] is wave[6]
            assert wave[2:4] == [wave[2], wave[3]] and list(wave)[:7] == wave[:7]
            with pytest.raises(IndexError):
                wave[8]
            fired = []
            wave[0].add_done_callback(fired.append)
            wave[1].add_done_callback(fired.append)
            assert wave[1].remove_done_callback(fired.append) == 1
            first = asyncio.ensure_future(asyncio.wait(
                [wave[2], wave[3]], return_when=asyncio.FIRST_COMPLETED))
            gathered = asyncio.ensure_future(asyncio.gather(*wave[:4]))

            async def awaits(row):
                return await row

            awaited = asyncio.ensure_future(awaits(wave[4]))
            await asyncio.sleep(0)
            assert not any(task.done() for task in (first, gathered, awaited))
            deliver(gw, worker, results_frame(0, 8))
            done, pending = await first
            assert done == {wave[2], wave[3]} and not pending
            responses = await gathered
            assert [r.request_id for r in responses] == [0, 1, 2, 3]
            assert await awaited is wave[4].result()
            assert fired == [wave[0]]
            wave[5].add_done_callback(fired.append)
            assert wave[0].remove_done_callback(fired.append) == 0
            await asyncio.sleep(0)
            assert fired == [wave[0], wave[5]]
            late = wave[7]  # first asked for after the wave resolved
            assert late.done() and late is wave[7]
            early = wave[6].result()
            assert response_fields(late.result())[1:] == response_fields(early)[1:]
            assert (late.result().request_id, early.request_id) == (7, 6)
            assert (early.status, early.latency_ticks, early.energy_pj,
                    early.worker_id, early.error) == ("completed", 2, 0.5, 0, None)
            await gw.close()

        run(scenario())

    def test_a_timed_out_row_is_cancelled_alone(self):
        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            wave = await gw.submit_batch("m", TRACE[:4])
            rows = list(wave)  # every row asked for before the reply
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(wave[1], 0.01)
            assert wave[1].cancelled() and not wave[0].done() and not wave[3].done()
            assert worker.inflight == 4 and rows == list(wave)
            deliver(gw, worker, results_frame(0, 4))
            assert [row.cancelled() for row in wave] == [False, True, False, False]
            assert all(wave[row].result().ok for row in (0, 2, 3))
            assert (worker.inflight, worker.pending) == (0, {})
            assert worker.drained.is_set() and gw.stats.completed == 4
            # A failed wave counts every row failed, the cancelled one too, as
            # a RESULTS frame counts every row by its status: with nothing
            # retried, completed + shed + failed is what was submitted.
            wave = await gw.submit_batch("m", TRACE[:4])
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(wave[2], 0.01)
            deliver(gw, worker, encode_message(K_ERROR, {"batch": 1, "error": "boom"}))
            assert [row.result().error for row in wave[:2]] == ["boom"] * 2
            assert wave[2].cancelled() and gw.stats.failed == 4
            stats = gw.stats
            assert stats.completed + stats.shed + stats.failed == stats.submitted == 8
            await gw.close()

        run(scenario())

    def test_a_duplicate_frame_resolves_no_row_twice(self):
        async def scenario():
            gw = ClusterGateway(num_workers=1)
            worker = scripted_worker(gw)
            wave = await gw.submit_batch("m", TRACE[:3])
            fired = []
            for row in wave[:2]:
                row.add_done_callback(fired.append)
            deliver(gw, worker, results_frame(0, 3))
            first = [row.result() for row in wave[:2]]
            shed = encode_message(K_RESULTS, {"batch": 0, "name": "m"}, [
                np.full(3, 2, dtype=np.uint8), np.zeros((3, 16), dtype=np.int64),
                np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.float64)])
            deliver(gw, worker, shed)
            # A wave settles once.
            assert wave.settle(0, {}, [1] * 3, [None] * 3, [0] * 3, [0.0] * 3) == 0
            await asyncio.sleep(0)
            assert all(row.result() is response for row, response in zip(wave, first))
            assert all(response.ok for response in [*first, wave[2].result()])
            assert sorted(map(id, fired)) == sorted(map(id, wave[:2]))
            assert (gw.stats.completed, gw.stats.shed, gw.stats.duplicate_replies) == (3, 0, 1)
            await gw.close()

        run(scenario())
