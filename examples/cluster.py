"""Scale-out serving: worker processes + shared-memory rings + asyncio.

Demonstrates the cluster tier (:mod:`repro.runtime.cluster`): an asyncio
:class:`ClusterGateway` spawns device workers as separate OS processes
(each owning its own chips and ``PumServer`` shard), places matrices on
them by rendezvous-hashing the content digest, streams request vectors
through zero-copy shared-memory rings, and resolves one asyncio future
per request.  The walk-through covers replicated placement, a batch
submission, the per-worker telemetry, a graceful drain/restart, and a
deliberately unhealthy worker being survived via replica failover.

Run with:  python examples/cluster.py   (or: make cluster-demo)
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np

from repro.runtime.cluster import ClusterGateway


async def main() -> None:
    rng = np.random.default_rng(0)
    matrix = rng.integers(-8, 8, size=(24, 16), dtype=np.int64)

    async with ClusterGateway(
        num_workers=2,          # one process (and one GIL) per worker
        replication=2,          # every matrix lives on two workers
        chip="small",           # fast functional chip configuration
    ) as gateway:
        # ------------------------------------------------------------- #
        # 1. Placement: rendezvous-hashed on the matrix content digest.  #
        # ------------------------------------------------------------- #
        placement = await gateway.register_matrix("ranker", matrix,
                                                  input_bits=4)
        print(f"'ranker' placed on workers {placement} "
              f"(replication={gateway.replication})")
        handle = gateway.plan_handle("ranker")
        print(f"cost handle over the wire: {handle.predicted_cycles(1):.0f} "
              f"cycles/request, {handle.predicted_cycles(16):.0f} for a "
              f"16-batch")

        # ------------------------------------------------------------- #
        # 2. Submit a batch; each row resolves its own asyncio future.   #
        # ------------------------------------------------------------- #
        vectors = rng.integers(0, 16, size=(32, 24), dtype=np.int64)
        futures = await gateway.submit_batch("ranker", vectors, input_bits=4)
        responses = await asyncio.gather(*futures)
        print(f"completed {sum(r.ok for r in responses)}/{len(responses)} "
              f"requests; first row -> {responses[0].result[:4]}... "
              f"on worker {responses[0].worker_id}")

        # ------------------------------------------------------------- #
        # 3. Graceful drain + restart: no futures lost, matrices replayed.#
        # ------------------------------------------------------------- #
        await gateway.restart_worker(placement[0])
        responses = await asyncio.gather(
            *await gateway.submit_batch("ranker", vectors[:8], input_bits=4)
        )
        print(f"after restarting worker {placement[0]}: "
              f"{sum(r.ok for r in responses)}/8 completed "
              f"(restarts={gateway.stats.restarts})")

        # ------------------------------------------------------------- #
        # 4. Chaos: SIGKILL one replica holder mid-load and keep serving.#
        # ------------------------------------------------------------- #
        futures = await gateway.submit_batch("ranker", vectors, input_bits=4)
        victim = placement[0]
        os.kill(gateway._workers[victim].process.pid, signal.SIGKILL)
        responses = await asyncio.gather(*futures)
        print(f"killed worker {victim} under load: "
              f"{sum(r.ok for r in responses)}/{len(responses)} still "
              f"completed via the surviving replica "
              f"(retried_batches={gateway.stats.retried_batches})")

        for status in gateway.worker_status():
            print(f"  worker {status['worker']}: alive={status['alive']} "
                  f"quarantined={status['quarantined']} "
                  f"matrices={status['matrices']}")
        print(f"gateway stats: {gateway.stats.snapshot()}")


if __name__ == "__main__":
    asyncio.run(main())
