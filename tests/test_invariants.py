"""Property-based conservation harness: randomized submit/kill/tick schedules.

The library cannot depend on hypothesis, so this is a hand-rolled property
harness: each case derives an independent RNG stream from the suite's
master seed (``REPRO_TEST_SEED``), generates a random server configuration
(indexed queue or its flat-list oracle, replication, admission mode,
batching knobs) and a random operation schedule (single submits, bulk
waves, ticks, device kills, hangs and heals), runs it, and checks the
*conservation invariant*:

    every submitted request id reaches exactly one terminal state
    (completed, rejected, shed, or failed), the stats counters agree
    with the futures, and the queue is empty at the end.

This must hold for ANY schedule -- including ones that kill every device
(batches then resolve as failed rather than wedging the scheduler).  The
case count (200+) and per-case seeds are fixed, so a failure reproduces by
running the named case alone; sweeping ``REPRO_TEST_SEED`` in CI explores
fresh schedules without touching the code.
"""

from __future__ import annotations

import numpy as np
import pytest
from flat_queue import install as install_flat_queue

from repro.testing import derive_rng
from repro.core import ChipConfig, HctConfig
from repro.runtime import DevicePool, FaultInjector, PumServer, StaticBatchingPolicy

#: Randomized schedules checked per master seed (the acceptance criterion
#: asks for 200+).
NUM_CASES = 224

ROWS = 4
STATUSES = ("completed", "rejected", "shed", "failed")


def build_server(rng):
    """A random small-but-real serving stack."""
    num_devices = int(rng.integers(1, 4))
    replication = int(rng.integers(1, num_devices + 1))
    pool = DevicePool(
        num_devices=num_devices,
        config=ChipConfig(hct=HctConfig.small(), num_hcts=2),
        replication=replication,
        policy=str(rng.choice(["round_robin", "least_loaded", "cache_affinity"])),
    )
    server = PumServer(
        pool=pool,
        scheduling=StaticBatchingPolicy(
            max_batch=int(rng.integers(1, 5)),
            max_wait_ticks=int(rng.integers(0, 4)),
        ),
        queue_capacity=int(rng.integers(2, 10)),
        admission=str(rng.choice(["reject", "shed_lowest"])),
    )
    # Always drawn, so the rest of the seeded schedule does not shift.
    if rng.choice(["flat", "indexed"]) == "flat":
        install_flat_queue(server)
    matrix = rng.integers(-4, 4, size=(ROWS, ROWS))
    server.register_matrix("m", matrix, element_size=4, input_bits=2)
    return server


def random_schedule(server, injector, rng):
    """Run a random op sequence; returns every future handed out."""
    futures = []
    num_devices = server.pool.num_devices
    for _ in range(int(rng.integers(8, 25))):
        op = rng.integers(0, 10)
        if op <= 3:  # single submit
            futures.append(server.submit(
                "m",
                rng.integers(0, 4, size=ROWS),
                input_bits=2,
                priority=int(rng.integers(0, 3)),
                deadline=(
                    server.now + int(rng.integers(1, 6))
                    if rng.integers(0, 3) == 0 else None
                ),
            ))
        elif op <= 5:  # bulk wave
            futures.extend(server.submit_batch(
                "m",
                rng.integers(0, 4, size=(int(rng.integers(1, 5)), ROWS)),
                input_bits=2,
                priority=int(rng.integers(0, 3)),
            ))
        elif op <= 7:  # advance the clock
            server.tick()
        elif op == 8:  # fault: kill or hang someone
            device = int(rng.integers(0, num_devices))
            if rng.integers(0, 2):
                injector.kill(device)
            else:
                injector.hang(device, calls=int(rng.integers(1, 3)))
        else:  # heal someone (possibly never faulted: heal is idempotent)
            injector.heal(int(rng.integers(0, num_devices)))
    return futures


@pytest.mark.parametrize("case", range(NUM_CASES))
def test_conservation_under_random_schedules(case):
    rng = derive_rng("invariants", case)
    server = build_server(rng)
    injector = FaultInjector(seed=case).attach(server.pool)
    futures = random_schedule(server, injector, rng)
    server.run_until_idle()

    # Conservation: every id handed out is terminal, exactly once, with a
    # known status; nothing is left pending; the stats agree.
    assert server.pending == 0
    assert len({f.request_id for f in futures}) == len(futures)
    counts = dict.fromkeys(STATUSES, 0)
    for future in futures:
        assert future.done(), f"request {future.request_id} never resolved"
        response = future.result(timeout=0)
        assert response.status in STATUSES
        counts[response.status] += 1
    stats = server.stats
    assert stats.submitted == len(futures)
    assert counts["completed"] == stats.completed
    assert counts["rejected"] == stats.rejected
    assert counts["shed"] == stats.shed
    assert counts["failed"] == stats.failed
    assert stats.submitted == stats.completed + stats.rejected \
        + stats.shed + stats.failed

    # Completed responses carry real results; terminal non-completions
    # carry none.  Spot-check correctness where the run stayed clean.
    for future in futures:
        response = future.result(timeout=0)
        if response.status == "completed":
            assert response.result is not None
            assert response.result.shape == (ROWS,)
        else:
            assert response.result is None
