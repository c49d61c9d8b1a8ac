"""Dispatch identity, pinned: one sha256 over what the scheduler decided.

A change to the serving tier that is meant to be a pure optimisation must
leave every scheduling decision where it was.  This file replays three
seeded families through :class:`~repro.runtime.server.PumServer` and hashes
everything a caller can observe of the dispatch:

* the 224 ``test_invariants`` schedules (submits, bulk waves, ticks, kills,
  hangs and heals, on the indexed queue or its flat-list oracle);
* seven ``test_scheduling_policies`` random traces under the static, the
  cost-aware and the autotuned policy;
* twelve wave schedules (several tenants, bulk waves of 1-9 rows with SLO
  classes, explicit deadlines and mixed priorities, single submits between
  them, a queue small enough that both admission modes engage) under the
  same three policies.

Per run: every response in the order ``tick()`` returned it, then per
future its id, status, completion tick, batch size, error text, result bytes
and ``energy_pj``; the shed / rejected / failed counters, the batch-fill
histogram, ``zero_copy_batches`` / ``gathered_batches``, and the pool's
merged ledger (totals and both breakdowns).  ``EXPECTED`` was computed at
the commit *before* the wave-granular server (PR 17's parent, ``0d23b53``)
and must not move (it is the same under ``REPRO_BACKEND=reference``); the
streams are derived from ``REPRO_TEST_SEED``, so the test only runs on the
default seed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from test_invariants import NUM_CASES, build_server, random_schedule
from test_scheduling_policies import random_trace

from repro.core import ChipConfig, HctConfig
from repro.runtime import (
    Autotuner,
    CostAwarePolicy,
    DevicePool,
    FaultInjector,
    PumServer,
    StaticBatchingPolicy,
)
from repro.testing import REPRO_TEST_SEED, derive_rng

EXPECTED = {
    "invariants": "09428d7da897cae908016b78693f6b3d85fa6ed4f59621c68b8372a9020556e8",
    "traces": "d084b09b5642f3243a0a74ed346d411d5815e7958861f3bf9061bbddee64227f",
    "waves": "0ad1a2a3ff8b92df8e24396fef14396867711f5ca28add5b1d8dea3cea372311",
}

POLICIES = {
    "static": lambda: StaticBatchingPolicy(8, 6),
    "cost_aware": lambda: CostAwarePolicy(max_batch=8, max_wait_ticks=6),
    "autotuned": lambda: Autotuner(max_batch=8, max_wait_ticks=6, interval_ticks=4),
}
TRACES = 7
WAVE_SCHEDULES = 12

pytestmark = pytest.mark.skipif(
    REPRO_TEST_SEED != 12345, reason="the digest is pinned for the default seed"
)


def record_ticks(server):
    """Log every response ``server.tick()`` returns, in dispatch order."""
    log = []
    tick = server.tick

    def logging_tick():
        responses = tick()
        log.extend(responses)
        return responses

    server.tick = logging_tick
    return log


def absorb(digest, server, log, futures) -> None:
    """Fold one finished run into ``digest``."""
    def put(*values):
        digest.update(repr(values).encode())

    put("dispatch", [response.request_id for response in log])
    for future in futures:
        assert future.done()
        response = future.result(timeout=0)
        put(response.request_id, response.name, response.status,
            response.arrival_tick, response.completion_tick,
            response.batch_size, response.error)
        digest.update(struct.pack("<d", response.energy_pj))
        if response.result is not None:
            result = np.ascontiguousarray(response.result)
            put(str(result.dtype), result.shape)
            digest.update(result.tobytes())
    stats = server.stats
    put("stats", stats.submitted, stats.completed, stats.rejected, stats.shed,
        stats.failed, stats.batches, stats.zero_copy_batches,
        stats.gathered_batches, sorted(stats.batch_fill.items()),
        list(stats.latencies))
    ledger = server.pool.total_ledger()
    put("ledger", ledger.cycles, ledger.energy_pj,
        sorted(ledger.cycle_breakdown.items()),
        sorted(ledger.energy_breakdown.items()))


def invariants_digest() -> str:
    digest = hashlib.sha256()
    for case in range(NUM_CASES):
        rng = derive_rng("invariants", case)
        server = build_server(rng)
        log = record_ticks(server)
        injector = FaultInjector(seed=case).attach(server.pool)
        futures = random_schedule(server, injector, rng)
        server.run_until_idle()
        absorb(digest, server, log, futures)
    return digest.hexdigest()


def traces_digest() -> str:
    digest = hashlib.sha256()
    for index in range(TRACES):
        trace = random_trace(f"digest-{index}", ticks=40)
        for name in sorted(POLICIES):
            server = PumServer(num_devices=2, scheduling=POLICIES[name](),
                               queue_capacity=32)
            server.register_matrix("proj", np.eye(8, dtype=np.int64))
            log = record_ticks(server)
            futures = []
            for wave in trace:
                for vector, kwargs in wave:
                    futures.append(
                        server.submit("proj", vector, input_bits=3, **kwargs))
                server.tick()
            server.run_until_idle()
            absorb(digest, server, log, futures)
    return digest.hexdigest()


def wave_schedule(server, rng, tenants):
    """Bulk waves, single submits and ticks over ``tenants`` matrices."""
    futures = []
    for _ in range(int(rng.integers(30, 50))):
        op = rng.integers(0, 10)
        name = f"t{int(rng.integers(0, tenants))}"
        kwargs = {"priority": int(rng.integers(0, 3))}
        roll = rng.integers(0, 6)
        if roll == 0:
            kwargs["slo"] = "interactive"
        elif roll == 1:
            kwargs["slo"] = "standard"
        elif roll == 2:
            kwargs["deadline"] = server.now + int(rng.integers(1, 5))
        if op <= 4:
            rows = rng.integers(0, 4, size=(int(rng.integers(1, 10)), 4))
            futures.extend(server.submit_batch(name, rows, input_bits=2, **kwargs))
        elif op <= 6:
            futures.append(server.submit(name, rng.integers(0, 4, size=4),
                                         input_bits=2, **kwargs))
        else:
            server.tick()
    return futures


def waves_digest() -> str:
    digest = hashlib.sha256()
    for index in range(WAVE_SCHEDULES):
        for name in sorted(POLICIES):
            rng = derive_rng("digest-waves", index)
            tenants = int(rng.integers(1, 4))
            pool = DevicePool(
                num_devices=2,
                config=ChipConfig(hct=HctConfig.small(), num_hcts=4),
            )
            server = PumServer(
                pool=pool, scheduling=POLICIES[name](),
                queue_capacity=int(rng.integers(6, 24)),
                admission=str(rng.choice(["reject", "shed_lowest"])),
            )
            for tenant in range(tenants):
                server.register_matrix(
                    f"t{tenant}", rng.integers(-4, 4, size=(4, 4)),
                    element_size=4, input_bits=2,
                )
            log = record_ticks(server)
            futures = wave_schedule(server, rng, tenants)
            server.run_until_idle()
            absorb(digest, server, log, futures)
    return digest.hexdigest()


@pytest.mark.parametrize("family, compute", [
    ("invariants", invariants_digest),
    ("traces", traces_digest),
    ("waves", waves_digest),
])
def test_dispatch_digest_is_unchanged(family, compute):
    assert compute() == EXPECTED[family]
