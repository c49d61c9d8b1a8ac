"""Dispatch identity, pinned: one sha256 over what the scheduler decided.

A change to the serving tier that is meant to be a pure optimisation must
leave every scheduling decision where it was.  This file replays three
seeded families through :class:`~repro.runtime.server.PumServer` and hashes
everything a caller can observe of the dispatch:

* the 224 ``test_invariants`` schedules (submits, bulk waves, ticks, kills,
  hangs and heals, on the indexed queue or its flat-list oracle);
* seven ``test_scheduling_policies`` random traces under the static and the
  cost-aware policy;
* twelve wave schedules (several tenants, bulk waves of 1-9 rows with SLO
  classes, explicit deadlines and mixed priorities, single submits between
  them, a queue small enough that admission turns rows away) under the same
  two policies.

Per run: every response in the order ``tick()`` returned it, then per
future its id, status, completion tick, batch size, error text, result bytes
and ``energy_pj``; the shed / rejected / failed counters, the batch-fill
histogram, ``zero_copy_batches`` / ``gathered_batches``, and the pool's
merged ledger (totals and both breakdowns).  ``SURVIVING`` was computed at
``3cc8e31``, the commit before a full queue only rejected and the autotuned
policy went: there the families still drew an admission mode per server
(they still do, so no seeded stream shifts), and ``SURVIVING`` hashed the
runs with every server rejecting and without the autotuned policy.  The
pins of the whole families that it replaced dated from ``0d23b53`` (before
the wave-granular server) and ``ca3b0f3`` (integer ledger units).
``SURVIVING_ROUNDED`` hashes the same material through
``digest_text.rendered``, so it holds across a change that moves float
tails only.  Neither may move (both are the same under
``REPRO_BACKEND=reference``); the streams are derived from
``REPRO_TEST_SEED``, so the test only runs on the default seed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from digest_text import rendered
from test_invariants import NUM_CASES, build_server, random_schedule
from test_scheduling_policies import random_trace

from repro.core import ChipConfig, HctConfig
from repro.runtime import (
    CostAwarePolicy,
    DevicePool,
    FaultInjector,
    PumServer,
    StaticBatchingPolicy,
)
from repro.testing import REPRO_TEST_SEED, derive_rng

SURVIVING = {
    "invariants": "61ae79d26d5dd5c53e9a9bddca65fe7115cc845dc8d6c78cab5d8e2e7cb1f8d8",
    "traces": "6f05d937226e101b9006384209e96ae3e03bf62ed69f97e2487dbc3fac5d76d7",
    "waves": "49ce75d85d7026f7253c6fd4170e4e74f852353119d6c654270c878bbe8b589d",
}
#: The sibling: the same material through ``digest_text.rendered``.
SURVIVING_ROUNDED = {
    "invariants": "100d083c429055d98d5f174f454a630f31e0ff98a6c3db18dcc597486eaadb07",
    "traces": "08b10014e500c6287d5d27ab19ff3f0f63784339ad00496ea8f9846e77772a40",
    "waves": "a69e71001c0a9f6c696d923f5ba38bb4d27c581e432e8db7018d8b5bf1a37e3a",
}

POLICIES = {
    "static": lambda: StaticBatchingPolicy(8, 6),
    "cost_aware": lambda: CostAwarePolicy(max_batch=8, max_wait_ticks=6),
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


def absorb(digest, server, log, futures, text=None) -> None:
    """Fold one finished run into ``digest`` (``text``: see
    ``SURVIVING_ROUNDED``)."""
    def put(*values):
        digest.update(repr(values).encode() if text is None else text(values))

    put("dispatch", [response.request_id for response in log])
    for future in futures:
        assert future.done()
        response = future.result(timeout=0)
        put(response.request_id, response.name, response.status,
            response.arrival_tick, response.completion_tick,
            response.batch_size, response.error)
        if text is None:
            digest.update(struct.pack("<d", response.energy_pj))
        else:
            put(response.energy_pj)
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


def invariants_digest(text=None) -> str:
    digest = hashlib.sha256()
    for case in range(NUM_CASES):
        rng = derive_rng("invariants", case)
        server = build_server(rng)
        log = record_ticks(server)
        injector = FaultInjector(seed=case).attach(server.pool)
        futures = random_schedule(server, injector, rng)
        server.run_until_idle()
        absorb(digest, server, log, futures, text)
    return digest.hexdigest()


def traces_digest(text=None) -> str:
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
            absorb(digest, server, log, futures, text)
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


def waves_digest(text=None) -> str:
    digest = hashlib.sha256()
    for index in range(WAVE_SCHEDULES):
        for name in sorted(POLICIES):
            rng = derive_rng("digest-waves", index)
            tenants = int(rng.integers(1, 4))
            pool = DevicePool(
                num_devices=2,
                config=ChipConfig(hct=HctConfig.small(), num_hcts=4),
            )
            queue_capacity = int(rng.integers(6, 24))
            rng.choice(["reject", "shed_lowest"])  # see test_invariants.build_server
            server = PumServer(pool=pool, scheduling=POLICIES[name](),
                               queue_capacity=queue_capacity)
            for tenant in range(tenants):
                server.register_matrix(
                    f"t{tenant}", rng.integers(-4, 4, size=(4, 4)),
                    element_size=4, input_bits=2,
                )
            log = record_ticks(server)
            futures = wave_schedule(server, rng, tenants)
            server.run_until_idle()
            absorb(digest, server, log, futures, text)
    return digest.hexdigest()


@pytest.mark.parametrize("family, compute", [
    ("invariants", invariants_digest),
    ("traces", traces_digest),
    ("waves", waves_digest),
])
def test_surviving_dispatch_digest(family, compute):
    assert compute() == SURVIVING[family]


@pytest.mark.parametrize("family, compute", [
    ("invariants", invariants_digest),
    ("traces", traces_digest),
    ("waves", waves_digest),
])
def test_surviving_dispatch_digest_rounded(family, compute):
    assert compute(rendered) == SURVIVING_ROUNDED[family]
