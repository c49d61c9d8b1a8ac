"""The seeded fault framework: one campaign pinned, every bad one typed.

:class:`TestSeededCampaignDigest` hashes what seeded campaigns do on both
tiers, by value:

* (a) the events of every ``TransportFaultSpec.injector_for(worker,
  direction)`` schedule, for three seeds, four workers, both directions, at
  the spec's defaults and at the chaos gate's ``num_events=3,
  horizon_frames=10``;
* (b) the 48-frame campaign of ``test_cluster_chaos.py``'s replay test,
  scheduled through the spec for each seed: the delivery frame by frame,
  the injector's counters, and which byte and bit every ``corrupt`` flipped;
* (c) the ``corrupt`` flips of ``FaultInjector(seed=7)`` over a fixed call
  sequence on two devices, a blocked call among them.

``EXPECTED`` was computed at ``b00e7fe``, before the device and transport
fault families merged into one framework, and must not move.  Its seeds are
fixed, so it holds on every leg of the seed matrix and under both
``REPRO_BACKEND`` values.  Events are read by value -- each field under the
first word of its name (``after_frame`` and ``after`` are both "after") --
so the same test reads either event class.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.errors import ClusterError, DeviceFailedError, ReproError, TransportError
from repro.runtime import FaultEvent, FaultInjector, FaultSchedule
from repro.runtime.cluster import (
    ClusterGateway,
    ShmRing,
    TransportFaultInjector,
    TransportFaultSpec,
)
from repro.runtime.cluster import gateway as gateway_module

SEEDS = (12345, 1, 31337)
SPEC_PARAMS = ({}, {"num_events": 3, "horizon_frames": 10})


def _put(digest, *values) -> None:
    digest.update(("\x1f".join(map(str, values)) + "\n").encode())


def _event_values(event):
    fields = {
        name.split("_")[0]: value
        for name, value in dataclasses.asdict(event).items()
    }
    return fields["mode"], fields["after"], fields["duration"], fields["delay"]


def _campaign(injector, frames=48):
    """Push ``frames`` one-byte SUBMIT frames through ``injector`` on a
    fresh ring, draining after each push; returns the delivery, the
    counters, and ``(frame byte, xor mask)`` of every corrupting flip."""
    ring = ShmRing(capacity=1 << 12)
    flips = []
    push_frame = ring.push_frame

    def recording(parts, damage=None):
        if damage is None:
            return push_frame(parts)

        def record(data, start, length):
            before = bytes(data[start: start + length])
            damage(data, start, length)
            after = bytes(data[start: start + length])
            flips.extend((offset, old ^ new) for offset, (old, new)
                         in enumerate(zip(before, after)) if old != new)

        return push_frame(parts, record)

    ring.push_frame = recording
    injector.attach(ring)
    delivered = []
    try:
        for index in range(frames):
            ring.push([b"\x02" + bytes([index])])
            while True:
                try:
                    frame = ring.pop()
                except TransportError:
                    delivered.append("corrupt")
                    continue
                if frame is None:
                    break
                delivered.append(frame[1])
    finally:
        ring.close()
    counts = (injector.frames_seen, injector.frames_dropped,
              injector.frames_duplicated, injector.frames_delayed,
              injector.frames_corrupted)
    return delivered, counts, flips


class TestSeededCampaignDigest:
    EXPECTED = {
        "schedules": "0145ef1cd8ffdc7d5ac396db9d49cb933487b6b08730b1be0fcff7ecfe0c10d6",
        "campaigns": "24b3329aba912514887666227c7637d9ada4892f317adf75c0f73aa9f6adf2fd",
        "device_flips": "5307f1459ee691eb218237a373880bc5e90b238bb2f4f097f122bc5c2a1d7a95",
    }

    def test_spec_schedules(self):
        digest = hashlib.sha256()
        for seed in SEEDS:
            for params in SPEC_PARAMS:
                spec = TransportFaultSpec(seed=seed, **params)
                for worker in range(4):
                    for direction in ("request", "reply"):
                        injector = spec.injector_for(worker, direction)
                        schedule = injector.schedule
                        _put(digest, seed, spec.num_events,
                             spec.horizon_frames, worker, direction,
                             schedule.seed, injector.seed,
                             sorted(injector.kinds), len(schedule.events))
                        for event in schedule.events:
                            _put(digest, *_event_values(event))
        assert digest.hexdigest() == self.EXPECTED["schedules"]

    def test_campaign_delivery(self):
        digest = hashlib.sha256()
        faulted = 0
        for seed in SEEDS:
            injector = TransportFaultSpec(seed=seed).injector_for(0, "request")
            delivered, counts, flips = _campaign(injector)
            faulted += sum(counts[1:])
            _put(digest, seed, *delivered)
            _put(digest, *counts)
            _put(digest, *flips)
        assert faulted > 0  # the campaigns actually did something
        assert digest.hexdigest() == self.EXPECTED["campaigns"]

    def test_device_corrupt_flips(self):
        injector = FaultInjector(seed=7)
        base = np.arange(24, dtype=np.int64).reshape(4, 6)
        injector.corrupt(0, calls=3)
        injector.corrupt(1, calls=2)
        digest = hashlib.sha256()
        for step, device in enumerate((0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 1)):
            if step == 5:
                injector.hang(1, calls=1)
            if step == 7:
                injector.corrupt(0, calls=2)
                injector.corrupt(1, calls=1)
            try:
                injector.before_call(device)
            except DeviceFailedError as exc:
                _put(digest, step, device, "blocked", exc.kind)
                continue
            out = injector.after_call(device, base)
            changed = np.flatnonzero(out != base)
            _put(digest, step, device, *changed,
                 *(out.reshape(-1)[changed] ^ base.reshape(-1)[changed]))
        _put(digest, injector.results_corrupted, injector.calls_blocked)
        assert injector.results_corrupted == 8
        assert digest.hexdigest() == self.EXPECTED["device_flips"]


# --------------------------------------------------------------------- #
# Every bad campaign raises a typed error where it is written              #
# --------------------------------------------------------------------- #
DEVICE = FaultInjector.MODES
EDGE_CASES = {
    "device": {
        "horizon=0": lambda: FaultSchedule.from_seed(
            1, horizon=0, modes=DEVICE, num_targets=2),
        "modes=()": lambda: FaultSchedule.from_seed(1, modes=(), num_targets=2),
        "num_events=-1": lambda: FaultSchedule.from_seed(
            1, num_events=-1, modes=DEVICE, num_targets=2),
        "unknown mode": lambda: FaultInjector(
            FaultSchedule((FaultEvent("drop"),))),
        "after=-1": lambda: FaultEvent("kill", after=-1, target=1),
        "duration=0": lambda: FaultInjector().hang(0, calls=0),
        "delay=0": lambda: FaultEvent("corrupt", target=1, delay=0),
    },
    "ring": {
        "horizon=0": lambda: TransportFaultSpec(seed=1, horizon_frames=0),
        "modes=()": lambda: TransportFaultSpec(seed=1, modes=()),
        "num_events=-1": lambda: TransportFaultSpec(seed=1, num_events=-1),
        "unknown mode": lambda: TransportFaultInjector(
            FaultSchedule((FaultEvent("kill"),))),
        "after=-1": lambda: FaultEvent("drop", after=-1),
        "duration=0": lambda: TransportFaultInjector().drop(0),
        "delay=0": lambda: TransportFaultInjector().delay_next(1, by=0),
    },
}


@pytest.mark.parametrize("case", list(EDGE_CASES["device"]))
@pytest.mark.parametrize("tier", list(EDGE_CASES))
def test_schedule_edge_inputs_are_typed_on_both_tiers(tier, case):
    with pytest.raises(ReproError) as excinfo:
        EDGE_CASES[tier][case]()
    if case == "unknown mode":  # the message names what the tier accepts
        allowed = DEVICE if tier == "device" else TransportFaultInjector.MODES
        assert str(allowed) in str(excinfo.value)


def test_a_ring_refuses_a_second_injector():
    """As a pool does (``test_chaos.py``): stacked injectors would count
    every frame twice."""
    ring = ShmRing(capacity=1 << 12)
    try:
        first = TransportFaultInjector().attach(ring)
        with pytest.raises(ReproError, match="already has a"):
            TransportFaultInjector().attach(ring)
        assert ring.fault_injector is first  # the conflict left it alone
        first.detach()
        second = TransportFaultInjector().attach(ring)  # detach unblocks
        assert ring.fault_injector is second
    finally:
        ring.close()


@pytest.mark.parametrize("bad", [
    {"modes": ("gremlins",)},
    {"modes": ()},
    {"horizon_frames": 0},
    {"num_events": -1},
])
def test_a_bad_spec_fails_where_it_is_written(bad):
    """A reply-only campaign is armed inside a worker, so a spec that
    cannot be armed must fail here, where it is written."""
    with pytest.raises(ClusterError):
        TransportFaultSpec(seed=1, directions=("reply",), **bad)


def test_a_worker_that_fails_to_start_fails_start_at_once(monkeypatch):
    """The worker's start-up error reaches the READY awaiter as itself
    instead of as a timeout."""
    monkeypatch.setattr(gateway_module, "CONTROL_TIMEOUT", 30.0)

    async def scenario():
        gateway = ClusterGateway(chip="no-such-chip", num_workers=1)
        with pytest.raises(ClusterError, match="failed to start"):
            await gateway.start()

    asyncio.run(scenario())
