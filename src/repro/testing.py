"""Deterministic seeding utilities shared by the test and benchmark suites.

All randomness in the repository's suites derives from one knob: the
``REPRO_TEST_SEED`` environment variable (default 12345).  Tests and
chaos/property harnesses obtain generators through :func:`derive_rng`,
which hands out independent, label-keyed streams of the master seed — so
every random matrix, fault schedule, and property case is reproducible
from a single number, and CI can sweep seeds by exporting the variable.

This lives in the library (rather than a ``conftest.py``) so that the
``tests/`` and ``benchmarks/`` trees — and any downstream harness — can
share one implementation without conftest module-name collisions.
"""

from __future__ import annotations

import gc
import hashlib
import os
import sys

import numpy as np

from .core.config import ChipConfig, HctConfig

#: Master seed for every random stream in the test suite.
REPRO_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "12345"))

#: Every steady-state device call the hot-path guard
#: (``tests/test_hot_path.py``) and ``make hotpath`` measure: label ->
#: (shape, element size, input bits, chip config).  The first three are the
#: layerbench ``kernel_paper_shapes`` cells on the default chip (3, 1 and 1
#: tiles); the row band is one device's share of the ``pool_sharded`` matrix,
#: eight ``HctConfig.small()`` tiles, where the per-tile cost of a call shows.
DEVICE_CALL_SHAPES = {
    "resnet_conv": ((144, 16), 6, 7, None),
    "aes_mixcolumns": ((32, 32), 1, 1, None),
    "encoder_projection": ((64, 64), 6, 7, None),
    "row_band_8_tiles": ((128, 16), 4, 4, ChipConfig(hct=HctConfig.small(), num_hcts=8)),
}


def derive_rng(*labels) -> np.random.Generator:
    """An independent generator keyed by ``labels`` under the master seed.

    Same seed + same labels -> bit-identical stream, on any platform; two
    different label tuples -> statistically independent streams.  Calling
    it twice with the same labels intentionally yields identical streams
    (determinism tests rely on that).
    """
    entropy = [REPRO_TEST_SEED] + [
        int.from_bytes(hashlib.sha256(str(label).encode()).digest()[:4], "little")
        for label in labels
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def profiled_calls(function) -> list:
    """Every ``sys.setprofile`` event of ``function()``, as ``(event, name)``.

    ``"call"`` events are the Python-level calls, named after the function
    entered; ``"c_call"`` events are builtins, named after the *calling*
    function.  The closing ``sys.setprofile(None)`` is itself the last
    ``c_call``.  Garbage is collected first and the cyclic collector is off
    while ``function`` runs: a finaliser or weakref callback that happens to
    fire mid-call is not one of the call's frames.
    """
    events = []

    def on_event(frame, event, _arg):
        events.append((event, frame.f_code.co_name))

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(on_event)
    try:
        function()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return events


def server_round(tenants: int, rows: int = 64):
    """The steady-state server round ``make hotpath`` prices and
    ``tests/test_hot_path.py`` budgets, as ``(server, vectors, submit, drain)``.

    ``tenants`` matrices of the ``encoder_projection`` shape on a default
    :class:`~repro.runtime.server.PumServer`; ``submit()`` admits one
    ``submit_batch`` of ``vectors[tenant]`` (``rows`` requests) per tenant
    and returns the futures, ``drain()`` is ``run_until_idle()``.  Two rounds
    have already run, so plans, receipts and batch arenas are warm.
    """
    from .runtime.server import PumServer

    shape, element_size, input_bits, _ = DEVICE_CALL_SHAPES["encoder_projection"]
    rng = np.random.default_rng(11)
    half = 1 << (element_size - 1)
    server = PumServer(num_devices=2, queue_capacity=tenants * rows)
    names = [f"t{tenant}" for tenant in range(tenants)]
    for name in names:
        server.register_matrix(name, rng.integers(-half, half, size=shape),
                               element_size=element_size, input_bits=input_bits)
    vectors = rng.integers(0, 1 << input_bits, size=(tenants, rows, shape[0]),
                           dtype=np.int64)

    def submit():
        return [server.submit_batch(name, block, input_bits=input_bits)
                for name, block in zip(names, vectors)]

    for _ in range(2):
        submit()
        server.run_until_idle()
    return server, vectors, submit, server.run_until_idle
