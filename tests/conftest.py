"""Shared fixtures for the DARTH-PUM reproduction test suite.

All randomness in the suite derives from one knob: ``REPRO_TEST_SEED``
(environment variable, default 12345).  Tests obtain generators through
:func:`repro.testing.derive_rng` / the ``make_rng`` fixture, which hand
out independent, label-keyed streams of the master seed -- so every chaos
schedule, property case, and random matrix in the suite is reproducible
from a single number, and the CI chaos job can sweep seeds by exporting
the variable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.core import HctConfig, HybridComputeTile
from repro.digital import BitPipeline
from repro.testing import REPRO_TEST_SEED, derive_rng

# One profile for every property test: the examples are a function of the
# test alone (no random seed), and no wall-clock deadline decides a verdict
# on a shared host.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture(scope="session")
def test_seed() -> int:
    """The suite-wide master seed (``REPRO_TEST_SEED``)."""
    return REPRO_TEST_SEED


@pytest.fixture
def make_rng():
    """Factory fixture: ``make_rng("label")`` -> a derived generator."""
    return derive_rng


@pytest.fixture
def rng():
    """The default deterministic generator (master seed, no label)."""
    return np.random.default_rng(REPRO_TEST_SEED)


@pytest.fixture
def small_pipeline():
    """A 16-bit, 8-row digital pipeline (fast enough for functional tests)."""
    return BitPipeline(depth=16, rows=8, cols=16)


@pytest.fixture
def small_tile():
    """A reduced hybrid compute tile."""
    return HybridComputeTile(HctConfig.small())
