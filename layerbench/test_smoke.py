"""Smoke test of the benchmark itself (collected by tier-1, a few seconds).

Runs every workload in-process at 2 % of ``run_seconds`` with the probes'
repetition counts shrunk, and checks the contract rather than any speed:
exactly the names in ``BENCHMARK.json`` come out, with their units; the
simulated statistics repeat exactly; answers are right; and nothing --
shared-memory segment or worker process -- outlives a run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from pathlib import Path

import pytest

from layerbench import harness, probes, workloads
from layerbench.spec import BENCHMARK_JSON, Spec

SPEC = Spec.load()
SMOKE_SECONDS = 0.02 * SPEC.run_seconds
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def small_probes(monkeypatch):
    monkeypatch.setattr(harness, "SEGMENTS", 4)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "EDGE_HOST_SAMPLES", 2)
    monkeypatch.setattr(harness, "LADDER_WAVES", 12)
    monkeypatch.setattr(harness, "REGISTRATION_MATRICES", 2)
    monkeypatch.setattr(harness, "UNPINNED_CALLS", 12)
    monkeypatch.setattr(probes, "BACKEND_REPS", 2)
    monkeypatch.setattr(probes, "MESSAGE_REPS", 10)
    monkeypatch.setattr(workloads._KernelCell, "REFERENCE_SAMPLE", 1)


def _shm_segments():
    shm = Path("/dev/shm")
    return set(os.listdir(shm)) if shm.is_dir() else set()


def _run(workload: str, traced: bool):
    result, tally = harness.run(
        workload, 12345, SMOKE_SECONDS, traced, SPEC,
        sorted(os.sched_getaffinity(0)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and tally["tiers_identical"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def test_benchmark_json_names_and_limits():
    data = json.loads(BENCHMARK_JSON.read_text())
    groups = [data["workloads"], data["end_to_end"], data["per_layer"]]
    for rows, limit in zip(groups, (8, 16, 128)):
        names = [row["name"] for row in rows]
        assert 1 <= len(names) <= limit
        assert len(set(names)) == len(names)
        assert all(NAME.fullmatch(name) for name in names)
    assert all(0 <= row["bound"] <= 0.25 for row in data["end_to_end"])
    setup = SPEC.end_to_end["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", SPEC.workloads)
def test_workload_emits_the_contract(workload):
    before = _shm_segments()
    first = _run(workload, traced=False)
    again = _run(workload, traced=False)
    layers = _run(workload, traced=True)

    for metrics, listed in ((first, SPEC.end_to_end), (layers, SPEC.per_layer)):
        assert list(metrics) == list(listed)
        for name, row in metrics.items():
            assert row["unit"] == listed[name]["unit"]
            assert row["value"] == row["value"], f"{name} is NaN"
    # End-to-end metrics are never 0 (a relative bound needs a base).
    assert all(row["value"] > 0 for row in first.values())
    for name in ("sim_cycles_per_request", "sim_energy_pj_per_request"):
        assert first[name]["value"] == again[name]["value"]
    assert layers["loadgen.wrong"]["value"] == 0
    assert layers["loadgen.spans_dropped"]["value"] == 0

    assert _shm_segments() == before
    assert multiprocessing.active_children() == []
