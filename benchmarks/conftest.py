"""Shared fixtures for the benchmark harness (one benchmark per table/figure)."""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).parent.parent


def pytest_collection_modifyitems(items):
    """Keep benchmarks in figure/table order for readable reports."""
    items.sort(key=lambda item: item.nodeid)


@pytest.fixture(scope="session")
def profiles():
    """Workload profiles shared by every figure benchmark."""
    from repro.eval import workload_profiles

    return workload_profiles()


@pytest.fixture(scope="session")
def host() -> dict:
    """The ROADMAP's host block: what a timing in a trajectory ran on.

    ``commit`` names the measured code: ``+dirty`` means ``src/`` differs
    from that commit (a change recorded before it was committed).
    """

    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ("git", "-C", str(REPO_ROOT)) + args,
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    commit = git("rev-parse", "--short", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src"):
        commit += "+dirty"
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
    }


@pytest.fixture(scope="session")
def record_row(host):
    """``record_row(filename, row)``: the one writer of ``BENCH_*.json``.

    Appends ``row`` -- stamped with the time and the :func:`host` block --
    to the repo-root trajectory ``filename``, but only when
    ``REPRO_BENCH_RECORD=1`` (the CI benchmark jobs): a plain tier-1 run
    leaves every trajectory untouched, so the files do not grow without
    bound.
    """

    def record(filename: str, row: dict) -> None:
        if os.environ.get("REPRO_BENCH_RECORD") != "1":
            return
        path = REPO_ROOT / filename
        trajectory = json.loads(path.read_text()) if path.exists() else []
        trajectory.append(
            {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **row, **host}
        )
        path.write_text(json.dumps(trajectory, indent=2) + "\n")

    return record
