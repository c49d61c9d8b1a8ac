"""``BENCHMARK.json``: the one place names, units and bounds are written."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Workloads whose process is pinned to one CPU before NumPy is imported:
#: their load generator is one thread, and the pool's fan-out threads
#: trade the GIL 2-3x slower across CPUs than on one (see README.md).
PINNED_WORKLOADS = frozenset({
    "kernel_paper_shapes", "pool_sharded", "server_deep_queue",
    "tenant_churn",
})


@dataclass(frozen=True)
class Spec:
    workloads: List[str]
    #: name -> {"unit", "better", "bound"}
    end_to_end: Dict[str, Dict[str, Any]]
    #: name -> {"unit", "better"}
    per_layer: Dict[str, Dict[str, Any]]
    run_seconds: int
    #: sha256 of the file: results taken under different files do not compare.
    digest: str

    @classmethod
    def load(cls, path: Path = BENCHMARK_JSON) -> "Spec":
        raw = path.read_bytes()
        data = json.loads(raw)
        return cls(
            workloads=[row["name"] for row in data["workloads"]],
            end_to_end={row["name"]: row for row in data["end_to_end"]},
            per_layer={row["name"]: row for row in data["per_layer"]},
            run_seconds=int(data["run_seconds"]),
            digest=hashlib.sha256(raw).hexdigest(),
        )
