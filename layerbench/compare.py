"""``python3 -m layerbench compare A.json B.json``: apply the bounds.

Every (workload, end-to-end metric) pair gets one verdict:

* ``regressed`` / ``improved`` -- B's median is worse / better than A's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` -- the run-to-run spread (quartile distance over A's
  median, the wider side) exceeds the bound and the two sides' runs
  overlap, so the bound cannot be applied;
* ``unchanged`` -- otherwise.

The open loop's wave latencies are per-layer metrics (one commit's runs
spread wider than any bound the driver accepts, see README.md), but they
are what a change to the cluster's wakeups is judged on, so they get a
verdict too (``WATCHED``), at the same 25 %.

``sim_*`` metrics are simulated statistics of a deterministic model: any
difference at all is reported, whatever the bound says.  Exit status is 1
when any pair regressed, 2 when the files do not compare.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence

from .spec import Spec


#: workload -> per-layer metrics that also get a verdict, and their bound.
WATCHED = {
    "cluster_open_loop": {"loadgen.latency_p50_ms": 0.25,
                          "loadgen.latency_p95_ms": 0.25},
}


def _refuse(why: str) -> int:
    print(f"layerbench compare: refused: {why}")
    return 2


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return third - first


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float, exact: bool) -> Dict[str, Any]:
    """Classify one pair from each side's runs."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    #: Share of the base median by which the new median is worse.
    worse = sign * (new_median - base_median) / base_median
    spread = max(_spread(base), _spread(new)) / abs(base_median)
    disjoint = max(base) < min(new) or max(new) < min(base)
    if exact:
        label = "unchanged" if new_median == base_median else \
            ("regressed" if worse > 0 else "improved")
    elif spread > bound and not disjoint:
        label = "unresolved"
    elif worse > bound:
        label = "regressed"
    elif worse < -bound:
        label = "improved"
    else:
        label = "unchanged"
    return {"label": label, "base": base_median, "new": new_median,
            "ratio": new_median / base_median, "spread": spread}


def _values(data: Dict[str, Any], workload: str, metric: str,
            block: str = "end_to_end") -> List[float]:
    return [run["workloads"][workload][block][metric]
            for run in data["runs"]]


def compare(base_path: Path, new_path: Path, spec: Spec) -> int:
    base, new = (json.loads(path.read_text())
                 for path in (base_path, new_path))
    for data, path in ((base, base_path), (new, new_path)):
        if data["benchmark_sha256"] != spec.digest:
            return _refuse(f"{path} was taken under another BENCHMARK.json")
        if data["host"]["seconds"] != spec.run_seconds:
            return _refuse(
                f"{path} measured {data['host']['seconds']} s per pass, "
                f"not run_seconds={spec.run_seconds}")
    for key in ("seed", "usable_cpus"):
        if base["host"][key] != new["host"][key]:
            return _refuse(f"{key} differs: {base['host'][key]} against "
                           f"{new['host'][key]}")
    if len(base["runs"]) != len(new["runs"]):
        return _refuse("the two files hold different numbers of runs")

    counts: Dict[str, int] = {}
    print(f"{'workload':22}{'metric':28}{'verdict':11}"
          f"{'base':>14}{'new':>14}{'new/base':>10}{'spread':>8}{'bound':>7}")
    for workload in spec.workloads:
        pairs = [(metric, "end_to_end", row["better"], row["bound"])
                 for metric, row in spec.end_to_end.items()]
        pairs += [(metric, "per_layer", spec.per_layer[metric]["better"], bound)
                  for metric, bound in WATCHED.get(workload, {}).items()]
        for metric, block, better, bound in pairs:
            result = verdict(
                _values(base, workload, metric, block),
                _values(new, workload, metric, block),
                better, bound, exact=metric.startswith("sim_"))
            counts[result["label"]] = counts.get(result["label"], 0) + 1
            print(f"{workload:22}{metric:28}{result['label']:11}"
                  f"{result['base']:14.6g}{result['new']:14.6g}"
                  f"{result['ratio']:10.4f}{result['spread']:8.3f}"
                  f"{bound:7.3f}")
    runs = len(base["runs"])
    print(f"runs per side: {runs}" + (
        "" if runs >= 4 else
        " (fewer than 4: spread is understated, rerun with --repeat)"))
    print("  ".join(f"{label}: {counts.get(label, 0)}" for label in
                    ("improved", "unchanged", "regressed", "unresolved")))
    return 1 if counts.get("regressed") else 0
