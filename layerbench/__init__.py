"""layerbench: the repo's benchmark, measured from outside the program.

Six workloads drive one tier each of the DARTH-PUM serving stack
(backend kernel, device pool, ``PumServer``, tenant churn, and the
cluster gateway open- and closed-loop), report six end-to-end metrics
untraced, and explain them with per-layer metrics from a separate
traced pass.  Names, units, directions and regression bounds live in
``BENCHMARK.json`` at the repo root; ``README.md`` beside this file is
the glossary.

    python3 -m layerbench --workload pool_sharded --seed 7 --seconds 10 --trace 0
    python3 -m layerbench --seed 12345 --out layerbench/results/latest.json
    python3 -m layerbench compare A.json B.json

Nothing here is imported by ``src/``: layers are timed through their
public functions only.
"""
