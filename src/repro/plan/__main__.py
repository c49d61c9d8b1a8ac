"""Pretty-print a sample execution plan (``make plan-dump``).

Builds a small multi-tile, multi-slice allocation on one HCT plus a
row-sharded pooled allocation, compiles both, and renders them with
``describe()`` -- a quick way to see what the planner actually derives
for a given geometry.
"""

from __future__ import annotations

import numpy as np

from .backends import BACKENDS, default_backend


def main() -> None:
    from ..core.config import ChipConfig, HctConfig
    from ..core.hct import HybridComputeTile
    from ..runtime.pool import DevicePool

    print("=== Tile-level MvmPlan " + "=" * 40)
    tile = HybridComputeTile(HctConfig.small())
    matrix = (np.arange(32 * 24, dtype=np.int64).reshape(32, 24) % 7) - 3
    handle = tile.set_matrix(matrix, value_bits=3, bits_per_cell=1)
    plan = tile.planner.plan_for(handle, input_bits=3)
    print(plan.describe())

    print()
    print("=== Pool-level ShardedPlan " + "=" * 36)
    pool = DevicePool(
        num_devices=3,
        config=ChipConfig(hct=HctConfig.small(), num_hcts=2),
    )
    big = (np.arange(96 * 16, dtype=np.int64).reshape(96, 16) % 199) - 99
    allocation = pool.set_matrix(big, element_size=8, precision=0)
    sharded = pool.compile(allocation, input_bits=8)
    print(sharded.describe())

    print()
    print(f"registered backends: {tuple(sorted(BACKENDS))} (default: {default_backend()!r})")


if __name__ == "__main__":
    main()
