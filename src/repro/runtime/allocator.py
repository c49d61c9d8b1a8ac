"""HCT allocation for matrices (Section 4.4 runtime support).

``setMatrix()`` takes a matrix, the element size, and a bit-precision scale
and must decide -- without further programmer input -- how many hybrid
compute tiles are needed and how the matrix is tiled across them.  The
allocator implements that policy: matrices are split into HCT-sized blocks
(an HCT's ACE holds 64 analog arrays of 64x64 devices), with the number of
weight slices per value determined by the precision scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.config import HctConfig
from ..errors import AllocationError

__all__ = ["precision_to_bits_per_cell", "MatrixPlacement", "TilePlan", "plan_matrix"]


def precision_to_bits_per_cell(precision: int, element_size: int, max_bits_per_cell: int = 8) -> int:
    """Map the programmer-facing precision scale (0-2) to bits per cell.

    Scale 0 -> 1 bit per device (most precise analog computation),
    scale 1 -> half of the device's maximum, scale 2 -> the maximum
    (Section 4.4).  The result never exceeds the element size.
    """
    if precision not in (0, 1, 2):
        raise AllocationError("precision must be 0, 1, or 2")
    if precision == 0:
        bits = 1
    elif precision == 1:
        bits = max(1, max_bits_per_cell // 2)
    else:
        bits = max_bits_per_cell
    return min(bits, element_size)


@dataclass(frozen=True)
class TilePlan:
    """One HCT-sized block of a larger matrix."""

    hct_slot: int
    row_start: int
    row_end: int
    col_start: int
    col_end: int


@dataclass(frozen=True)
class MatrixPlacement:
    """The full placement of a matrix across HCTs."""

    shape: Tuple[int, int]
    element_size: int
    bits_per_cell: int
    tiles: Tuple[TilePlan, ...]

    @property
    def hcts_needed(self) -> int:
        """Number of hybrid compute tiles the matrix occupies."""
        return len({tile.hct_slot for tile in self.tiles})


def plan_matrix(
    shape: Tuple[int, int],
    element_size: int,
    precision: int,
    hct_config: HctConfig,
) -> MatrixPlacement:
    """Compute how a matrix is tiled over HCTs.

    Each HCT block is sized so that its analog arrays (rows x cols x weight
    slices) fit within one ACE; the runtime then programs one block per HCT.
    """
    rows, cols = shape
    if rows < 1 or cols < 1:
        raise AllocationError("matrix must have positive dimensions")
    ace = hct_config.ace
    bits_per_cell = precision_to_bits_per_cell(precision, element_size)
    slices = -(-element_size // bits_per_cell)
    arrays_per_block = ace.num_arrays
    # A block of (block_rows x block_cols) needs row_tiles*col_tiles*slices arrays.
    max_col_tiles = max(1, arrays_per_block // slices)
    # Search the largest (row_tiles, col_tiles) split that fits in one ACE.
    best_rows, best_cols = 1, 1
    for row_tiles in range(1, arrays_per_block + 1):
        col_tiles = arrays_per_block // (row_tiles * slices)
        if col_tiles < 1:
            break
        if row_tiles * col_tiles > best_rows * best_cols:
            best_rows, best_cols = row_tiles, col_tiles
    block_rows = best_rows * ace.array_rows
    block_cols = best_cols * ace.array_cols

    tiles: List[TilePlan] = []
    slot = 0
    for row_start in range(0, rows, block_rows):
        row_end = min(rows, row_start + block_rows)
        for col_start in range(0, cols, block_cols):
            col_end = min(cols, col_start + block_cols)
            tiles.append(
                TilePlan(
                    hct_slot=slot,
                    row_start=row_start,
                    row_end=row_end,
                    col_start=col_start,
                    col_end=col_end,
                )
            )
            slot += 1
    return MatrixPlacement(
        shape=(rows, cols),
        element_size=element_size,
        bits_per_cell=bits_per_cell,
        tiles=tuple(tiles),
    )
