"""Heat diffusion (5-point Jacobi), the gallery's first assignment.

``u' = u + alpha * (west + east + north + south - 4u)`` with ``alpha =
0.25`` — the classic iterative stencil, double-buffered like the
synchronous sandpile.  Works on float planes: build the grid with
``Grid2D(h, w, dtype=np.float64)``.

No footprint is declared here: the ``heat_tile`` kernel is certified by
symbolic inference (reads tile + cross halo from src, writes its own tile
on dst → race-free under any schedule, halo radius 1).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.easypap.executor import register_tile_kernel
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import register_variant
from repro.sandpile.omp import TiledStepper

__all__ = ["ALPHA", "heat_tile", "heat_step"]

#: diffusion coefficient; 0.25 is the Jacobi stability limit in 2D
ALPHA = 0.25


def heat_tile(src: np.ndarray, dst: np.ndarray, tile) -> None:
    """Diffuse one tile: gather the 4-point halo from src, write own tile."""
    ys = slice(tile.y0 + 1, tile.y1 + 1)
    xs = slice(tile.x0 + 1, tile.x1 + 1)
    centre = src[ys, xs]
    west = src[ys, tile.x0 : tile.x1]
    east = src[ys, tile.x0 + 2 : tile.x1 + 2]
    north = src[tile.y0 : tile.y1, xs]
    south = src[tile.y0 + 2 : tile.y1 + 2, xs]
    dst[ys, xs] = centre + ALPHA * (west + east + north + south - 4.0 * centre)


def heat_step(src: np.ndarray, dst: np.ndarray) -> None:
    """Whole-interior diffusion step (the ``vec`` variant's kernel)."""
    centre = src[1:-1, 1:-1]
    dst[1:-1, 1:-1] = centre + ALPHA * (
        src[1:-1, :-2] + src[1:-1, 2:] + src[:-2, 1:-1] + src[2:, 1:-1] - 4.0 * centre
    )


def _heat_tile_kernel(planes, task) -> None:
    return heat_tile(planes[task.src], planes[task.dst], task.tile)


register_tile_kernel("heat_tile", _heat_tile_kernel)


def _require_float(grid: Grid2D) -> None:
    if not np.issubdtype(grid.data.dtype, np.floating):
        raise ConfigurationError(
            f"heat diffusion needs a float grid (got {grid.data.dtype}); "
            f"build it with Grid2D(h, w, dtype=np.float64)"
        )


class _HeatVecStepper:
    """Whole-grid double-buffered Jacobi sweep."""

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self._scratch = grid.data.copy()

    def __call__(self) -> bool:
        src = self.grid.data
        dst = self._scratch
        heat_step(src, dst)
        changed = not np.array_equal(dst[1:-1, 1:-1], src[1:-1, 1:-1])
        self._scratch = self.grid.swap_buffer(self._scratch)
        return changed


@register_variant("heat", "vec", description="whole-grid Jacobi diffusion step")
def _heat_vec(grid: Grid2D, **_opts):
    _require_float(grid)
    return _HeatVecStepper(grid)


@register_variant("heat", "tiled", description="tiled Jacobi diffusion (registry kernel)")
def _heat_tiled(grid: Grid2D, *, tile_size: int = 32, backend=None, **_opts):
    _require_float(grid)
    return TiledStepper(grid, tile_size, backend=backend, kernel="heat_tile")
