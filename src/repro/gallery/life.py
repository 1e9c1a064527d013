"""Conway's Game of Life, the gallery's second assignment.

The Moore (8-neighbour) stencil distinguishes Life from the sandpile's
von Neumann cross: the inferred footprint includes the four diagonal
corner cells, which the hand-written ``_cross_halo`` model deliberately
excludes — a shape only per-kernel inference gets right automatically.

No footprint is declared: ``life_tile`` is certified by symbolic
inference (reads the full 3x3-grown tile rectangle from src, writes its
own tile on dst → race-free, halo radius 1).  States are 0/1 on the
default integer grid; the frame stays dead (absorbing boundary).
"""

from __future__ import annotations

import numpy as np

from repro.easypap.executor import register_tile_kernel
from repro.easypap.grid import Grid2D
from repro.easypap.kernel import register_variant
from repro.sandpile.omp import TiledStepper

__all__ = ["life_tile", "life_step"]


def life_tile(src: np.ndarray, dst: np.ndarray, tile) -> None:
    """Step one tile: count Moore neighbours, apply birth/survival rules."""
    y0 = tile.y0
    y1 = tile.y1
    x0 = tile.x0
    x1 = tile.x1
    ys = slice(y0 + 1, y1 + 1)
    xs = slice(x0 + 1, x1 + 1)
    centre = src[ys, xs]
    n = (
        src[y0:y1, x0:x1] + src[y0:y1, xs] + src[y0:y1, x0 + 2 : x1 + 2]
        + src[ys, x0:x1] + src[ys, x0 + 2 : x1 + 2]
        + src[y0 + 2 : y1 + 2, x0:x1] + src[y0 + 2 : y1 + 2, xs]
        + src[y0 + 2 : y1 + 2, x0 + 2 : x1 + 2]
    )
    dst[ys, xs] = (n == 3) | ((centre == 1) & (n == 2))


def life_step(src: np.ndarray, dst: np.ndarray) -> None:
    """Whole-interior Life step (the ``vec`` variant's kernel)."""
    centre = src[1:-1, 1:-1]
    n = (
        src[:-2, :-2] + src[:-2, 1:-1] + src[:-2, 2:]
        + src[1:-1, :-2] + src[1:-1, 2:]
        + src[2:, :-2] + src[2:, 1:-1] + src[2:, 2:]
    )
    dst[1:-1, 1:-1] = (n == 3) | ((centre == 1) & (n == 2))


def _life_tile_kernel(planes, task) -> None:
    return life_tile(planes[task.src], planes[task.dst], task.tile)


register_tile_kernel("life_tile", _life_tile_kernel)


class _LifeVecStepper:
    """Whole-grid double-buffered Life sweep."""

    def __init__(self, grid: Grid2D) -> None:
        self.grid = grid
        self._scratch = grid.data.copy()

    def __call__(self) -> bool:
        src = self.grid.data
        dst = self._scratch
        life_step(src, dst)
        changed = not np.array_equal(dst[1:-1, 1:-1], src[1:-1, 1:-1])
        self._scratch = self.grid.swap_buffer(self._scratch)
        return changed


@register_variant("life", "vec", description="whole-grid Life step")
def _life_vec(grid: Grid2D, **_opts):
    return _LifeVecStepper(grid)


@register_variant("life", "tiled", description="tiled Life (registry kernel)")
def _life_tiled(grid: Grid2D, *, tile_size: int = 32, backend=None, **_opts):
    return TiledStepper(grid, tile_size, backend=backend, kernel="life_tile")
