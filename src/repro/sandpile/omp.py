"""Tiled steppers with OpenMP-style parallel execution.

This module realises assignments 1-2: tile the stencil, run the tiles under
an OpenMP-like scheduling policy, optionally skip steady tiles (lazy).

Two families:

* :class:`TiledStepper` — synchronous and double-buffered: each tile runs a
  registered tile kernel (:func:`~repro.easypap.executor.get_tile_kernel`)
  that gathers from the previous state into the other plane, so tiles are
  mutually independent and any schedule is safe ("can be easily
  parallelized").  :class:`TiledSyncStepper` is its sandpile form
  (``sync_tile_nc`` plus sink accounting); the gallery's ``heat/tiled``
  and ``life/tiled`` variants build it directly with their own kernels.
* :class:`TiledAsyncStepper` — asynchronous: a tile's relaxation writes
  into its one-cell halo, so edge-adjacent tiles conflict.  Following the
  paper's "multi-wave task scheduling policies", tiles are partitioned into
  four checkerboard waves ``(ty % 2, tx % 2)``; tiles within one wave are
  write-disjoint and run in parallel, waves run in sequence.

Per-tile *work* is reported as the task's return value so the simulated
backend places tasks deterministically: a computed sync tile costs its
area (plus a touch overhead), an async tile costs ``rounds x area``.

Both steppers also speak the :class:`~repro.easypap.executor.ProcessBackend`
protocol: when the backend advertises ``uses_processes``, the grid buffers
are rebound onto shared memory at construction and each batch additionally
carries picklable :class:`~repro.easypap.executor.TileTask` specs (closures
cannot cross a process boundary).  Steppers owning such a backend hold
OS resources — call :meth:`close` (or rely on
:func:`~repro.sandpile.simulate.run_to_fixpoint`, which always does).

The synchronous stepper runs the *same* kernel path on every backend: its
in-process closures call the registered kernel on the very ``TileTask``
specs the process workers receive — the path ``repro-check`` certifies.
Change detection happens once per batch by diffing the two planes
(``LazyFlags.mark_from_diff`` when lazy, one ``np.array_equal`` over the
interior otherwise), so kernels return nothing.

**Zero-rebuild batches**: task closures, ``TileTask`` specs, and the
all-tiles ``TaskBatch`` objects are built once at construction and reused
every iteration — only the src/dst plane *parity* alternates (two
pre-built spec lists), so no per-iteration task-spec construction remains
on the hot path.
"""

from __future__ import annotations

import numpy as np

from repro.easypap.executor import SequentialBackend, TaskBatch, TileTask, get_tile_kernel
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import Tile, TileGrid
from repro.sandpile.kernels import async_tile_relax
from repro.sandpile.lazy import LazyFlags

__all__ = ["TiledStepper", "TiledSyncStepper", "TiledAsyncStepper", "wave_partition"]

#: relative cost of merely touching a tile vs. computing one cell
_TOUCH_COST = 1.0


def wave_partition(tiles: list[Tile]) -> list[list[Tile]]:
    """Partition tiles into <= 4 checkerboard waves safe for async updates."""
    waves: dict[tuple[int, int], list[Tile]] = {}
    for t in tiles:
        waves.setdefault((t.ty % 2, t.tx % 2), []).append(t)
    return [waves[k] for k in sorted(waves)]


class TiledStepper:
    """Double-buffered tiled stepper; one batch of *kernel* tile tasks per iteration.

    *kernel* names a registered tile kernel that must be a pure gather:
    read the src plane, write only its own tile on the dst plane (the
    certifier enforces this — see ``repro-check symbolic``).  The two
    planes are indexed 0/1 by the specs; iterations alternate which one is
    the source.  Subclasses hook :meth:`_commit` to account for what an
    iteration moved (the sandpile's sink).
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        lazy: bool = False,
        kernel: str,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0
        scratch = grid.data.copy()
        self._shared = bool(getattr(self.backend, "uses_processes", False))
        if self._shared:
            # move both planes into shared memory so worker processes see them
            plane0, scratch = self.backend.bind_planes(grid.data, scratch)
            grid.swap_buffer(plane0)
        #: the planes the specs index; closures resolve specs against this
        #: very list, so it is updated in place, never rebound
        self._planes = [grid.data, scratch]
        self._src_plane = 0
        # -- zero-rebuild caches: specs, closures, and all-tiles batches per
        # plane parity are built once; iterations only alternate the parity
        fn = get_tile_kernel(kernel)
        self._all_tiles = list(self.tiles)
        self._specs = tuple(
            [TileTask(kernel, src, 1 - src, t) for t in self._all_tiles] for src in (0, 1)
        )
        self._tasks = tuple([self._make_task(fn, s) for s in specs] for specs in self._specs)
        self._full_batches = tuple(
            TaskBatch(tasks, tiles=self._all_tiles, spec=specs)
            for tasks, specs in zip(self._tasks, self._specs)
        )

    def _make_task(self, fn, spec: TileTask):
        planes = self._planes
        cost = _TOUCH_COST + spec.tile.area

        def task() -> float:
            fn(planes, spec)
            return cost

        return task

    def _batch_for(self, active: list[Tile]) -> TaskBatch:
        parity = self._src_plane
        if len(active) == len(self._all_tiles):
            return self._full_batches[parity]
        # lazily-selected partials change shape every iteration: dynamic=True
        # keeps them out of the static-plan LRU and the process backend's
        # resident-batch registry (both keyed on stable batch identity)
        tasks, specs = self._tasks[parity], self._specs[parity]
        return TaskBatch(
            [tasks[t.index] for t in active],
            tiles=active,
            spec=[specs[t.index] for t in active],
            dynamic=True,
        )

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self._planes[:] = [plane.copy() for plane in self._planes]
            self.grid.swap_buffer(self._planes[self._src_plane])
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def _active_tiles(self) -> list[Tile]:
        if self.lazy_flags is None:
            return self._all_tiles
        return self.lazy_flags.active_tiles()

    def _commit(self, src, dst, changed: bool) -> None:
        """Hook run after the planes flip (*dst* is now the live state)."""

    def __call__(self) -> bool:
        src = self._planes[self._src_plane]
        dst = self._planes[1 - self._src_plane]
        active = self._active_tiles()
        self.tiles_computed += len(active)
        self.tiles_skipped += len(self._all_tiles) - len(active)
        # Skipped tiles keep their old contents: copy them wholesale first.
        # (Cheaper: copy everything, then overwrite active tiles.)
        if len(active) < len(self._all_tiles):
            dst[...] = src

        self.backend.run(self._batch_for(active), iteration=self.iterations)

        # one vectorised plane diff per batch replaces per-tile change tests
        if self.lazy_flags is not None:
            self.lazy_flags.mark_from_diff(src, dst)
            changed = self.lazy_flags.advance()
        else:
            changed = not np.array_equal(dst[1:-1, 1:-1], src[1:-1, 1:-1])
        # Swap the planes: dst becomes the live state.
        self.grid.swap_buffer(dst)
        self._src_plane = 1 - self._src_plane
        self._commit(src, dst, changed)
        self.iterations += 1
        return changed


class TiledSyncStepper(TiledStepper):
    """Synchronous tiled sandpile stepper: ``sync_tile_nc`` plus sink accounting."""

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        lazy: bool = False,
    ) -> None:
        super().__init__(grid, tile_size, backend=backend, lazy=lazy, kernel="sync_tile_nc")

    def _commit(self, src, dst, changed: bool) -> None:
        # grains that toppled off the edge: the interior's grain deficit
        if changed:
            self.grid.sink_absorbed += int(src[1:-1, 1:-1].sum()) - int(dst[1:-1, 1:-1].sum())
        self.grid.drain_sink()


class TiledAsyncStepper:
    """Asynchronous tiled stepper with 4-colour wave scheduling.

    Each active tile is relaxed to internal stability in place
    (:func:`async_tile_relax`); grains pushed into a neighbouring tile make
    that tile active next iteration (tracked exactly by comparing the
    neighbour-halo contributions, conservatively via the lazy flags).
    """

    def __init__(
        self,
        grid: Grid2D,
        tile_size: int = 32,
        *,
        backend=None,
        lazy: bool = False,
    ) -> None:
        self.grid = grid
        self.tiles = TileGrid(grid.height, grid.width, tile_size)
        self.backend = backend if backend is not None else SequentialBackend()
        self.lazy_flags = LazyFlags(self.tiles) if lazy else None
        self.iterations = 0
        self.tiles_computed = 0
        self.tiles_skipped = 0
        self._shared = False
        if getattr(self.backend, "uses_processes", False):
            # the async kernel is in-place: a single shared plane suffices
            (plane,) = self.backend.bind_planes(grid.data)
            grid.swap_buffer(plane)
            self._shared = True
        # -- zero-rebuild caches (the async kernel is in-place, so the spec
        # planes never alternate and the all-tiles waves are fully static)
        self._all_tiles = list(self.tiles)
        self._changed_flags: dict[int, bool] = {}
        self._tasks = [self._make_task(t) for t in self._all_tiles]
        self._specs = (
            [TileTask("async_tile_relax", 0, 0, t) for t in self._all_tiles]
            if self._shared
            else None
        )
        self._full_wave_batches: list[TaskBatch] | None = None

    def _make_task(self, tile: Tile):
        def task() -> float:
            rounds = async_tile_relax(self.grid, tile)
            self._changed_flags[tile.index] = rounds > 0
            return _TOUCH_COST + rounds * tile.area
        return task

    def _wave_batch(self, wave: list[Tile], *, dynamic: bool = False) -> TaskBatch:
        spec = [self._specs[t.index] for t in wave] if self._specs is not None else None
        return TaskBatch(
            [self._tasks[t.index] for t in wave], tiles=wave, spec=spec, dynamic=dynamic
        )

    def _wave_batches(self, active: list[Tile]) -> list[TaskBatch]:
        if len(active) == len(self._all_tiles):
            # the full waves are cached whole: stable identities, so the
            # process backend may register them as resident batches
            if self._full_wave_batches is None:
                self._full_wave_batches = [
                    self._wave_batch(w) for w in wave_partition(self._all_tiles)
                ]
            return self._full_wave_batches
        # lazily-selected waves are rebuilt per iteration: dynamic=True keeps
        # them oneshot (no resident-registry churn, no static-plan LRU thrash)
        return [self._wave_batch(w, dynamic=True) for w in wave_partition(active)]

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def _active_tiles(self) -> list[Tile]:
        if self.lazy_flags is None:
            return self._all_tiles
        return self.lazy_flags.active_tiles()

    def __call__(self) -> bool:
        active = self._active_tiles()
        self.tiles_computed += len(active)
        self.tiles_skipped += len(self.tiles) - len(active)
        self._changed_flags.clear()

        for batch in self._wave_batches(active):
            result = self.backend.run(batch, iteration=self.iterations)
            if result.returns is not None:
                for t, rounds in zip(batch.tiles, result.returns):
                    self._changed_flags[t.index] = rounds > 0
        changed = any(self._changed_flags.values())

        if self.lazy_flags is not None:
            for t in active:
                self.lazy_flags.mark(t, self._changed_flags.get(t.index, False))
            self.lazy_flags.advance()
        self.grid.drain_sink()
        self.iterations += 1
        return changed
