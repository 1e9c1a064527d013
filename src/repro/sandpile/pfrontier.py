"""Parallel active frontier: dirty-window row bands on resident workers.

PR 3's frontier steppers are ~4x faster than lazy but single-worker; the
process backend is multi-worker but steps the full tile grid.  This module
fuses them: each dispatch covers only the current dirty bounding box,
grown by ``k`` cells (the exactness invariant of the windowed synchronous
step, halo depth ``radius x k``), cut into ``nbands`` full-width
:func:`~repro.easypap.tiling.band_tiles` row bands — one per worker by
default — for every fused step count ``k``, ``k = 1`` included.  The
window is recomputed every dispatch, so work rebalances as the bbox moves.

Key design points:

* **Single live plane + scratch, no parity flip.**  Workers always read
  plane 0 (the live grid) and write plane 1 (scratch) — a pure gather, so
  bands are mutually independent and any schedule is race-free.  After
  the barrier the parent copies the *window* back into the live plane, so
  per-dispatch parent cost is O(window) and the scratch plane never needs
  a full-grid refresh.
* **One resident command per worker.**  Band batches carry a
  :class:`~repro.easypap.executor.BandRule`; the process backend registers
  the rule's ``(kernel, src, dst, k)`` once and each dispatch ships only
  ``(window, nbands, spans)`` — one pipe round trip per worker per
  dispatch, however many cells the window holds.  Batches are flagged
  ``dynamic``: a moving window changes the task count, which must not
  thrash the LRU behind
  :func:`~repro.easypap.schedule.chunk_plan_cached`.
* **Crash recovery intact.**  Dispatch goes through
  ``ProcessBackend.run``, so worker deaths mid-batch are healed by the
  pool rebuild (resident registrations replayed, only missing bands
  re-submitted); the parent-side closures run against the same shared
  planes if the backend degrades to threads.
* **Optional compiled inner loop.**  With ``use_compiled=True`` bands run
  the ``sync_tile_kc`` kernel from :mod:`repro.sandpile.compiled` —
  numba-fused when the ``[compiled]`` extra is installed, bit-identical
  pure NumPy otherwise — instead of ``sync_tile_k``; both reduce to the
  single-step gather at ``k = 1``.
* **Temporal blocking (``k > 1``).**  Bands run the trapezoid kernel for
  ``k`` sub-steps per dispatch.  The changed flag is ``or``-ed with bbox
  liveness because a parallel sandpile can sit on a periodic orbit whose
  period divides ``k`` (``f^k(x) == x`` with ``x`` unstable must not
  report a fixpoint).

``window_log`` records ``(iteration, window, bands)`` per dispatch so the
obs adapter can render the shrinking frontier as counter tracks next to
the worker lanes.
"""

from __future__ import annotations

import repro.sandpile.compiled  # noqa: F401 - registers sync_tile_kc for forked workers
from repro.common.errors import ConfigurationError
from repro.easypap.executor import BandRule, SequentialBackend, TaskBatch, TileTask
from repro.easypap.grid import Grid2D
from repro.easypap.tiling import Tile, band_tiles
from repro.sandpile.compiled import sync_window_k
from repro.sandpile.kernels import Window, grow_window, sync_tile_k_array, unstable_bbox

__all__ = ["ParallelFrontierStepper"]

#: relative cost of merely touching a band vs. computing one cell
_TOUCH_COST = 1.0


class ParallelFrontierStepper:
    """Synchronous frontier stepper dispatching dirty-window bands to a backend.

    Step-for-step equivalent to
    :class:`~repro.sandpile.vectorized.FrontierSyncStepper` (same iteration
    count, same fixpoint, same sink accounting), with the window's row
    bands executed by the backend instead of one monolithic slice update.
    """

    def __init__(
        self,
        grid: Grid2D,
        *,
        backend=None,
        use_compiled: bool = False,
        k: int = 1,
        nbands: int | None = None,
    ) -> None:
        if k < 1:
            raise ConfigurationError(f"fused step count k must be >= 1, got {k}")
        if nbands is not None and nbands < 1:
            raise ConfigurationError(f"nbands must be >= 1, got {nbands}")
        self.grid = grid
        self.backend = backend if backend is not None else SequentialBackend()
        self.k = k
        #: row bands per dispatch; defaults to one band per backend worker
        #: so every worker owns one contiguous strip of the window
        self.nbands = nbands if nbands is not None else max(
            1, getattr(self.backend, "nworkers", 1)
        )
        self.iterations = 0
        self.tiles_computed = 0
        self.window_cells = 0
        #: per-dispatch ``(iteration, window, bands)`` — the obs adapter
        #: turns this into frontier counter tracks
        self.window_log: list[tuple[int, Window, int]] = []
        self.use_compiled = use_compiled
        self._scratch = grid.data.copy()
        self._shared = False
        if getattr(self.backend, "uses_processes", False):
            plane0, plane1 = self.backend.bind_planes(grid.data, self._scratch)
            grid.swap_buffer(plane0)
            self._scratch = plane1
            self._shared = True
        self._kernel = "sync_tile_kc" if use_compiled else "sync_tile_k"
        self._bbox = unstable_bbox(grid.interior)

    def _make_task(self, tile: Tile):
        k = self.k
        if self.use_compiled:
            def task() -> float:
                sync_window_k(self.grid.data, self._scratch, tile.y0, tile.y1, tile.x0, tile.x1, k)
                return _TOUCH_COST + tile.area
        else:
            def task() -> float:
                sync_tile_k_array(self.grid.data, self._scratch, tile, k)
                return _TOUCH_COST + tile.area
        return task

    def _band_batch_for(self, window: Window) -> TaskBatch:
        """The batch over *window* cut into ``nbands`` row bands.

        The batch carries a :class:`~repro.easypap.executor.BandRule`, so
        on the process backend the per-dispatch command is just
        ``(window, nbands, spans)`` against a resident registration; the
        spec/closure lists exist for the thread/sequential paths and for
        the analysis layer's certification of the submitted batch.
        """
        tiles = band_tiles(window, self.nbands)
        kernel = self._kernel
        return TaskBatch(
            [self._make_task(t) for t in tiles],
            tiles=tiles,
            spec=[TileTask(kernel, 0, 1, t, arg=self.k) for t in tiles],
            dynamic=True,
            bands=BandRule(kernel, 0, 1, self.k, window, len(tiles)),
        )

    @property
    def planes(self) -> list:
        """The two framed planes the batches index (0 = live, 1 = scratch)."""
        return [self.grid.data, self._scratch]

    def reset(self) -> None:
        """Rescan the whole grid (e.g. after an external grid edit)."""
        self._bbox = unstable_bbox(self.grid.interior)

    def close(self) -> None:
        """Detach the grid from shared memory and release the backend."""
        if self._shared:
            self.grid.swap_buffer(self.grid.data.copy())
            self._scratch = self._scratch.copy()
            self._shared = False
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "ParallelFrontierStepper":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self) -> bool:
        bbox = self._bbox
        k = self.k
        self.iterations += k
        if bbox is None:
            # no unstable cell anywhere: the synchronous step is the identity
            return False
        grid = self.grid
        window = grow_window(bbox, grid.height, grid.width, k)
        batch = self._band_batch_for(window)
        self.tiles_computed += len(batch)
        self.window_cells += (window[1] - window[0]) * (window[3] - window[2])
        self.window_log.append((self.iterations - k, window, len(batch)))

        self.backend.run(batch, iteration=self.iterations - k)

        # window slices in frame coordinates
        y0, y1, x0, x1 = window
        ys = slice(y0 + 1, y1 + 1)
        xs = slice(x0 + 1, x1 + 1)
        live = grid.data
        new = self._scratch[ys, xs]
        old = live[ys, xs]
        changed = bool((new != old).any())
        if y0 == 0 or x0 == 0 or y1 == grid.height or x1 == grid.width:
            # net window deficit == grains that toppled into the sink frame
            # during all k fused sub-steps (no grain crosses the window rim:
            # activity at sub-step s stays inside the bbox grown by s <= k)
            grid.sink_absorbed += int(old.sum()) - int(new.sum())
        live[ys, xs] = new
        self._bbox = unstable_bbox(grid.interior, window)
        # a parallel sandpile can orbit with period dividing k: state equal
        # after k steps does NOT imply a fixpoint while unstable cells remain
        # (at k = 1 an unchanged window already means no unstable cell)
        return changed or (self._bbox is not None)
