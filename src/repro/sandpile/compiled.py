"""Optional compiled stencil inner loop (``pip install repro[compiled]``).

The numpy tile kernels are already vectorised, but each slice expression
still materialises temporaries and walks the tile five times.  When numba
is installed (the ``[compiled]`` extra) the synchronous gather is lowered
to one fused scalar loop over the window — the "as fast as the hardware
allows" end of the assignment's optimisation ladder.  Without numba the
module degrades to a pure-NumPy window kernel with identical semantics;
nothing else in the repo may import numba directly, so the dependency
stays strictly optional.

Both paths are exposed through :func:`sync_window_k` and the registered
``sync_tile_kc`` tile kernel: *k* fused synchronous steps with all
intermediate states in stack-local buffers (the compiled analogue of
:func:`~repro.sandpile.kernels.sync_tile_k_array`, the ``sync_tile_k``
kernel).  Tests assert the two implementations are bit-identical, so a
host without numba exercises exactly the semantics a host with numba
ships.
"""

from __future__ import annotations

import numpy as np

from repro.easypap.executor import register_tile_kernel
from repro.easypap.tiling import Tile
from repro.sandpile.kernels import sync_tile_k_array

__all__ = ["HAVE_NUMBA", "sync_window_k"]

try:  # pragma: no cover - exercised only when the [compiled] extra is installed
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False


def sync_window_k_numpy(
    src: np.ndarray, dst: np.ndarray, y0: int, y1: int, x0: int, x1: int, k: int
) -> None:
    """Pure-NumPy fused *k*-step gather of interior window ``[y0:y1, x0:x1]``.

    Delegates to :func:`~repro.sandpile.kernels.sync_tile_k_array`, which
    carries the temporal-blocking trapezoid; this wrapper only adapts the
    window-coordinate signature shared with the compiled path.
    """
    h, w = y1 - y0, x1 - x0
    sync_tile_k_array(src, dst, Tile(0, 0, 0, y0, x0, h, w), k)


if HAVE_NUMBA:  # pragma: no cover - the numpy fallback is what CI measures

    @njit(cache=True, nogil=True)
    def _sync_window_jit(src, dst, y0, y1, x0, x1):  # pragma: no cover
        for y in range(y0 + 1, y1 + 1):
            for x in range(x0 + 1, x1 + 1):
                dst[y, x] = (
                    (src[y, x] & 3)
                    + (src[y, x - 1] >> 2)
                    + (src[y, x + 1] >> 2)
                    + (src[y - 1, x] >> 2)
                    + (src[y + 1, x] >> 2)
                )

    @njit(cache=True, nogil=True)
    def _sync_window_k_jit(src, dst, y0, y1, x0, x1, k):  # pragma: no cover
        H = src.shape[0] - 2
        W = src.shape[1] - 2
        if k == 1:
            _sync_window_jit(src, dst, y0, y1, x0, x1)
            return
        # largest sub-step region: the window grown by k-1, clamped
        gy0 = max(y0 - (k - 1), 0)
        gy1 = min(y1 + (k - 1), H)
        gx0 = max(x0 - (k - 1), 0)
        gx1 = min(x1 + (k - 1), W)
        h = gy1 - gy0
        w = gx1 - gx0
        a = np.zeros((h + 2, w + 2), src.dtype)
        b = np.zeros((h + 2, w + 2), src.dtype)
        # sub-step 1: straight off the global plane (zero frame == sink)
        for y in range(h):
            for x in range(w):
                sy = gy0 + 1 + y
                sx = gx0 + 1 + x
                a[y + 1, x + 1] = (
                    (src[sy, sx] & 3)
                    + (src[sy, sx - 1] >> 2)
                    + (src[sy, sx + 1] >> 2)
                    + (src[sy - 1, sx] >> 2)
                    + (src[sy + 1, sx] >> 2)
                )
        for j in range(2, k):
            s = k - j
            ry0 = max(y0 - s, 0)
            ry1 = min(y1 + s, H)
            rx0 = max(x0 - s, 0)
            rx1 = min(x1 + s, W)
            for y in range(ry0 - gy0 + 1, ry1 - gy0 + 1):
                for x in range(rx0 - gx0 + 1, rx1 - gx0 + 1):
                    b[y, x] = (
                        (a[y, x] & 3)
                        + (a[y, x - 1] >> 2)
                        + (a[y, x + 1] >> 2)
                        + (a[y - 1, x] >> 2)
                        + (a[y + 1, x] >> 2)
                    )
            a, b = b, a
        # final sub-step writes exactly the owned window into dst
        for y in range(y1 - y0):
            for x in range(x1 - x0):
                ly = y0 - gy0 + 1 + y
                lx = x0 - gx0 + 1 + x
                dst[y0 + 1 + y, x0 + 1 + x] = (
                    (a[ly, lx] & 3)
                    + (a[ly, lx - 1] >> 2)
                    + (a[ly, lx + 1] >> 2)
                    + (a[ly - 1, lx] >> 2)
                    + (a[ly + 1, lx] >> 2)
                )

    #: compiled fused k-step window gather (numba temporal blocking)
    sync_window_k = _sync_window_k_jit

else:
    sync_window_k = sync_window_k_numpy


def _sync_tile_kc_kernel(planes, task) -> None:
    t = task.tile
    sync_window_k(planes[task.src], planes[task.dst], t.y0, t.y1, t.x0, t.x1, int(task.arg or 1))


register_tile_kernel("sync_tile_kc", _sync_tile_kc_kernel)
