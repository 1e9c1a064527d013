"""Kernel gallery: stencil assignments beyond the sandpile.

Each gallery module registers a tile kernel with
:func:`~repro.easypap.executor.register_tile_kernel` and variants with
:func:`~repro.easypap.kernel.register_variant` — and deliberately does
*not* hand-declare a footprint: gallery kernels are certified purely by
the symbolic interpreter (:mod:`repro.analysis.symbolic`), which is the
point of the gallery — a new assignment kernel is sound to race-check the
moment it is registered, with zero analysis boilerplate.

Importing this package registers everything:

* ``heat``: 5-point Jacobi heat diffusion (``vec``, ``tiled`` variants)
* ``life``: Conway's Game of Life, Moore neighbourhood (``vec``, ``tiled``)

The ``tiled`` variants build the sandpile's double-buffered
:class:`~repro.sandpile.omp.TiledStepper` with their own registered
kernel, so they run on every executor backend — sequential, simulated,
threads and real worker processes — bit-identically.
"""

from repro.gallery import heat, life  # noqa: F401  (registration imports)

__all__ = ["heat", "life"]
