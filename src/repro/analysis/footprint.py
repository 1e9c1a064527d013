"""Per-task memory footprints: which cells a tile kernel reads and writes.

The race checker's unit of reasoning is the :class:`Footprint` — the exact
set of ``(plane, y, x)`` cells a task may *read* and may *write* during one
application, expressed in framed-array coordinates (the ``(H+2, W+2)``
planes the executors operate on, sink frame included).

Footprints come from three sources, recorded in :attr:`Footprint.source`:

* **Declarations** (``source="declared"``) — every tile kernel registered
  with :func:`~repro.easypap.executor.register_tile_kernel` may declare its
  footprint via :func:`declare_footprint`; declarations are data-independent
  upper bounds ("may read/may write"), which is what makes the static
  checker sound: if declared footprints do not overlap, no execution can
  race.  This module ships declarations for the three stock kernels
  (``sync_tile``, ``sync_tile_nc``, ``async_tile_relax``) and the compiled
  and fused families built on them.
* **Symbolic inference** (``source="inferred"``) — undeclared kernels are
  analyzed by the abstract interpreter in :mod:`repro.analysis.symbolic`,
  which derives the may-sets from the kernel's own slice expressions.  An
  inferred footprint is as sound as a declaration (it covers every path the
  abstract domain can represent), so gallery kernels need no hand model.
* **Shadow tracing** (``source="traced"``) — only when inference *refuses*
  a kernel is it executed once on instrumented
  :class:`~repro.analysis.shadow.ShadowPlane` arrays filled with unstable
  cells, and the observed access windows become the footprint.  Tracing
  observes *one* execution, so it is a heuristic discovery aid; the
  fallback is never silent — :func:`footprint_for` emits a warning naming
  the refusal reason.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import KernelError
from repro.easypap.executor import TileTask

__all__ = [
    "Cell",
    "Footprint",
    "rect_cells",
    "declare_footprint",
    "declared_footprint",
    "footprint_for",
    "sync_tile_footprint",
    "sync_tile_k_footprint",
    "async_tile_relax_footprint",
]

#: One cell of one plane: ``(plane index, framed row, framed column)``.
Cell = tuple[int, int, int]


def rect_cells(plane: int, y0: int, y1: int, x0: int, x1: int) -> set[Cell]:
    """All cells of *plane* in the half-open rectangle ``[y0:y1, x0:x1]``."""
    return {(plane, y, x) for y in range(y0, y1) for x in range(x0, x1)}


@dataclass(frozen=True)
class Footprint:
    """May-read / may-write cell sets of one task application.

    ``source`` records provenance — ``"declared"`` (hand model),
    ``"inferred"`` (symbolic interpreter), ``"traced"`` (shadow execution),
    or ``"observed"`` (raw shadow recording).  It is excluded from
    equality/hashing: two footprints with the same cells are the same
    footprint, which is exactly what the declared-vs-inferred verifier
    compares.
    """

    reads: frozenset[Cell]
    writes: frozenset[Cell]
    source: str = field(default="declared", compare=False)

    @staticmethod
    def of(reads: set[Cell], writes: set[Cell], source: str = "declared") -> "Footprint":
        """Build from plain sets."""
        return Footprint(frozenset(reads), frozenset(writes), source)

    @property
    def touched(self) -> frozenset[Cell]:
        """Every cell the task may access, regardless of kind."""
        return self.reads | self.writes

    def union(self, other: "Footprint") -> "Footprint":
        """Combined footprint of running both tasks."""
        source = self.source if self.source == other.source else "mixed"
        return Footprint(self.reads | other.reads, self.writes | other.writes, source)

    def conflicts_with(self, other: "Footprint") -> dict[str, frozenset[Cell]]:
        """Overlap cells by conflict kind; empty sets mean independence.

        ``write-write`` — both tasks may write the cell;
        ``read-write``  — one may read what the other may write.
        """
        ww = self.writes & other.writes
        rw = (self.reads & other.writes) | (self.writes & other.reads)
        return {"write-write": frozenset(ww), "read-write": frozenset(rw - ww)}

    def independent_of(self, other: "Footprint") -> bool:
        """True when the two tasks may run concurrently without racing."""
        c = self.conflicts_with(other)
        return not c["write-write"] and not c["read-write"]


# -- declared footprints of the stock tile kernels --------------------------------


def _tile_frame_rect(plane: int, tile) -> set[Cell]:
    """The tile's interior cells in framed coordinates."""
    return rect_cells(plane, tile.y0 + 1, tile.y1 + 1, tile.x0 + 1, tile.x1 + 1)


def _cross_halo(plane: int, tile) -> set[Cell]:
    """The four one-cell halo bands a 4-point stencil reaches around *tile*.

    These are exactly the four shifted rectangles the kernels slice:
    west/east bands span the tile's rows, north/south bands its columns
    (corners excluded — the 4-point stencil never touches them).
    """
    cells = rect_cells(plane, tile.y0 + 1, tile.y1 + 1, tile.x0, tile.x1)            # west
    cells |= rect_cells(plane, tile.y0 + 1, tile.y1 + 1, tile.x0 + 2, tile.x1 + 2)   # east
    cells |= rect_cells(plane, tile.y0, tile.y1, tile.x0 + 1, tile.x1 + 1)           # north
    cells |= rect_cells(plane, tile.y0 + 2, tile.y1 + 2, tile.x0 + 1, tile.x1 + 1)   # south
    return cells


def sync_tile_footprint(task: TileTask, shape: tuple[int, int]) -> Footprint:
    """``sync_tile``/``sync_tile_nc``: pure gather from src, scatter to dst tile.

    Reads the tile plus its cross halo from the source plane; writes only
    the tile interior of the destination plane.  Tiles are therefore
    write-disjoint by construction — the sync family's race-freedom claim.
    """
    t = task.tile
    reads = _tile_frame_rect(task.src, t) | _cross_halo(task.src, t)
    writes = _tile_frame_rect(task.dst, t)
    return Footprint.of(reads, writes)


def async_tile_relax_footprint(task: TileTask, shape: tuple[int, int]) -> Footprint:
    """``async_tile_relax``: in-place relaxation spilling into the halo.

    The kernel repeatedly topples inside the tile and *adds* surplus grains
    into the one-cell cross halo — a read-modify-write of the halo bands on
    the same plane it reads.  Two edge-adjacent tiles therefore conflict
    (halo of one overlaps interior of the other), which is why the async
    stepper needs the checkerboard wave partition.
    """
    t = task.tile
    tile_cells = _tile_frame_rect(task.src, t)
    halo = _cross_halo(task.src, t)
    return Footprint.of(tile_cells | halo, tile_cells | halo)


def sync_tile_k_footprint(task: TileTask, shape: tuple[int, int]) -> Footprint:
    """``sync_tile_k``/``sync_tile_kc``: fused *k*-step trapezoid gather.

    A *k*-step fused tile needs the tile grown by ``k`` (its dependency
    cone, halo depth ``stencil radius x k``) plus the one-cell stencil ring
    around it: sub-step 1 gathers the grown-by-``k-1`` region straight off
    the global source plane, reaching one more cell outward.  Growth clamps
    at the interior; the clamped sides read the sink frame instead, which
    the full framed rectangle below covers.  Reads are declared as the full
    rectangle (corners included) — a data-independent upper bound, which
    keeps the declaration sound and the observed-within-declared check of
    the shadow tracer valid.  Writes stay exactly the owned tile on the
    destination plane, so fused bands remain write-disjoint under any
    schedule — the same race-freedom shape as the single-step kernels.
    """
    t = task.tile
    k = int(task.arg or 1)
    frame_h, frame_w = shape
    gy0 = max(t.y0 - k, 0)
    gy1 = min(t.y1 + k, frame_h - 2)
    gx0 = max(t.x0 - k, 0)
    gx1 = min(t.x1 + k, frame_w - 2)
    # grown rect plus its one-cell ring, in framed coordinates
    reads = rect_cells(task.src, gy0, gy1 + 2, gx0, gx1 + 2)
    writes = _tile_frame_rect(task.dst, t)
    return Footprint.of(reads, writes)


#: tile-kernel name -> fn(task, framed_shape) -> Footprint
_FOOTPRINTS: dict[str, Callable[[TileTask, tuple[int, int]], Footprint]] = {}


def declare_footprint(
    name: str,
    fn: Callable[[TileTask, tuple[int, int]], Footprint],
    *,
    overwrite: bool = False,
) -> None:
    """Declare the footprint model of the tile kernel registered as *name*.

    Like kernel registration itself, duplicate declarations are rejected
    unless ``overwrite=True`` — silently replacing a footprint would
    silently change what the race checker certifies.
    """
    if not overwrite and name in _FOOTPRINTS and _FOOTPRINTS[name] is not fn:
        raise KernelError(
            f"footprint for tile kernel {name!r} already declared; "
            f"pass overwrite=True to replace it"
        )
    _FOOTPRINTS[name] = fn


def declared_footprint(task: TileTask, shape: tuple[int, int]) -> Footprint | None:
    """The declared footprint of *task*'s kernel, or None when undeclared."""
    fn = _FOOTPRINTS.get(task.kernel)
    return fn(task, shape) if fn is not None else None


def footprint_for(task: TileTask, shape: tuple[int, int], *, allow_trace: bool = True) -> Footprint:
    """Footprint of *task*: declared, else symbolically inferred, else traced.

    The resolution chain is sound-first: a hand declaration wins, an
    undeclared kernel gets the abstract interpreter's inferred may-sets
    (:func:`repro.analysis.symbolic.infer_footprint`), and only a kernel
    the interpreter *refuses* falls back to single-execution shadow
    tracing — loudly, via a :class:`UserWarning` carrying the refusal
    reason, never silently.  With ``allow_trace=False`` the refusal raises
    :class:`~repro.common.errors.KernelError` instead.
    """
    fp = declared_footprint(task, shape)
    if fp is not None:
        return fp
    from repro.analysis.symbolic import SymbolicRefusal, infer_footprint

    try:
        return infer_footprint(task, shape)
    except SymbolicRefusal as refusal:
        if not allow_trace:
            raise KernelError(
                f"tile kernel {task.kernel!r} has no declared footprint and "
                f"symbolic inference refused it ({refusal}); declare one with "
                f"repro.analysis.declare_footprint"
            ) from None
        warnings.warn(
            f"tile kernel {task.kernel!r}: no declaration and symbolic inference "
            f"refused ({refusal}); falling back to heuristic shadow tracing",
            UserWarning,
            stacklevel=2,
        )
    from repro.analysis.shadow import trace_tile_kernel

    return trace_tile_kernel(task, shape)


declare_footprint("sync_tile", sync_tile_footprint)
declare_footprint("sync_tile_nc", sync_tile_footprint)
# the temporal-blocking kernels share one model: k comes from task.arg
declare_footprint("sync_tile_k", sync_tile_k_footprint)
declare_footprint("sync_tile_kc", sync_tile_k_footprint)
declare_footprint("async_tile_relax", async_tile_relax_footprint)
