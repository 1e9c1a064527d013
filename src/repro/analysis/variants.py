"""Variant-level race certification: every registered kernel variant gets a
machine-checked concurrency model.

Each sandpile variant decomposes one iteration into *phases of concurrent
units* (the executor contract: one ``backend.run`` call per phase, phases
serialised by the call returning).  The unit granularity matches what the
variant actually parallelises:

* **tiled/lazy/omp (sync)** — one phase of ``sync_tile`` tasks: pure
  gathers src -> dst, write-disjoint by construction;
* **split** — same gather model over the inner+outer tile partition (the
  two code paths write disjoint tiles of the same scratch plane);
* **pfrontier** — one phase of ``sync_tile_k`` (``k = 1``) row-band
  gathers, the shape of every batch the frontier stepper submits;
* **seq/vec/frontier (sync)** — cell-granular gather: each interior cell
  reads its 4-neighbourhood from the source plane and writes its own cell
  of the destination plane (no two cells write the same destination);
* **tiled/lazy/omp (async)** — the four checkerboard waves of
  ``async_tile_relax`` tasks (same-wave tiles are >= one tile apart, so
  their one-cell write halos stay disjoint — for tiles >= 2 cells wide);
* **seq/vec/frontier (async)** — cell-granular in-place sweep: each
  unstable cell rewrites itself *and adds into its 4 neighbours on the
  same plane*.  Adjacent units conflict, so the sweep is **racy by
  design** — the paper's point about the asynchronous variant: it is only
  correct because the sandpile is Abelian, not because the schedule is
  conflict-free.  These variants are registered with the
  ``racy-by-design`` tag; the certifier demands the verdict *match* the
  tag, so an async variant silently becoming "clean" (model drift) fails
  CI just as loudly as a sync variant becoming racy.

Unmodelled variants fail certification: adding a new variant forces adding
(or inheriting) an analysis model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.footprint import Footprint, footprint_for
from repro.analysis.halo import HaloVerdict, check_halo_depth
from repro.analysis.races import CrossCheck, RaceReport, check_phases, cross_check, dynamic_check
from repro.easypap.executor import TileTask
from repro.easypap.kernel import REGISTRY, KernelRegistry
from repro.easypap.tiling import TileGrid, band_tiles

__all__ = [
    "RACY_TAG",
    "VariantVerdict",
    "gather_cell_phase",
    "variant_phases",
    "certify_variant",
    "certify_all",
    "certify_dynamic_frontier",
    "FrontierCertification",
    "verdict_table",
]

#: registry tag marking a variant whose schedule is deliberately racy
RACY_TAG = "racy-by-design"


# -- phase models -----------------------------------------------------------------


def sync_cell_phase(height: int, width: int) -> list[list[Footprint]]:
    """Cell-granular synchronous gather: plane 0 -> plane 1, one unit per cell."""
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            reads = {(0, y, x), (0, y - 1, x), (0, y + 1, x), (0, y, x - 1), (0, y, x + 1)}
            units.append(Footprint.of(reads, {(1, y, x)}))
    return [units]


def async_cell_phase(height: int, width: int) -> list[list[Footprint]]:
    """Cell-granular in-place topple sweep: one unit per cell, single plane.

    A toppling cell masks itself (``&= 3``) and adds a grain portion into
    each 4-neighbour — read-modify-writes of cells other units also write.
    """
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            touched = {(0, y, x), (0, y - 1, x), (0, y + 1, x), (0, y, x - 1), (0, y, x + 1)}
            units.append(Footprint.of(touched, touched))
    return [units]


def tile_specs(kernel: str, height: int, width: int, tile_size: int) -> list[TileTask]:
    """The one-phase batch a :class:`~repro.sandpile.omp.TiledStepper` submits per iteration."""
    return [TileTask(kernel, 0, 1, t) for t in TileGrid(height, width, tile_size)]


def pfrontier_specs(height: int, width: int) -> list[TileTask]:
    """The finest band batch ``pfrontier`` can submit at ``k = 1``: one band per row.

    Every real batch — ``nbands`` bands of a dirty window — assigns each
    band a disjoint run of these rows, and a window band's footprint lies
    inside the union of its rows' full-width footprints; so two real bands
    can only conflict if two of these rows do, and certifying this batch
    covers every window and band count.
    """
    return [
        TileTask("sync_tile_k", 0, 1, t, arg=1) for t in band_tiles((0, height, 0, width), height)
    ]


def gather_cell_phase(height: int, width: int, offsets) -> list[list[Footprint]]:
    """Cell-granular double-buffered gather with an arbitrary read stencil.

    One unit per interior cell: reads the cell plus *offsets* neighbours on
    plane 0, writes its own cell on plane 1 — the model of any gallery
    ``vec`` variant; the stencil shape is the only parameter.
    """
    units = []
    for y in range(1, height + 1):
        for x in range(1, width + 1):
            reads = {(0, y, x)} | {(0, y + dy, x + dx) for dy, dx in offsets}
            units.append(Footprint.of(reads, {(1, y, x)}))
    return [units]


#: the two gallery stencils, as (dy, dx) read offsets around each cell
CROSS_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
MOORE_OFFSETS = tuple(
    (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if (dy, dx) != (0, 0)
)


def async_wave_specs(height: int, width: int, tile_size: int) -> list[list[TileTask]]:
    """The four serialized checkerboard wave batches of the async stepper."""
    from repro.sandpile.omp import wave_partition

    waves = wave_partition(list(TileGrid(height, width, tile_size)))
    return [[TileTask("async_tile_relax", 0, 0, t) for t in wave] for wave in waves]


def _tile_phases(
    height: int, width: int, tile_size: int, spec_phases: list[list[TileTask]]
) -> list[list[Footprint]]:
    shape = (height + 2, width + 2)
    return [[footprint_for(t, shape) for t in phase] for phase in spec_phases]


def variant_phases(
    kernel: str,
    variant: str,
    *,
    height: int,
    width: int,
    tile_size: int,
) -> list[list[Footprint]] | None:
    """Phase decomposition of one iteration of ``kernel/variant``.

    Returns None for variants with no registered model.
    """
    builder = _MODELS.get((kernel, variant))
    return builder(height, width, tile_size) if builder is not None else None


_MODELS: dict[tuple[str, str], Callable[[int, int, int], list[list[Footprint]]]] = {
    ("sandpile", "seq"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "vec"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "frontier"): lambda h, w, ts: sync_cell_phase(h, w),
    ("sandpile", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("sync_tile_nc", h, w, ts)]),
    ("sandpile", "lazy"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("sync_tile_nc", h, w, ts)]),
    ("sandpile", "omp"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("sync_tile_nc", h, w, ts)]),
    # certify_dynamic_frontier additionally checks the *actual*
    # per-dispatch band batches of a real run
    ("sandpile", "pfrontier"): lambda h, w, ts: _tile_phases(h, w, ts, [pfrontier_specs(h, w)]),
    ("sandpile", "split"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("sync_tile_nc", h, w, ts)]),
    ("asandpile", "seq"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "vec"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "frontier"): lambda h, w, ts: async_cell_phase(h, w),
    ("asandpile", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    ("asandpile", "lazy"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    ("asandpile", "omp"): lambda h, w, ts: _tile_phases(h, w, ts, async_wave_specs(h, w, ts)),
    # gallery kernels carry no hand declaration: their tiled models run on
    # footprints the symbolic interpreter infers from the kernel source
    ("heat", "vec"): lambda h, w, ts: gather_cell_phase(h, w, CROSS_OFFSETS),
    ("heat", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("heat_tile", h, w, ts)]),
    ("life", "vec"): lambda h, w, ts: gather_cell_phase(h, w, MOORE_OFFSETS),
    ("life", "tiled"): lambda h, w, ts: _tile_phases(h, w, ts, [tile_specs("life_tile", h, w, ts)]),
}


# -- certification ----------------------------------------------------------------


@dataclass
class VariantVerdict:
    """Outcome of certifying one registered variant."""

    kernel: str
    variant: str
    verdict: str  # "race-free" | "racy" | "unmodelled"
    expected: str  # what the registry tags promise
    report: RaceReport | None = None

    @property
    def ok(self) -> bool:
        """Verdict matches the registered expectation."""
        return self.verdict == self.expected

    @property
    def qualified_name(self) -> str:
        """The 'kernel/variant' display name."""
        return f"{self.kernel}/{self.variant}"


def certify_variant(
    kernel: str,
    variant: str,
    *,
    height: int = 12,
    width: int = 12,
    tile_size: int = 4,
    nworkers: int = 4,
    policy: str = "dynamic",
    chunk: int = 1,
    registry: KernelRegistry | None = None,
) -> VariantVerdict:
    """Statically certify one variant's schedule on a representative grid.

    ``dynamic`` with chunk 1 is the adversarial default: every cross-task
    pair is potentially concurrent, so a clean verdict holds under every
    other policy too (their concurrency relations are subsets).
    """
    import repro.gallery  # noqa: F401 - fills the registry
    import repro.sandpile.simulate  # noqa: F401 - fills the registry

    reg = registry if registry is not None else REGISTRY
    info = reg.get(kernel, variant)
    expected = "racy" if RACY_TAG in info.tags else "race-free"
    phases = variant_phases(kernel, variant, height=height, width=width, tile_size=tile_size)
    if phases is None:
        return VariantVerdict(kernel, variant, "unmodelled", expected)
    report = check_phases(phases, nworkers=nworkers, policy=policy, chunk=chunk)
    return VariantVerdict(kernel, variant, report.verdict, expected, report)


def certify_all(
    registry: KernelRegistry | None = None, **options
) -> list[VariantVerdict]:
    """Certify every variant in the registry (see :func:`certify_variant`)."""
    import repro.gallery  # noqa: F401 - fills the registry
    import repro.sandpile.simulate  # noqa: F401 - fills the registry

    reg = registry if registry is not None else REGISTRY
    return [
        certify_variant(info.kernel, info.name, registry=reg, **options)
        for info in reg.all_variants()
    ]


@dataclass
class FrontierCertification:
    """Verdict of certifying the per-iteration plans of a real frontier run.

    ``iterations`` counts the batches certified; ``dynamic_batches`` the
    ones that went through the uncached dynamic-plan path; ``crosses``
    holds one static-vs-shadow confrontation per iteration.  For fused runs
    (``k > 1``) ``halo`` carries the temporal-blocking depth verdict: the
    window growth per dispatch must cover ``stencil radius x k`` sub-steps.
    """

    iterations: int
    dynamic_batches: int
    nworkers: int
    policy: str
    crosses: list[CrossCheck] = field(default_factory=list)
    k: int = 1
    halo: "HaloVerdict | None" = None

    @property
    def ok(self) -> bool:
        """Every plan race-free, shadow replays in-bounds, halo depth sound."""
        if self.halo is not None and not self.halo.ok:
            return False
        return all(c.ok and not c.static.racy for c in self.crosses)

    def summary(self) -> str:
        """One-line verdict for CLI/CI output."""
        verdict = "race-free" if self.ok else "RACY/UNSOUND"
        fused = f" k={self.k} fused, halo {'ok' if self.halo.ok else 'BAD'}," if self.halo else ""
        return (
            f"dynamic frontier schedule: {verdict} over {self.iterations} dispatch(es) "
            f"({self.dynamic_batches} dynamic batch(es),{fused} policy={self.policy} "
            f"nworkers={self.nworkers})"
        )


def certify_dynamic_frontier(
    *,
    height: int = 48,
    width: int = 48,
    nworkers: int = 4,
    policy: str = "dynamic",
    chunk: int = 1,
    max_iterations: int = 200,
    k: int = 1,
    nbands: int | None = None,
) -> FrontierCertification:
    """Certify the *actual* per-iteration schedules of a frontier run.

    The whole-batch model in ``_MODELS`` proves every ``k = 1`` band batch
    race-free; this goes further and checks the concrete artefacts:
    a :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper` is driven
    to its fixpoint on a representative off-centre grid (so windows hit the
    grid edge) while every submitted ``sync_tile_k`` band batch is captured
    together with the exact chunk plan the backend would build for it
    (:func:`~repro.easypap.schedule.dynamic_chunk_plan`).  ``nbands``
    defaults to ``nworkers``, the decomposition a real pool runs.  Each
    captured batch is statically checked under its plan and
    shadow-replayed on the pre-step plane snapshot; the cross-check
    demands every observed access stay inside the declared footprints.

    With ``k > 1`` the bands run the fused trapezoid; the same machinery
    then certifies the temporal-blocking schedule (the grown read
    trapezoids of concurrent bands overlap, but writes stay disjoint), and
    the verdict additionally carries the
    :func:`~repro.analysis.halo.check_halo_depth` judgment that the
    window's growth-per-dispatch covers ``stencil radius x k`` sub-steps.
    """
    import numpy as np

    from repro.easypap.executor import SequentialBackend, _plan_for
    from repro.easypap.grid import Grid2D
    from repro.sandpile.pfrontier import ParallelFrontierStepper

    captured: list[tuple[list[TileTask], tuple, list]] = []
    dynamic_batches = 0

    class _CapturingBackend(SequentialBackend):
        planes: list = []

        def run(self, batch, *, iteration=0, kind="compute"):
            nonlocal dynamic_batches
            plan = _plan_for(batch, nworkers, policy, chunk)
            if batch.dynamic:
                dynamic_batches += 1
            captured.append(
                (list(batch.spec), plan, [np.array(p) for p in self.planes])
            )
            return super().run(batch, iteration=iteration, kind=kind)

    grid = Grid2D(height, width)
    # off-centre pile: the window crosses the edge, exercising clamped plans
    grid.interior[1, 1] = 6 * max(height, width)
    grid.interior[height // 2, width // 2] = 8
    backend = _CapturingBackend()
    # the capturing backend is sequential (its worker count would default
    # the band count to 1); certify the decomposition a real pool runs
    stepper = ParallelFrontierStepper(
        grid, backend=backend, k=k, nbands=nbands if nbands is not None else nworkers
    )
    backend.planes = stepper.planes
    for _ in range(max_iterations):
        if not stepper():
            break

    shape = (height + 2, width + 2)
    crosses: list[CrossCheck] = []
    for it, (specs, plan, planes) in enumerate(captured):
        fps = [footprint_for(t, shape) for t in specs]
        static = check_phases(
            [fps], nworkers=nworkers, policy=policy, chunk=chunk, plans=[plan]
        )
        dynamic, _trace = dynamic_check(
            specs, planes, nworkers=nworkers, policy=policy, chunk=chunk,
            iteration=it, plan=plan,
        )
        crosses.append(cross_check(static, dynamic))
    halo: HaloVerdict | None = None
    if k > 1:
        # one dispatch advances k radius-1 sub-steps on a window grown by k
        halo = check_halo_depth(k, stencil_radius=1, iterations_between_exchanges=k)
    return FrontierCertification(
        iterations=len(captured),
        dynamic_batches=dynamic_batches,
        nworkers=nworkers,
        policy=policy,
        crosses=crosses,
        k=k,
        halo=halo,
    )


def verdict_table(verdicts: list[VariantVerdict]) -> str:
    """Render verdicts as an aligned text table (the CLI/CI output)."""
    rows = [("variant", "verdict", "expected", "status")]
    for v in verdicts:
        rows.append((v.qualified_name, v.verdict, v.expected, "ok" if v.ok else "FAIL"))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)
