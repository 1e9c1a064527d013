"""Tests for the parallel active-frontier stepper (dirty-window row bands).

Pins :class:`~repro.sandpile.pfrontier.ParallelFrontierStepper` to the
oracle and to the single-worker frontier stepper step-for-step — with one
band and with three, so band seams are exercised on the sequential
backend — and checks the dispatch contract the design depends on: every
batch is a ``k = 1`` :class:`~repro.easypap.executor.BandRule` over the
previous dirty bbox grown by one, and on the process backend each batch
costs at most one resident command per worker.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.easypap.executor import BandRule, ProcessBackend, SequentialBackend
from repro.easypap.grid import Grid2D
from repro.sandpile.compiled import HAVE_NUMBA, sync_window_k, sync_window_k_numpy
from repro.sandpile.kernels import grow_window
from repro.sandpile.model import center_pile, random_uniform
from repro.sandpile.pfrontier import ParallelFrontierStepper
from repro.sandpile.simulate import run_to_fixpoint
from repro.sandpile.theory import stabilize
from repro.sandpile.vectorized import FrontierSyncStepper

#: band counts every oracle test runs under: one band (no seam) and three
NBANDS = (1, 3)

grids = arrays(
    dtype=np.int64,
    shape=st.tuples(st.integers(2, 10), st.integers(2, 10)),
    elements=st.integers(0, 12),
)

SETTINGS = dict(max_examples=30, deadline=None)

needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)


def _drive(stepper, limit=200_000):
    n = 0
    while stepper():
        n += 1
        assert n < limit
    return n


class _RecordingBackend(SequentialBackend):
    """Sequential backend that keeps every batch it was handed, with the
    stepper's dirty bbox at the time of submission."""

    def __init__(self):
        super().__init__()
        self.stepper = None
        self.batches = []
        self.bboxes = []

    def run(self, batch, iteration=0):
        self.batches.append(batch)
        self.bboxes.append(self.stepper._bbox)
        return super().run(batch, iteration=iteration)


# -- correctness --------------------------------------------------------------


@given(interior=grids)
@settings(**SETTINGS)
def test_fixpoint_matches_oracle(interior):
    oracle = stabilize(Grid2D.from_interior(interior))
    for nbands in NBANDS:
        g = Grid2D.from_interior(interior)
        with ParallelFrontierStepper(g, nbands=nbands) as stepper:
            _drive(stepper)
        assert np.array_equal(g.interior, oracle.interior)
        assert g.sink_absorbed == oracle.sink_absorbed


@given(interior=grids)
@settings(**SETTINGS)
def test_matches_frontier_sync_step_for_step(interior):
    """Same trajectory as the single-worker frontier stepper, not just the
    same fixpoint: per-step change flags, planes, and sink all agree."""
    for nbands in NBANDS:
        ref = Grid2D.from_interior(interior)
        ref_stepper = FrontierSyncStepper(ref)
        g = Grid2D.from_interior(interior)
        with ParallelFrontierStepper(g, nbands=nbands) as stepper:
            for _ in range(200_000):
                c_ref = ref_stepper()
                c = stepper()
                assert c == c_ref
                assert np.array_equal(g.data, ref.data)
                assert g.sink_absorbed == ref.sink_absorbed
                if not c:
                    break


def test_two_piles_match_oracle():
    base = Grid2D(33, 47)
    base.interior[3, 5] = 900
    base.interior[28, 40] = 700
    oracle = stabilize(base.copy())
    for nbands in NBANDS:
        g = base.copy()
        with ParallelFrontierStepper(g, nbands=nbands) as stepper:
            _drive(stepper)
        assert np.array_equal(g.interior, oracle.interior)
        assert g.sink_absorbed == oracle.sink_absorbed


def test_all_stable_returns_false_immediately():
    g = Grid2D.from_interior(np.full((6, 6), 3, dtype=np.int64))
    before = g.data.copy()
    with ParallelFrontierStepper(g) as stepper:
        assert stepper() is False
        assert np.array_equal(g.data, before)
    assert g.sink_absorbed == 0


def test_reset_rescans_after_external_edit():
    g = Grid2D.from_interior(np.zeros((8, 8), dtype=np.int64))
    with ParallelFrontierStepper(g) as stepper:
        assert stepper() is False
        g.interior[2, 2] = 5  # external edit the stepper did not see
        stepper.reset()
        _drive(stepper)
    assert g.interior[2, 2] < 4


# -- scheduling contract ------------------------------------------------------


@pytest.mark.parametrize("nbands", NBANDS)
def test_every_batch_is_a_k1_band_rule_over_the_grown_bbox(nbands):
    """Each dispatch is ``nbands`` row bands of the previous dirty bbox
    grown by one — the resident protocol's batch shape, at ``k = 1``."""
    g = center_pile(24, 24, 160)
    be = _RecordingBackend()
    stepper = ParallelFrontierStepper(g, backend=be, nbands=nbands)
    be.stepper = stepper
    _drive(stepper)
    assert be.batches, "stepper never submitted work"
    for batch, bbox in zip(be.batches, be.bboxes):
        window = grow_window(bbox, g.height, g.width, 1)
        assert batch.bands == BandRule("sync_tile_k", 0, 1, 1, window, len(batch))
        assert len(batch) == min(nbands, window[1] - window[0])
        assert batch.dynamic
        assert all(t.kernel == "sync_tile_k" and t.arg == 1 for t in batch.spec)


def test_counters_and_window_log():
    g = center_pile(32, 32, 400)
    with ParallelFrontierStepper(g, nbands=3) as stepper:
        n = _drive(stepper)
    # the final call sees a stable grid and submits nothing
    assert stepper.iterations == n + 1
    assert len(stepper.window_log) == n
    assert stepper.tiles_computed > 0
    for i, (iteration, window, active) in enumerate(stepper.window_log):
        assert iteration == i
        y0, y1, x0, x1 = window
        assert 0 <= y0 < y1 <= g.height and 0 <= x0 < x1 <= g.width
        assert active == min(3, y1 - y0)
    assert stepper.tiles_computed == sum(a for _, _, a in stepper.window_log)
    assert stepper.window_cells == sum(
        (w[1] - w[0]) * (w[3] - w[2]) for _, w, _ in stepper.window_log
    )


# -- process backend ----------------------------------------------------------


@needs_processes
def test_process_backend_bit_identical():
    base = random_uniform(37, 41, max_grains=10, seed=23)
    ref = base.copy()
    ref_steps = _drive(FrontierSyncStepper(ref))
    g = base.copy()
    with ParallelFrontierStepper(g, backend=ProcessBackend(2, "dynamic")) as stepper:
        steps = _drive(stepper)
    assert steps == ref_steps
    assert np.array_equal(g.interior, ref.interior)
    assert g.sink_absorbed == ref.sink_absorbed


@needs_processes
def test_process_dispatch_sends_one_resident_command_per_worker():
    """No per-tile oneshot traffic: one band-rule registration per worker,
    then at most one resident command per worker per batch."""
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    g = center_pile(32, 32, 400)
    with ParallelFrontierStepper(
        g, backend=ProcessBackend(2, "dynamic", metrics=reg)
    ) as stepper:
        _drive(stepper)
    commands = reg.get("easypap_dispatch_commands_total")
    batches = reg.get("easypap_dispatch_batches_total").value()
    assert batches == len(stepper.window_log) > 0
    assert commands.value(mode="oneshot") == 0
    assert commands.value(mode="register") == 2
    assert 0 < commands.value(mode="resident") <= 2 * batches


@needs_processes
def test_close_detaches_shared_memory():
    g = center_pile(16, 16, 60)
    stepper = ParallelFrontierStepper(g, backend=ProcessBackend(2))
    _drive(stepper)
    final = g.interior.copy()
    stepper.close()
    stepper.close()  # idempotent
    # the grid survives pool shutdown: its plane was copied out of shm
    assert np.array_equal(g.interior, final)
    g.interior[0, 0] = 1  # still writable after detach


@needs_processes
def test_registry_variant_runs_on_processes():
    oracle = stabilize(center_pile(32, 32, 600))
    g = center_pile(32, 32, 600)
    result = run_to_fixpoint(
        g, "sandpile", "pfrontier", tile_size=8, nworkers=2, policy="dynamic"
    )
    assert np.array_equal(g.interior, oracle.interior)
    assert result.iterations > 0
    assert g.total_grains() + g.sink_absorbed == 600


# -- compiled path (numba optional, NumPy fallback always present) ------------


def test_compiled_stepper_matches_oracle():
    base = center_pile(24, 24, 300)
    oracle = stabilize(base.copy())
    g = base.copy()
    with ParallelFrontierStepper(g, use_compiled=True, nbands=3) as stepper:
        _drive(stepper)
    assert np.array_equal(g.interior, oracle.interior)
    assert g.sink_absorbed == oracle.sink_absorbed


def test_sync_window_fallback_wiring():
    if HAVE_NUMBA:
        assert sync_window_k is not sync_window_k_numpy
    else:
        assert sync_window_k is sync_window_k_numpy
