"""Tests for the tiled parallel steppers."""

import numpy as np
import pytest

from repro.easypap.executor import ProcessBackend, SimulatedBackend, ThreadBackend
from repro.easypap.monitor import iteration_view, tile_owner_map
from repro.obs import Tracer
from repro.sandpile.model import center_pile, sparse_random
from repro.sandpile.omp import TiledAsyncStepper, TiledSyncStepper, wave_partition
from repro.easypap.tiling import TileGrid
from repro.sandpile.theory import stabilize


def drive(stepper, max_iter=100_000):
    n = 0
    while stepper():
        n += 1
        assert n < max_iter
    return n


class TestWavePartition:
    def test_four_colors(self):
        tg = TileGrid(16, 16, 4)
        waves = wave_partition(list(tg))
        assert len(waves) == 4
        assert sum(len(w) for w in waves) == len(tg)

    def test_within_wave_no_adjacent_tiles(self):
        tg = TileGrid(32, 32, 4)
        for wave in wave_partition(list(tg)):
            coords = {(t.ty, t.tx) for t in wave}
            for ty, tx in coords:
                assert (ty + 1, tx) not in coords
                assert (ty, tx + 1) not in coords

    def test_single_row(self):
        tg = TileGrid(4, 16, 4)
        waves = wave_partition(list(tg))
        assert len(waves) == 2


class TestTiledSyncStepper:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("tile_size", [4, 5, 16])
    def test_fixpoint_matches_oracle(self, lazy, tile_size, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(TiledSyncStepper(g, tile_size, lazy=lazy))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_conservation(self):
        g = center_pile(16, 16, 800)
        total0 = g.total_grains()
        stepper = TiledSyncStepper(g, 4)
        while stepper():
            assert g.total_grains() + g.sink_absorbed == total0

    def test_lazy_skips_tiles_on_sparse_config(self):
        g = sparse_random(64, 64, n_piles=2, pile_grains=64, seed=3)
        stepper = TiledSyncStepper(g, 8, lazy=True)
        drive(stepper)
        assert stepper.tiles_skipped > stepper.tiles_computed

    def test_eager_never_skips(self):
        g = center_pile(16, 16, 64)
        stepper = TiledSyncStepper(g, 8)
        drive(stepper)
        assert stepper.tiles_skipped == 0

    def test_simulated_backend_same_result(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        backend = SimulatedBackend(4, "dynamic")
        drive(TiledSyncStepper(g, 6, backend=backend))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_thread_backend_same_result(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(TiledSyncStepper(g, 8, backend=ThreadBackend(4)))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_trace_records_tiles(self):
        tracer = Tracer()
        g = center_pile(16, 16, 64)
        backend = SimulatedBackend(2, "static", tracer=tracer)
        drive(TiledSyncStepper(g, 8, backend=backend))
        assert len(tracer) > 0
        owners = tile_owner_map(iteration_view(tracer, 0), 2, 2)
        assert (owners >= 0).all()  # eager: every tile computed at iteration 0


class TestTiledAsyncStepper:
    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("tile_size", [4, 7, 12])
    def test_fixpoint_matches_oracle(self, lazy, tile_size, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        drive(TiledAsyncStepper(g, tile_size, lazy=lazy))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_center_pile_matches_oracle(self):
        g = center_pile(24, 24, 3000)
        expected = stabilize(g.copy())
        drive(TiledAsyncStepper(g, 6, lazy=True))
        assert np.array_equal(g.interior, expected.interior)

    def test_conservation(self):
        g = center_pile(16, 16, 500)
        total0 = g.total_grains()
        stepper = TiledAsyncStepper(g, 4, lazy=True)
        while stepper():
            assert g.total_grains() + g.sink_absorbed == total0

    def test_async_converges_in_fewer_iterations_than_sync(self):
        # tile-local relaxation moves grains many cells per iteration
        g1 = center_pile(32, 32, 4000)
        g2 = g1.copy()
        n_async = drive(TiledAsyncStepper(g1, 8))
        n_sync = drive(TiledSyncStepper(g2, 8))
        assert n_async < n_sync

    def test_simulated_backend_same_result(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        backend = SimulatedBackend(4, "guided", chunk=1)
        drive(TiledAsyncStepper(g, 6, backend=backend, lazy=True))
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_thread_backend_waves_safe(self, small_random_grid, small_random_stable):
        # threads + 4-colour waves: adjacent tiles never run concurrently,
        # so the fixpoint must still be exact
        g = small_random_grid.copy()
        drive(TiledAsyncStepper(g, 6, backend=ThreadBackend(4)))
        assert np.array_equal(g.interior, small_random_stable.interior)


needs_processes = pytest.mark.skipif(
    not ProcessBackend.available(), reason="fork/shared_memory unavailable"
)


@needs_processes
class TestProcessBackendSteppers:
    """Real worker processes over shared-memory planes: fixpoints must be
    bit-identical to the sequential reference (Dhar's abelian property plus
    deterministic synchronous updates)."""

    @pytest.mark.parametrize("policy", ["static", "dynamic"])
    @pytest.mark.parametrize("lazy", [False, True])
    def test_sync_fixpoint_bit_identical(self, policy, lazy, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        stepper = TiledSyncStepper(g, 6, backend=ProcessBackend(2, policy), lazy=lazy)
        try:
            drive(stepper)
        finally:
            stepper.close()
        assert np.array_equal(g.interior, small_random_stable.interior)

    @pytest.mark.parametrize("policy", ["static", "guided"])
    def test_async_fixpoint_bit_identical(self, policy, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        stepper = TiledAsyncStepper(g, 6, backend=ProcessBackend(2, policy))
        try:
            drive(stepper)
        finally:
            stepper.close()
        assert np.array_equal(g.interior, small_random_stable.interior)

    def test_conservation_through_shared_planes(self):
        g = center_pile(16, 16, 800)
        total0 = g.total_grains()
        stepper = TiledSyncStepper(g, 4, backend=ProcessBackend(2, "static"))
        try:
            while stepper():
                assert g.total_grains() + g.sink_absorbed == total0
        finally:
            stepper.close()

    def test_trace_has_stable_worker_lanes(self, small_random_grid):
        tracer = Tracer()
        g = small_random_grid.copy()
        stepper = TiledSyncStepper(g, 6, backend=ProcessBackend(2, "dynamic", tracer=tracer))
        try:
            for _ in range(5):
                stepper()
        finally:
            stepper.close()
        workers = {s.tid for s in tracer.spans()}
        assert workers <= {0, 1}
        assert all(s.end >= s.start for s in tracer.spans())

    def test_close_detaches_grid_from_shared_memory(self, small_random_grid):
        g = small_random_grid.copy()
        stepper = TiledSyncStepper(g, 6, backend=ProcessBackend(2))
        stepper()
        stepper.close()
        stepper.close()  # idempotent
        # the grid survived detachment and stays fully usable
        assert g.total_grains() >= 0
        g.interior[0, 0] += 1
        assert g.total_grains() >= 1


class TestZeroRebuildBatches:
    """Task closures, TileTask specs, and full batches are built once at
    construction; iterations must not construct new ones."""

    @staticmethod
    def _count_tiletask(monkeypatch):
        import repro.sandpile.omp as omp_mod

        real = omp_mod.TileTask
        counter = {"n": 0}

        def counting(*args, **kwargs):
            counter["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(omp_mod, "TileTask", counting)
        return counter

    @needs_processes
    @pytest.mark.parametrize("lazy", [False, True])
    def test_process_sync_iterations_build_no_specs(self, monkeypatch, lazy):
        counter = self._count_tiletask(monkeypatch)
        g = center_pile(32, 32, 2_000)
        stepper = TiledSyncStepper(g, 8, backend=ProcessBackend(2, "static"), lazy=lazy)
        try:
            built_at_init = counter["n"]
            assert built_at_init > 0  # the spec caches exist
            for _ in range(10):
                stepper()
            assert counter["n"] == built_at_init
        finally:
            stepper.close()

    @needs_processes
    def test_process_async_iterations_build_no_specs(self, monkeypatch):
        counter = self._count_tiletask(monkeypatch)
        g = center_pile(32, 32, 2_000)
        stepper = TiledAsyncStepper(g, 8, backend=ProcessBackend(2, "static"))
        try:
            built_at_init = counter["n"]
            assert built_at_init > 0
            for _ in range(10):
                stepper()
            assert counter["n"] == built_at_init
        finally:
            stepper.close()

    def test_in_process_backends_never_build_specs(self, monkeypatch):
        # in-process closures run the registry kernel on the specs built at
        # construction (one list per plane parity): iterations build none
        counter = self._count_tiletask(monkeypatch)
        g = center_pile(24, 24, 1_000)
        stepper = TiledSyncStepper(g, 8, backend=SimulatedBackend(4, "dynamic"), lazy=True)
        built_at_init = counter["n"]
        assert built_at_init == 2 * len(stepper.tiles)
        for _ in range(10):
            stepper()
        assert counter["n"] == built_at_init

    def test_full_batch_object_reused_across_iterations(self):
        g = center_pile(24, 24, 1_000)
        stepper = TiledSyncStepper(g, 8, backend=SimulatedBackend(2, "static"))
        all_tiles = stepper._all_tiles
        # one cached batch per plane parity, on every backend
        first = stepper._batch_for(all_tiles)
        stepper()
        second = stepper._batch_for(all_tiles)
        stepper()
        assert stepper._batch_for(all_tiles) is first
        stepper()
        assert stepper._batch_for(all_tiles) is second

    def test_task_closures_read_live_planes(self):
        # the cached closures must follow the plane flip, or iteration 2
        # would recompute iteration 1's input
        g = center_pile(16, 16, 300)
        oracle = stabilize(center_pile(16, 16, 300))
        stepper = TiledSyncStepper(g, 4, backend=ThreadBackend(2))
        drive(stepper)
        assert np.array_equal(g.interior, oracle.interior)

    def test_run_to_fixpoint_closes_backend(self, small_random_grid, small_random_stable):
        from repro.sandpile.simulate import run_to_fixpoint

        g = small_random_grid.copy()
        run_to_fixpoint(g, "sandpile", "omp", backend="process", nworkers=2, tile_size=6)
        assert np.array_equal(g.interior, small_random_stable.interior)
