"""Tests for the EASYPAP-style application loop."""

import numpy as np
import pytest

import repro.sandpile  # noqa: F401 - registers the variants
from repro.common.errors import ConfigurationError, KernelError
from repro.easypap.app import EasyPapApp
from repro.obs import Tracer
from repro.sandpile.model import center_pile, random_uniform
from repro.sandpile.theory import stabilize


class TestRun:
    def test_converges_to_oracle(self):
        grid = random_uniform(16, 16, max_grains=10, seed=8)
        oracle = stabilize(grid.copy())
        app = EasyPapApp("sandpile", "lazy", grid, tile_size=4)
        result = app.run()
        assert result.converged
        assert np.array_equal(grid.interior, oracle.interior)
        assert result.iterations > 0
        assert result.wall_seconds > 0

    def test_iteration_budget(self):
        grid = center_pile(32, 32, 50_000)
        result = EasyPapApp("sandpile", "vec", grid).run(max_iterations=5)
        assert not result.converged
        assert result.iterations == 5

    def test_frames_collected(self):
        grid = center_pile(16, 16, 300)
        result = EasyPapApp("asandpile", "tiled", grid, tile_size=4).run(frame_every=3)
        assert result.frames
        assert result.frames[0].shape == (16, 16, 3)
        assert len(result.frames) == len(result.frame_iterations)
        # final state always included
        assert result.frame_iterations[-1] == result.iterations

    def test_no_frames_by_default(self):
        grid = center_pile(8, 8, 20)
        result = EasyPapApp("sandpile", "vec", grid).run()
        assert result.frames == []

    def test_save_frames(self, tmp_path):
        grid = center_pile(8, 8, 40)
        result = EasyPapApp("sandpile", "vec", grid).run(frame_every=2)
        paths = result.save_frames(tmp_path, prefix="sp")
        assert paths
        assert all(p.exists() and p.name.startswith("sp_") for p in paths)

    def test_on_iteration_early_stop(self):
        grid = center_pile(32, 32, 5000)
        result = EasyPapApp("sandpile", "vec", grid).run(
            on_iteration=lambda it, g: it >= 4
        )
        assert result.iterations == 4
        assert not result.converged

    def test_callback_sees_grid(self):
        grid = center_pile(8, 8, 30)
        seen = []
        EasyPapApp("sandpile", "vec", grid).run(
            on_iteration=lambda it, g: seen.append(g.total_grains())
        )
        assert seen  # called every iteration with the live grid

    def test_trace_collected_when_requested(self):
        grid = center_pile(16, 16, 100)
        tracer = Tracer()
        app = EasyPapApp("sandpile", "omp", grid, tracer=tracer, tile_size=8, nworkers=2)
        result = app.run()
        assert result.tracer is tracer
        assert len(tracer) > 0

    def test_mean_iteration_seconds(self):
        grid = center_pile(8, 8, 20)
        result = EasyPapApp("sandpile", "vec", grid).run()
        assert result.mean_iteration_seconds >= 0

    def test_unknown_variant(self):
        with pytest.raises(KernelError):
            EasyPapApp("sandpile", "warp-drive", center_pile(8, 8, 1))

    def test_negative_budget_rejected(self):
        app = EasyPapApp("sandpile", "vec", center_pile(8, 8, 1))
        with pytest.raises(ConfigurationError):
            app.run(max_iterations=-1)
