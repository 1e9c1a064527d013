"""Tests for the run_to_fixpoint driver and variant registration."""

import numpy as np
import pytest

from repro.common.errors import KernelError
from repro.obs import Tracer
from repro.sandpile.model import center_pile, random_uniform, sparse_random
from repro.sandpile.simulate import make_stepper, run_to_fixpoint

ALL_VARIANTS = [
    ("sandpile", "vec", {}),
    ("sandpile", "split", {"tile_size": 6}),
    ("sandpile", "tiled", {"tile_size": 6}),
    ("sandpile", "lazy", {"tile_size": 6}),
    ("sandpile", "omp", {"tile_size": 6, "nworkers": 3, "policy": "dynamic"}),
    ("asandpile", "vec", {}),
    ("asandpile", "tiled", {"tile_size": 6}),
    ("asandpile", "lazy", {"tile_size": 6}),
    ("asandpile", "omp", {"tile_size": 6, "nworkers": 3, "policy": "guided"}),
]


class TestAllVariantsAgree:
    """Dhar's theorem, enforced: every variant reaches the same fixpoint."""

    @pytest.mark.parametrize("kernel,variant,opts", ALL_VARIANTS)
    def test_variant_matches_oracle(self, kernel, variant, opts, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        result = run_to_fixpoint(g, kernel, variant, **opts)
        assert np.array_equal(g.interior, small_random_stable.interior)
        assert result.final_grid is g
        assert g.is_stable()

    def test_seq_variants_on_tiny_grid(self):
        # the scalar reference loops are too slow for the shared fixture
        base = random_uniform(8, 8, max_grains=8, seed=13)
        grids = {name: base.copy() for name in ("seq_sync", "seq_async", "vec")}
        run_to_fixpoint(grids["seq_sync"], "sandpile", "seq")
        run_to_fixpoint(grids["seq_async"], "asandpile", "seq")
        run_to_fixpoint(grids["vec"], "sandpile", "vec")
        assert np.array_equal(grids["seq_sync"].interior, grids["vec"].interior)
        assert np.array_equal(grids["seq_async"].interior, grids["vec"].interior)


class TestRunResult:
    def test_iteration_count_positive(self):
        g = center_pile(16, 16, 200)
        r = run_to_fixpoint(g, "sandpile", "vec")
        assert r.iterations > 0

    def test_stable_input_zero_iterations(self):
        g = random_uniform(8, 8, max_grains=3, seed=0)
        r = run_to_fixpoint(g, "sandpile", "vec")
        assert r.iterations == 0

    def test_lazy_skip_fraction(self):
        g = sparse_random(64, 64, n_piles=2, pile_grains=100, seed=5)
        r = run_to_fixpoint(g, "sandpile", "lazy", tile_size=8)
        assert 0.0 < r.skip_fraction < 1.0

    def test_skip_fraction_zero_without_tiles(self):
        g = center_pile(8, 8, 20)
        r = run_to_fixpoint(g, "sandpile", "vec")
        assert r.skip_fraction == 0.0

    def test_max_iterations_enforced(self):
        g = center_pile(32, 32, 100_000)
        with pytest.raises(RuntimeError):
            run_to_fixpoint(g, "sandpile", "vec", max_iterations=3)

    def test_trace_carried(self):
        tracer = Tracer()
        g = center_pile(16, 16, 100)
        r = run_to_fixpoint(g, "sandpile", "omp", tile_size=8, nworkers=2, tracer=tracer)
        assert r.tracer is tracer
        assert len(tracer) > 0


class TestMakeStepper:
    def test_unknown_variant(self):
        g = center_pile(8, 8, 10)
        with pytest.raises(KernelError):
            make_stepper(g, "sandpile", "quantum")

    def test_unknown_kernel(self):
        g = center_pile(8, 8, 10)
        with pytest.raises(KernelError):
            make_stepper(g, "heatmap", "vec")

    def test_backend_threads(self, small_random_grid, small_random_stable):
        g = small_random_grid.copy()
        run_to_fixpoint(g, "sandpile", "omp", tile_size=8, nworkers=2, backend="threads")
        assert np.array_equal(g.interior, small_random_stable.interior)
