"""Cross-cutting integration: every execution path of every subsystem must
agree with its oracle on shared scenarios."""

import numpy as np
import pytest

from repro.obs import Tracer
from repro.sandpile import (
    HybridStepper,
    LazyGpuStepper,
    center_pile,
    run_distributed,
    run_to_fixpoint,
    sparse_random,
)
from repro.sandpile.theory import stabilize


class TestSandpileGrandUnification:
    """One configuration, every engine: the fixpoints must be identical."""

    @pytest.fixture(scope="class")
    def scenario(self):
        grid = sparse_random(48, 48, n_piles=6, pile_grains=900, seed=21)
        oracle = stabilize(grid.copy())
        return grid, oracle

    def test_all_registered_variants(self, scenario):
        grid, oracle = scenario
        for kernel, variant, opts in [
            ("sandpile", "vec", {}),
            ("sandpile", "split", {"tile_size": 8}),
            ("sandpile", "tiled", {"tile_size": 8}),
            ("sandpile", "lazy", {"tile_size": 8}),
            ("sandpile", "omp", {"tile_size": 8, "nworkers": 4}),
            ("asandpile", "vec", {}),
            ("asandpile", "tiled", {"tile_size": 8}),
            ("asandpile", "lazy", {"tile_size": 8}),
            ("asandpile", "omp", {"tile_size": 8, "nworkers": 4}),
        ]:
            g = grid.copy()
            run_to_fixpoint(g, kernel, variant, **opts)
            assert np.array_equal(g.interior, oracle.interior), f"{kernel}/{variant}"

    def test_gpu_and_hybrid(self, scenario):
        grid, oracle = scenario
        g = grid.copy()
        stepper = LazyGpuStepper(g)
        while stepper():
            pass
        assert np.array_equal(g.interior, oracle.interior)

        g = grid.copy()
        hybrid = HybridStepper(g, tile_size=8, nworkers=4, lazy=True)
        while hybrid():
            pass
        assert np.array_equal(g.interior, oracle.interior)

    @pytest.mark.parametrize("nranks,depth", [(2, 1), (4, 2), (3, 4)])
    def test_distributed(self, scenario, nranks, depth):
        grid, oracle = scenario
        res = run_distributed(grid, nranks, halo_depth=depth)
        assert np.array_equal(res.final.interior, oracle.interior)


class TestFig1Configurations:
    """The two Fig. 1 setups at reduced scale, across engines."""

    def test_center_pile_four_fold_symmetry(self):
        g = center_pile(65, 65, 20_000)
        stabilize(g)
        m = g.interior
        assert np.array_equal(m, m[::-1, :])
        assert np.array_equal(m, m[:, ::-1])
        assert np.array_equal(m, m.T)

    def test_uniform4_loses_grains_and_stabilizes(self):
        from repro.sandpile import uniform

        g = uniform(64, 64, 4)
        total0 = g.total_grains()
        run_to_fixpoint(g, "asandpile", "lazy", tile_size=8)
        assert g.is_stable()
        assert g.sink_absorbed > 0
        assert g.total_grains() + g.sink_absorbed == total0

    def test_all_four_colors_present_in_center_config(self):
        g = center_pile(65, 65, 20_000)
        stabilize(g)
        values = set(np.unique(g.interior))
        assert values == {0, 1, 2, 3}


class TestTraceConsistency:
    def test_trace_covers_every_computed_tile(self):
        grid = sparse_random(32, 32, n_piles=3, pile_grains=200, seed=4)
        tracer = Tracer()
        result = run_to_fixpoint(
            grid, "sandpile", "omp", tile_size=8, nworkers=3, lazy=True, tracer=tracer
        )
        assert len(tracer.spans()) == result.tiles_computed
        # every span maps to a real tile
        for s in tracer.spans():
            assert 0 <= s.args["tile_ty"] < 4 and 0 <= s.args["tile_tx"] < 4
