"""End-to-end runs of the three assignments at reduced scale."""

import numpy as np

from repro.carbon.tab1 import question1_baseline, question3_comparison
from repro.carbon.tab2 import question1_baselines
from repro.climate.workflow import run_warming_stripes_workflow
from repro.sandpile import center_pile, run_to_fixpoint


class TestAssignment1Sandpile:
    def test_fig1a_pipeline(self, tmp_path):
        """Initial config -> stabilise -> render -> write image."""
        from repro.common.colors import sandpile_to_rgb, write_ppm

        g = center_pile(64, 64, 10_000)
        result = run_to_fixpoint(g, "asandpile", "lazy", tile_size=8)
        assert g.is_stable()
        img = sandpile_to_rgb(g.interior)
        path = tmp_path / "fig1a.ppm"
        write_ppm(path, img)
        assert path.stat().st_size > 64 * 64 * 3

    def test_report_quality_numbers(self):
        """The numbers a student's report needs are all derivable."""
        from repro.easypap.monitor import iteration_view
        from repro.obs import Tracer, summarize

        g = center_pile(48, 48, 4000)
        tracer = Tracer()
        result = run_to_fixpoint(
            g, "sandpile", "omp", tile_size=8, nworkers=4, policy="dynamic", tracer=tracer
        )
        summary = summarize(iteration_view(tracer, result.iterations // 2))
        assert summary.span_count > 0
        assert summary.makespan > 0
        assert 0 <= summary.imbalance


class TestAssignment2WarmingStripes:
    def test_full_pipeline_with_image(self, tmp_path):
        wf = run_warming_stripes_workflow(first_year=1950, last_year=2019, seed=11)
        img = wf.stripes.image(height=20, stripe_width=2)
        assert img.shape == (20, 70 * 2, 3)
        wf.stripes.save_ppm(tmp_path / "fig6.ppm")
        # warming visible: last decade redder than first
        first = np.mean([wf.annual_means[y] for y in range(1950, 1960)])
        last = np.mean([wf.annual_means[y] for y in range(2010, 2020)])
        assert last > first + 0.5


class TestAssignment3Carbon:
    def test_tab1_narrative(self, tiny_scenario):
        baseline = question1_baseline(tiny_scenario)
        opts = question3_comparison(tiny_scenario)
        assert opts["heuristic"].co2_grams < baseline.config.co2_grams
        assert all(c.makespan <= tiny_scenario.time_bound for c in opts.values())

    def test_tab2_narrative(self, tiny_scenario):
        bl = question1_baselines(tiny_scenario)
        assert bl["all-local"].link_gb == 0.0
        assert bl["all-cloud"].link_gb > 0.0


class TestLibraryMetadata:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_all_packages_importable(self):
        import repro.carbon
        import repro.climate
        import repro.common
        import repro.easypap
        import repro.mapreduce
        import repro.sandpile
        import repro.simmpi
        import repro.surveys
        import repro.wrench
