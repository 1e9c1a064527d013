"""Tests for tile-trace persistence and comparison (the Fig. 3 tooling)."""

import pytest

from repro.easypap.executor import SimulatedBackend, TaskBatch
from repro.easypap.monitor import iteration_view, record_tile
from repro.easypap.tiling import TileGrid
from repro.obs import Tracer, diff_summaries, summarize


def make_tracer(task_count, duration, iteration=5):
    t = Tracer()
    for i in range(task_count):
        record_tile(t, iteration, i, i % 2, i * duration, (i + 1) * duration, "compute", 0, i)
    return t


def iteration_summary(tracer, iteration=5):
    return summarize(iteration_view(tracer, iteration))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        """Spans a backend records survive ``save_jsonl``/``load_jsonl`` intact."""
        tiles = list(TileGrid(8, 8, 4))
        t = Tracer()
        SimulatedBackend(2, "dynamic", tracer=t).run(
            TaskBatch([lambda: 1.0] * len(tiles), tiles=tiles), iteration=3
        )
        path = tmp_path / "trace.jsonl"
        t.save_jsonl(path)
        loaded = Tracer.load_jsonl(path)
        assert loaded.spans() == t.spans()
        assert iteration_view(loaded, 3).spans() == iteration_view(t, 3).spans()

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        Tracer().save_jsonl(path)
        assert len(Tracer.load_jsonl(path)) == 0

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        make_tracer(2, 1.0).save_jsonl(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(Tracer.load_jsonl(path)) == 2


class TestComparison:
    def test_ratios(self):
        fine = iteration_summary(make_tracer(8, 1.0))     # 8 tasks, makespan 8
        coarse = iteration_summary(make_tracer(4, 2.0))   # 4 tasks, makespan 8
        cmp = diff_summaries(fine, coarse)
        assert cmp.span_ratio == 2.0
        assert cmp.makespan_ratio == 1.0

    def test_render_mentions_names(self):
        one = iteration_summary(make_tracer(2, 1.0))
        out = diff_summaries(one, one, left_name="32x32", right_name="64x64").render()
        assert "32x32" in out and "64x64" in out
        assert "spans" in out and "imbalance" in out

    def test_empty_side(self):
        cmp = diff_summaries(iteration_summary(make_tracer(3, 1.0)), iteration_summary(Tracer()))
        assert cmp.span_ratio == float("inf")
        assert cmp.right.span_count == 0

    def test_both_empty(self):
        cmp = diff_summaries(iteration_summary(Tracer(), 0), iteration_summary(Tracer(), 0))
        assert cmp.span_ratio == 1.0
        assert cmp.makespan_ratio == 1.0

    def test_real_fig3_shape(self):
        """Diffing actual lazy runs reproduces the Fig. 3 verdict."""
        from repro.sandpile import run_to_fixpoint, sparse_random

        tracers = {}
        iters = {}
        for ts in (8, 16):
            g = sparse_random(64, 64, n_piles=4, pile_grains=512, seed=3)
            tr = Tracer()
            r = run_to_fixpoint(g, "asandpile", "omp", tile_size=ts, nworkers=4,
                                lazy=True, tracer=tr)
            tracers[ts] = tr
            iters[ts] = r.iterations
        mid = min(iters.values()) // 2
        fine, coarse = (iteration_summary(tracers[ts], mid) for ts in (8, 16))
        cmp = diff_summaries(fine, coarse)
        assert cmp.span_ratio > 1.0  # finer tiles -> more tasks
        assert cmp.makespan_ratio == pytest.approx(fine.makespan / coarse.makespan)
