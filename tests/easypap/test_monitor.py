"""Tests for the per-iteration views over easypap tile spans."""

import numpy as np

from repro.easypap.monitor import EASYPAP_PID, iteration_view, record_tile, tile_owner_map
from repro.obs import Tracer, ascii_timeline, summarize
from repro.obs.records import record_to_row


def rec(tracer, iteration=0, task=0, worker=0, start=0.0, end=1.0, kind="compute", ty=-1, tx=-1):
    record_tile(tracer, iteration, task, worker, start, end, kind, ty, tx)


class TestTrace:
    def test_add_and_len(self):
        t = Tracer()
        for task in range(3):
            rec(t, task=task)
        rec(t, iteration=1)
        t.add_span("driver", start=0.0, end=1.0, pid="other", args={"iteration": 0})
        view = iteration_view(t, 0)
        assert len(view) == 3
        assert {s.pid for s in view.spans()} == {EASYPAP_PID}
        assert len(iteration_view(t, 1)) == 1


class TestSummary:
    def test_basic_stats(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=2.0)
        rec(t, task=1, worker=1, start=0.0, end=1.0)
        rec(t, iteration=1, worker=1, start=5.0, end=9.0)  # other iteration
        s = summarize(iteration_view(t, 0))
        assert s.span_count == 2
        assert s.makespan == 2.0
        assert s.total_busy == 3.0
        assert s.worker_busy == {0: 2.0, 1: 1.0}
        assert s.imbalance > 0.0

    def test_balanced_zero_imbalance(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=1.0)
        rec(t, task=1, worker=1, start=0.0, end=1.0)
        assert summarize(iteration_view(t, 0)).imbalance == 0.0

    def test_empty_iteration(self):
        s = summarize(iteration_view(Tracer(), 42))
        assert s.span_count == 0
        assert s.makespan == 0.0
        assert s.imbalance == 0.0


class TestOwnerMap:
    def test_basic(self):
        t = Tracer()
        rec(t, worker=3, ty=0, tx=1)
        rec(t, task=1, worker=1, ty=1, tx=0)
        rec(t, iteration=1, worker=2, ty=0, tx=0)  # other iteration
        owners = tile_owner_map(iteration_view(t, 0), 2, 2)
        assert owners[0, 1] == 3
        assert owners[1, 0] == 1
        assert owners[0, 0] == -1  # not computed: black in Fig. 4

    def test_out_of_range_tiles_ignored(self):
        t = Tracer()
        rec(t, ty=99, tx=0)
        rec(t, task=1)  # no tile coordinates
        owners = tile_owner_map(iteration_view(t, 0), 2, 2)
        assert (owners == -1).all()

    def test_dtype(self):
        owners = tile_owner_map(iteration_view(Tracer(), 0), 3, 3)
        assert owners.dtype == np.int32
        assert owners.shape == (3, 3)


class TestGantt:
    def test_contains_workers_and_marks(self):
        t = Tracer()
        rec(t, worker=0, start=0.0, end=1.0)
        rec(t, task=1, worker=1, start=0.5, end=1.0, kind="gpu")
        out = ascii_timeline(iteration_view(t, 0))
        lanes = [line.split("|")[0].strip() for line in out.splitlines()[2:]]
        assert lanes == ["0", "1"]
        assert "#" in out and "G" in out
        assert "G=gpu" in out

    def test_empty(self):
        assert "<no spans" in ascii_timeline(iteration_view(Tracer(), 3))


class TestExport:
    def test_to_rows(self):
        t = Tracer()
        rec(t, iteration=2, task=7, worker=1, ty=3, tx=4)
        (row,) = [record_to_row(s) for s in t.spans()]
        assert row["pid"] == EASYPAP_PID and row["tid"] == 1 and row["cat"] == "compute"
        assert (row["start"], row["end"]) == (0.0, 1.0)
        assert row["args"] == {"iteration": 2, "task": 7, "tile_ty": 3, "tile_tx": 4}
