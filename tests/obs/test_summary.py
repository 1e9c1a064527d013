"""Tests for trace summaries/diffs, including per-iteration easypap views."""

import pytest

from repro.easypap.monitor import iteration_view, record_tile
from repro.obs import Tracer, diff_summaries, summarize


def make_easypap_tracer() -> Tracer:
    tracer = Tracer()
    rows = [
        # iteration 1: two workers, uneven load
        (1, 0, 0, 0.0, 1.0, "compute", 0, 0),
        (1, 1, 0, 1.0, 1.5, "compute", 0, 1),
        (1, 2, 1, 0.0, 0.75, "compute", 1, 0),
        # iteration 2: one worker
        (2, 0, 0, 2.0, 2.5, "compute", 0, 0),
    ]
    for row in rows:
        record_tile(tracer, *row)
    return tracer


#: per-iteration numbers of make_easypap_tracer(), computed by hand
EXPECTED = {
    1: {"tasks": 3, "makespan": 1.5, "work": 2.25, "busy": {0: 1.5, 1: 0.75}},
    2: {"tasks": 1, "makespan": 0.5, "work": 0.5, "busy": {0: 0.5}},
}


class TestSummarize:
    def test_basic_aggregates(self):
        t = Tracer(process="p")
        t.add_span("a", start=0.0, end=2.0, cat="compute", tid=0)
        t.add_span("b", start=1.0, end=4.0, cat="comm", tid=1)
        s = summarize(t)
        assert s.span_count == 2
        assert s.makespan == pytest.approx(4.0)
        assert s.total_busy == pytest.approx(5.0)
        assert s.by_cat == {"compute": 1, "comm": 1}
        assert s.worker_busy == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}
        assert s.task_counts == {0: 1, 1: 1}
        assert s.lanes[("p", 1)].busy_fraction(s.makespan) == pytest.approx(0.75)

    def test_empty(self):
        s = summarize(Tracer())
        assert s.span_count == 0 and s.makespan == 0.0
        assert s.imbalance == 0.0

    def test_pid_and_where_filters(self):
        t = Tracer()
        t.add_span("a", start=0, end=1, pid="x", tid=0, args={"iteration": 1})
        t.add_span("b", start=0, end=2, pid="y", tid=0, args={"iteration": 2})
        assert summarize(t, pid="x").span_count == 1
        assert summarize(t, where=lambda s: s.args.get("iteration") == 2).total_busy == 2

    def test_imbalance_matches_definition(self):
        t = Tracer()
        t.add_span("a", start=0, end=3, tid=0)
        t.add_span("b", start=0, end=1, tid=1)
        # max/mean - 1 = 3/2 - 1
        assert summarize(t).imbalance == pytest.approx(0.5)

    def test_render_mentions_lanes(self):
        t = Tracer(process="p")
        t.add_span("a", start=0, end=1, tid=0)
        text = summarize(t).render(title="run")
        assert text.startswith("run: 1 spans")
        assert "p/0: 1 spans" in text


class TestAgreementWithEasypapSummaries:
    """``summarize(iteration_view(t, N))`` gives one iteration's numbers, and
    ``trace summary --iteration N`` (a ``where`` filter) agrees with it."""

    @pytest.mark.parametrize("iteration", [1, 2])
    def test_per_iteration_numbers_agree(self, iteration):
        tracer = make_easypap_tracer()
        expected = EXPECTED[iteration]
        got = summarize(iteration_view(tracer, iteration))
        assert got.span_count == expected["tasks"]
        assert got.makespan == pytest.approx(expected["makespan"])
        assert got.total_busy == pytest.approx(expected["work"])
        assert got.worker_busy == pytest.approx(expected["busy"])
        busy = list(expected["busy"].values())
        assert got.imbalance == pytest.approx(max(busy) / (sum(busy) / len(busy)) - 1)
        filtered = summarize(tracer, where=lambda s: s.args.get("iteration") == iteration)
        assert filtered.render() == got.render()

    def test_task_counts_per_worker(self):
        got = summarize(iteration_view(make_easypap_tracer(), 1))
        assert got.task_counts == {0: 2, 1: 1}


class TestDiff:
    def test_ratios(self):
        left = summarize(_tracer_with(makespan=2.0, nspans=4))
        right = summarize(_tracer_with(makespan=1.0, nspans=2))
        d = diff_summaries(left, right, left_name="static", right_name="dynamic")
        assert d.makespan_ratio == pytest.approx(2.0)
        assert d.span_ratio == pytest.approx(2.0)

    def test_empty_right_side(self):
        left = summarize(_tracer_with(makespan=1.0, nspans=1))
        d = diff_summaries(left, summarize(Tracer()))
        assert d.makespan_ratio == float("inf")

    def test_render_lists_lanes(self):
        left = summarize(_tracer_with(makespan=2.0, nspans=2))
        right = summarize(_tracer_with(makespan=2.0, nspans=2))
        text = diff_summaries(left, right, left_name="L", right_name="R").render()
        assert text.startswith("L vs R")
        assert "makespan" in text and "lane 0:" in text


def _tracer_with(*, makespan: float, nspans: int) -> Tracer:
    t = Tracer(process="p")
    step = makespan / nspans
    for i in range(nspans):
        t.add_span(f"s{i}", start=i * step, end=(i + 1) * step, tid=i % 2)
    return t


class TestDegradationsInSummary:
    def _tracer(self) -> Tracer:
        t = Tracer(process="p")
        t.add_span("s0", start=0.0, end=1.0, tid=0)
        t.instant("Supervisor:step-retry", ts=0.2, cat="degradation", pid="easypap")
        t.instant("Supervisor:step-retry", ts=0.4, cat="degradation", pid="easypap")
        t.instant("ProcessBackend:pool-rebuild", ts=0.5, cat="degradation", pid="mapreduce")
        t.instant("checkpoint", ts=0.6, cat="checkpoint", pid="easypap")  # not a degradation
        return t

    def test_counted_by_substrate_and_kind(self):
        s = summarize(self._tracer())
        assert s.degradations == {
            ("easypap", "Supervisor:step-retry"): 2,
            ("mapreduce", "ProcessBackend:pool-rebuild"): 1,
        }

    def test_pid_filter_applies(self):
        s = summarize(self._tracer(), pid="mapreduce")
        assert s.degradations == {("mapreduce", "ProcessBackend:pool-rebuild"): 1}

    def test_rendered_even_without_spans(self):
        t = Tracer(process="p")
        t.instant("Supervisor:interrupted", ts=0.0, cat="degradation", pid="simmpi")
        s = summarize(t)
        assert s.span_count == 0
        text = s.render()
        assert "degradations: 1 event(s)" in text
        assert "simmpi: Supervisor:interrupted x1" in text

    def test_clean_trace_renders_no_degradation_block(self):
        text = summarize(_tracer_with(makespan=1.0, nspans=2)).render()
        assert "degradations" not in text
