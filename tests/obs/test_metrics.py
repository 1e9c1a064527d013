"""Tests for the metrics registry and the mapreduce Counters shim."""

import json

import pytest

from repro.common.errors import ConfigurationError
from repro.mapreduce.counters import Counters
from repro.obs.adapters.mapreduce import counters_to_registry
from repro.obs.metrics import Histogram, MetricsRegistry, diff_snapshots


class TestCounter:
    def test_inc_and_value_per_labelset(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs_total", "jobs")
        c.inc(2, phase="map")
        c.inc(phase="map")
        c.inc(5, phase="reduce")
        assert c.value(phase="map") == 3
        assert c.value(phase="reduce") == 5
        assert c.value(phase="never") == 0

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("c")
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            reg.counter("bad-name")
        with pytest.raises(ConfigurationError):
            reg.counter("ok").inc(1, **{"bad-label": "x"})


class TestGauge:
    def test_set_inc_dec(self):
        g = MetricsRegistry().gauge("workers")
        g.set(4)
        g.inc(2)
        g.dec()
        assert g.value() == 5


class TestHistogram:
    def test_observe_count_sum(self):
        h = MetricsRegistry().histogram("lat", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v, op="send")
        assert h.count(op="send") == 4
        assert h.sum(op="send") == pytest.approx(55.55)

    def test_samples_have_cumulative_buckets(self):
        h = Histogram("lat", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        h.observe(7.0)
        (row,) = h.samples()
        assert row["buckets"]["0.1"] == 1
        assert row["buckets"]["1.0"] == 2
        assert row["buckets"]["+Inf"] == 3

    def test_bad_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[1.0, 0.5])
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[])


class TestRegistry:
    def test_get_or_create_same_family(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.gauge("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]


class TestSnapshotDiff:
    def test_counter_deltas_and_zero_drop(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc(3, kind="a")
        c.inc(1, kind="b")
        before = reg.snapshot()
        c.inc(2, kind="a")  # kind=b unchanged -> dropped from the diff
        d = diff_snapshots(reg.snapshot(), before)
        assert d["hits"]["samples"] == [{"labels": {"kind": "a"}, "value": 2}]

    def test_gauge_reports_after_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        before = reg.snapshot()
        g.set(3)
        d = diff_snapshots(reg.snapshot(), before)
        assert d["depth"]["samples"][0]["value"] == 3

    def test_histogram_delta_count_and_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=[1.0])
        h.observe(0.5)
        before = reg.snapshot()
        h.observe(2.0)
        d = diff_snapshots(reg.snapshot(), before)
        (row,) = d["lat"]["samples"]
        assert row["count"] == 1 and row["sum"] == pytest.approx(2.0)

    def test_unchanged_registry_diffs_empty(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(1)
        snap = reg.snapshot()
        assert diff_snapshots(reg.snapshot(), snap) == {}


class TestExport:
    def test_to_json_parses(self):
        reg = MetricsRegistry()
        reg.counter("c", "help text").inc(1, k="v")
        doc = json.loads(reg.to_json())
        assert doc["c"]["type"] == "counter"
        assert doc["c"]["samples"] == [{"labels": {"k": "v"}, "value": 1.0}]

    def test_prometheus_text_format(self):
        reg = MetricsRegistry()
        reg.counter("req_total", "requests").inc(3, code="200")
        reg.gauge("temp").set(1.5)
        h = reg.histogram("lat", "latency", buckets=[0.1, 1.0])
        h.observe(0.05)
        text = reg.to_prometheus()
        assert "# HELP req_total requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{code="200"} 3' in text
        assert "temp 1.5" in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.05" in text
        assert "lat_count 1" in text
        assert text.endswith("\n")


class TestCountersShim:
    """The Hadoop-style Counters API is now a view over a registry counter."""

    def test_public_api_unchanged(self):
        c = Counters()
        c.increment(Counters.TASK, "map_input_records", 3)
        c.increment(Counters.TASK, "map_input_records")
        c.increment("app", "bad_rows", 2)
        assert c.value(Counters.TASK, "map_input_records") == 4
        assert c.group("app") == {"bad_rows": 2}
        assert c.as_dict() == {
            "task": {"map_input_records": 4},
            "app": {"bad_rows": 2},
        }
        assert repr(c) == "Counters(2 groups, 2 counters)"

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counters().increment("g", "n", -1)

    def test_merge(self):
        a, b = Counters(), Counters()
        a.increment("g", "n", 1)
        b.increment("g", "n", 2)
        b.increment("g", "m", 5)
        a.merge(b)
        assert a.as_dict() == {"g": {"n": 3, "m": 5}}

    def test_values_land_in_the_registry(self):
        reg = MetricsRegistry()
        c = Counters(registry=reg)
        c.increment("task", "spills", 7)
        metric = reg.get(Counters.METRIC_NAME)
        assert metric is not None
        assert metric.value(group="task", name="spills") == 7
        assert Counters.METRIC_NAME in reg.to_prometheus()

    def test_shared_registry_pools_jobs(self):
        reg = MetricsRegistry()
        Counters(registry=reg).increment("g", "n", 1)
        Counters(registry=reg).increment("g", "n", 2)
        assert reg.get(Counters.METRIC_NAME).value(group="g", name="n") == 3

    def test_counters_to_registry_bridges_external_counters(self):
        c = Counters()
        c.increment("task", "reduce_groups", 4)
        reg = counters_to_registry(c)
        assert reg.get("mapreduce_counter_total").value(
            group="task", name="reduce_groups"
        ) == 4


class TestServeSloSampleCounts:
    """The SLO table prints n always, and a quantile only when at least
    ten samples lie beyond it."""

    @staticmethod
    def _registry(n: int) -> MetricsRegistry:
        reg = MetricsRegistry()
        h = reg.histogram("serve_queue_latency_seconds", buckets=(0.001, 0.005, 0.01))
        for _ in range(n):
            h.observe(0.003, tenant="a")
        return reg

    def test_single_sample_prints_count_and_no_quantile(self):
        from repro.obs.adapters.serve import render_slo, slo_summary

        reg = self._registry(1)
        row = slo_summary(reg)["queue_latency"]["a"]
        assert row == {"count": 1, "p50": None, "p99": None}
        line = render_slo(reg).splitlines()[1]
        assert line == "  queue[a]: n=1"

    @pytest.mark.parametrize("n, shown", [(19, []), (20, ["p50"]), (1000, ["p50", "p99"])])
    def test_quantile_appears_once_ten_samples_lie_beyond_it(self, n, shown):
        from repro.obs.adapters.serve import render_slo, slo_summary

        reg = self._registry(n)
        row = slo_summary(reg)["queue_latency"]["a"]
        assert [q for q in ("p50", "p99") if row[q] is not None] == shown
        line = render_slo(reg).splitlines()[1]
        assert line.startswith(f"  queue[a]: n={n}")
        for q in ("p50", "p99"):
            assert (f"{q}=" in line) == (q in shown)


class TestServeSloQuantileAccuracy:
    def test_histogram_p50_within_one_bucket_of_raw_percentile(self):
        """The SLO table's bucket estimate agrees with the bench's raw p50."""
        import random
        from bisect import bisect_left

        from repro.obs.adapters.serve import estimate_quantile
        from repro.serve import BenchReport

        rng = random.Random(20220603)
        latencies = [rng.lognormvariate(-3.0, 1.0) for _ in range(500)]
        reg = MetricsRegistry()
        # declared exactly as JobService declares it (default buckets)
        h = reg.histogram("serve_job_seconds", "admit-to-complete job time")
        labels = {"tenant": "a", "substrate": "easypap", "outcome": "completed"}
        for v in latencies:
            h.observe(v, **labels)

        raw = BenchReport(requests=500, rate=1.0, duration=1.0, latencies=latencies)
        estimate = estimate_quantile(h, 0.5, **labels)
        assert estimate is not None
        bucket = lambda v: bisect_left(h.buckets, v)  # noqa: E731 - observe()'s rule
        assert abs(bucket(estimate) - bucket(raw.percentile(0.5))) <= 1
