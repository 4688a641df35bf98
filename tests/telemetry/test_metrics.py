"""Tests for the metrics registry and its exports (repro.telemetry.metrics)."""

import json

import pytest

from repro.telemetry.metrics import (
    METRICS,
    STANDARD_METRICS,
    MetricsRegistry,
)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "help", ("stage",))
        b = registry.counter("c_total")
        assert a is b

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_set_max_keeps_peak(self):
        gauge = MetricsRegistry().gauge("g", "", ("k",))
        gauge.set_max(5, k="a")
        gauge.set_max(3, k="a")
        gauge.set_max(7, k="a")
        assert gauge.value(k="a") == 7

    def test_reset_clears_samples_keeps_families(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert registry.get("c") is not None
        assert registry.get("c").value() == 0

    def test_standard_metrics_registered_globally(self):
        for _, name, _, _ in STANDARD_METRICS:
            assert METRICS.get(name) is not None, name


class TestExports:
    def test_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "c", ("x",)).inc(3, x="v")
        doc = json.loads(json.dumps(registry.to_json()))
        [family] = doc["metrics"]
        assert family["name"] == "c_total"
        assert family["samples"] == [{"labels": {"x": "v"}, "value": 3}]

    def test_write_produces_metrics_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("g").set(1.5)
        json_path = registry.write(tmp_path)
        assert json_path == tmp_path / "metrics.json"
        [family] = json.loads(json_path.read_text())["metrics"]
        assert family["samples"] == [{"labels": {}, "value": 1.5}]
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]

    def test_samples_are_deterministically_ordered(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "", ("k",))
        counter.inc(1, k="zeta")
        counter.inc(1, k="alpha")
        labels = [s["labels"]["k"] for s in counter.to_json()["samples"]]
        assert labels == ["alpha", "zeta"]


class TestPrometheusRendering:
    """Histograms keep the Prometheus bucket convention in ``to_json()``:
    cumulative ``le`` buckets, an implicit +Inf bucket equal to ``count``,
    and a running ``sum``."""

    def test_histogram_buckets_sum_count(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", "l", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        [sample] = registry.to_json()["metrics"][0]["samples"]
        assert sample["buckets"] == {"0.1": 1, "1.0": 2}
        assert sample["count"] == 3
        assert sample["sum"] == pytest.approx(5.55)

    def test_histogram_buckets_are_cumulative_and_capped_by_inf(self):
        # Buckets are cumulative: each bound counts every observation
        # <= bound, monotonically nondecreasing, and "count" (the
        # implicit +Inf bucket) counts every observation.
        registry = MetricsRegistry()
        hist = registry.histogram(
            "h_seconds", "", buckets=(0.01, 0.1, 1.0, 10.0)
        )
        for value in (0.005, 0.005, 0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        [sample] = registry.to_json()["metrics"][0]["samples"]
        assert sample["buckets"] == {"0.01": 2, "0.1": 3, "1.0": 4, "10.0": 5}
        assert sample["count"] == 6
        assert sample["sum"] == pytest.approx(55.56)
