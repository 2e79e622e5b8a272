"""Unit tests for the typed process metrics registry.

Counters/gauges/histograms with Prometheus-style labels; the text
exposition round-trips through :func:`parse_prometheus` (the
acceptance criterion for `repro metrics`); the engine hooks record
once per run / plan resolution into the process-wide ``REGISTRY``.
"""

import pytest

from repro.observe import (
    REGISTRY,
    MetricsError,
    MetricsRegistry,
    histogram_quantile,
    parse_prometheus,
)

from .conftest import fig1_model


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestFamilies:
    def test_counter_counts(self, registry):
        c = registry.counter("jobs_total", "Jobs.")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_gauge_sets_and_moves(self, registry):
        g = registry.gauge("depth", "Queue depth.")
        g.set(5)
        g.dec(2)
        assert g.value == 3

    def test_histogram_buckets_are_cumulative(self, registry):
        h = registry.histogram("ms", "Latency.", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 99.0):
            h.observe(value)
        text = registry.to_prometheus()
        assert 'ms_bucket{le="1"} 2' in text
        assert 'ms_bucket{le="5"} 3' in text
        assert 'ms_bucket{le="10"} 3' in text
        assert 'ms_bucket{le="+Inf"} 4' in text
        assert "ms_count 4" in text

    def test_labels_create_children(self, registry):
        c = registry.counter("runs_total", "Runs.", labelnames=("backend",))
        c.labels(backend="event").inc()
        c.labels(backend="event").inc()
        c.labels(backend="compiled").inc()
        assert c.labels(backend="event").value == 2
        assert c.labels(backend="compiled").value == 1

    def test_redeclaration_returns_the_same_family(self, registry):
        a = registry.counter("x_total", "X.")
        b = registry.counter("x_total", "X.")
        assert a is b

    def test_kind_mismatch_raises(self, registry):
        registry.counter("x_total", "X.")
        with pytest.raises(MetricsError):
            registry.gauge("x_total", "X.")

    def test_label_mismatch_raises(self, registry):
        c = registry.counter("y_total", "Y.", labelnames=("backend",))
        with pytest.raises(MetricsError):
            c.labels(nope="event")
        with pytest.raises(MetricsError):
            c.inc()  # labelled family needs .labels(...)

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.counter("bad name", "nope")

    def test_reset_clears_everything(self, registry):
        registry.counter("x_total", "X.").inc()
        registry.reset()
        assert registry.to_prometheus() == ""


class TestExposition:
    def _populated(self):
        registry = MetricsRegistry()
        runs = registry.counter(
            "runs_total", "Completed runs.", labelnames=("backend",)
        )
        runs.labels(backend="event").inc(2)
        runs.labels(backend="compiled").inc()
        registry.gauge("queue_depth", "Queued requests.").set(4)
        h = registry.histogram("build_ms", "Build wall.", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(3.0)
        return registry

    def test_prometheus_text_round_trips(self):
        registry = self._populated()
        parsed = parse_prometheus(registry.to_prometheus())
        assert parsed["runs_total"]["type"] == "counter"
        samples = {
            s["labels"]["backend"]: s["value"]
            for s in parsed["runs_total"]["samples"]
        }
        assert samples == {"event": 2.0, "compiled": 1.0}
        assert parsed["queue_depth"]["samples"][0]["value"] == 4.0
        buckets = {
            s["labels"]["le"]: s["value"]
            for s in parsed["build_ms_bucket"]["samples"]
        }
        assert buckets == {"1": 1.0, "10": 2.0, "+Inf": 2.0}
        assert parsed["build_ms_count"]["samples"][0]["value"] == 2.0

    def test_json_agrees_with_text(self):
        registry = self._populated()
        payload = registry.to_dict()
        assert payload["runs_total"]["type"] == "counter"
        by_backend = {
            s["labels"]["backend"]: s["value"]
            for s in payload["runs_total"]["samples"]
        }
        assert by_backend == {"event": 2.0, "compiled": 1.0}
        hist = payload["build_ms"]["samples"][0]
        assert hist["buckets"] == {"1": 1, "10": 2}
        assert hist["count"] == 2

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(MetricsError):
            parse_prometheus("this is not prometheus\n")

    def test_escaping_round_trips(self, registry):
        c = registry.counter(
            "esc_total", 'Help with "quotes" and \\slashes\\.',
            labelnames=("path",),
        )
        c.labels(path='a"b\\c\nd').inc()
        parsed = parse_prometheus(registry.to_prometheus())
        sample = parsed["esc_total"]["samples"][0]
        assert sample["labels"]["path"] == 'a"b\\c\nd'

    def test_help_and_type_once_per_family(self, registry):
        """Exposition hygiene: HELP/TYPE belong to the family, exactly
        once, no matter how many label sets the family has."""
        c = registry.counter(
            "multi_total", "Multi-series family.", labelnames=("op", "code"),
        )
        for op in ("simulate", "verify", "models"):
            for code in ("ok", "deadline", "queue_full"):
                c.labels(op=op, code=code).inc()
        text = registry.to_prometheus()
        assert text.count("# HELP multi_total ") == 1
        assert text.count("# TYPE multi_total ") == 1
        assert len(parse_prometheus(text)["multi_total"]["samples"]) == 9

    def test_parse_rejects_duplicate_help_and_type(self):
        dup_help = (
            "# HELP x_total X.\n# TYPE x_total counter\n"
            "x_total 1\n# HELP x_total X again.\n"
        )
        with pytest.raises(MetricsError, match="duplicate # HELP"):
            parse_prometheus(dup_help)
        dup_type = (
            "# HELP x_total X.\n# TYPE x_total counter\n"
            "x_total 1\n# TYPE x_total counter\n"
        )
        with pytest.raises(MetricsError, match="duplicate # TYPE"):
            parse_prometheus(dup_type)


class TestHistogramQuantile:
    BUCKETS = {1.0: 10.0, 5.0: 70.0, 10.0: 95.0, float("inf"): 100.0}

    def test_quantiles_pick_the_covering_bound(self):
        assert histogram_quantile(self.BUCKETS, 0.05) == 1.0
        assert histogram_quantile(self.BUCKETS, 0.50) == 5.0
        assert histogram_quantile(self.BUCKETS, 0.95) == 10.0

    def test_tail_in_the_inf_bucket_reports_largest_finite_bound(self):
        assert histogram_quantile(self.BUCKETS, 0.99) == 10.0

    def test_empty_and_zero_histograms(self):
        assert histogram_quantile({}, 0.5) == 0.0
        assert histogram_quantile({1.0: 0.0, float("inf"): 0.0}, 0.5) == 0.0

    def test_rejects_out_of_range_quantiles(self):
        with pytest.raises(MetricsError):
            histogram_quantile(self.BUCKETS, 1.5)

    def test_round_trips_from_a_scrape(self, registry):
        h = registry.histogram("ms", "Latency.", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 2.0, 3.0, 7.0):
            h.observe(value)
        parsed = parse_prometheus(registry.to_prometheus())
        buckets = {
            float(s["labels"]["le"]): s["value"]
            for s in parsed["ms_bucket"]["samples"]
        }
        assert histogram_quantile(buckets, 0.5) == 5.0
        assert histogram_quantile(buckets, 1.0) == 10.0


class TestEngineHooks:
    def test_runs_recorded_per_backend(self):
        REGISTRY.reset()
        model = fig1_model()
        model.elaborate(backend="event").run()
        model.elaborate(backend="compiled").run()
        model.elaborate(backend="compiled").run()
        parsed = parse_prometheus(REGISTRY.to_prometheus())
        runs = {
            s["labels"]["backend"]: s["value"]
            for s in parsed["repro_runs_total"]["samples"]
        }
        assert runs == {"event": 1.0, "compiled": 2.0}
        steps = {
            s["labels"]["backend"]: s["value"]
            for s in parsed["repro_steps_total"]["samples"]
        }
        assert steps["compiled"] == 2.0 * model.cs_max
        REGISTRY.reset()

    def test_plan_resolutions_recorded(self, tmp_path):
        REGISTRY.reset()
        model = fig1_model()
        model.elaborate(backend="compiled", plan_cache=tmp_path).run()
        model.elaborate(backend="compiled", plan_cache=tmp_path).run()
        parsed = parse_prometheus(REGISTRY.to_prometheus())
        sources = {
            s["labels"]["source"]: s["value"]
            for s in parsed["repro_plan_requests_total"]["samples"]
        }
        assert sources["miss"] == 1.0
        assert sources["hit"] == 1.0
        assert parsed["repro_plan_build_ms_count"]["samples"][0]["value"] == 2.0
        REGISTRY.reset()
