"""Tests for the unified metrics registry (`repro.obs.metrics`)."""

import pytest

from repro.core import algebra
from repro.core.relations import GeneralizedRelation, Schema
from repro.obs import TraceRecorder, tracing
from repro.obs.metrics import (
    COUNTERS,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_metrics,
)


def small_relation() -> GeneralizedRelation:
    rel = GeneralizedRelation.empty(Schema.make(temporal=["t"]))
    rel.add_tuple(["2 + 6n"])
    rel.add_tuple(["1 + 4n"])
    return rel


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry()
        assert reg.counters["x"] == 0  # a missing name reads 0
        reg.counters["x"] += 1
        reg.counters["x"] += 4
        assert reg.counters["x"] == 5
        reg.reset()
        assert reg.counters["x"] == 0

    def test_gauge(self):
        g = Gauge("depth")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2

    def test_histogram_summary(self):
        h = Histogram("ms")
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["max"] == 4.0
        assert h.quantile(0.5) == pytest.approx(2.0, abs=1.0)

    def test_histogram_empty(self):
        h = Histogram("ms")
        assert h.quantile(0.5) is None
        assert h.mean is None
        assert h.summary()["count"] == 0

    def test_histogram_quantile_bounds(self):
        h = Histogram("ms")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_reservoir_deterministic(self):
        # Counts stay exact past the reservoir; quantiles come from the
        # deterministic first-N reservoir, so two equal runs agree.
        a, b = Histogram("a"), Histogram("b")
        for i in range(10_000):
            a.observe(float(i))
            b.observe(float(i))
        assert a.summary() == b.summary()
        assert a.summary()["count"] == 10_000


class TestRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counters["ops"] += 2
        reg.gauge("depth").set(1)
        reg.histogram("ms").observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["ops"] == 2
        assert snap["gauges"]["depth"] == 1
        assert snap["histograms"]["ms"]["count"] == 1

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counters["ops"] += 1
        store = reg.counters
        reg.reset()
        assert reg.counters is store  # cleared in place
        assert reg.snapshot()["counters"].get("ops", 0) == 0


class TestGlobalRegistry:
    def test_global_store_is_the_registry_store(self):
        assert COUNTERS is get_registry().counters
        COUNTERS["test.bump"] += 3
        assert get_registry().snapshot()["counters"]["test.bump"] >= 3
        reset_metrics()
        assert COUNTERS is get_registry().counters
        assert "test.bump" not in get_registry().snapshot()["counters"]

    def test_perf_counters_folded_in(self):
        reset_metrics()
        rel = small_relation()
        algebra.intersect(rel, rel)
        snap = get_registry().snapshot()
        perf_keys = [k for k in snap["counters"] if k.startswith("perf.")]
        assert perf_keys, "the algebra bumped no perf counter"

    def test_span_histograms_recorded(self):
        reset_metrics()
        rel = small_relation()
        with tracing(TraceRecorder()):
            algebra.union(rel, rel)
        snap = get_registry().snapshot()
        assert "span.algebra.union.ms" in snap["histograms"]
        assert snap["histograms"]["span.algebra.union.ms"]["count"] >= 1

    def test_histograms_optional_per_recorder(self):
        reset_metrics()
        rel = small_relation()
        with tracing(TraceRecorder(record_histograms=False)):
            algebra.union(rel, rel)
        snap = get_registry().snapshot()
        # The instrument may exist from earlier traced runs (reset keeps
        # registered instruments), but this run observed nothing.
        recorded = snap["histograms"].get("span.algebra.union.ms")
        assert recorded is None or recorded["count"] == 0
