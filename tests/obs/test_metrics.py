"""Unit tests for the metrics registry and the span tracer."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    trace_enabled_from_env,
)
from repro.obs.metrics import DEFAULT_BUCKETS, private_scope


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("wal.flush_count")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_get_or_create_identity(self):
        """Re-registering the same (name, labels) pair returns the same
        object — the restart re-bind semantics."""
        reg = MetricsRegistry()
        a = reg.counter("sync.blocks_requested", node="n1")
        b = reg.counter("sync.blocks_requested", node="n1")
        assert a is b
        other = reg.counter("sync.blocks_requested", node="n2")
        assert other is not a

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        a = reg.counter("m", x="1", y="2")
        b = reg.counter("m", y="2", x="1")
        assert a is b


class TestGauge:
    def test_set_and_read(self):
        reg = MetricsRegistry()
        g = reg.gauge("node.committed_height")
        g.set(7)
        assert g.value == 7

    def test_callback_evaluated_at_read_time(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        g = reg.gauge("depth", fn=lambda: box["v"])
        assert g.value == 1
        box["v"] = 9
        assert g.value == 9

    def test_callback_exception_reads_as_none(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("torn down")

        g = reg.gauge("broken", fn=boom)
        assert g.value is None

    def test_reregistration_rebinds_callback(self):
        """A restarted component re-registers its gauge; the fresh
        closure must replace the stale one."""
        reg = MetricsRegistry()
        reg.gauge("depth", fn=lambda: "old")
        g = reg.gauge("depth", fn=lambda: "new")
        assert g.value == "new"


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("span.test", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(5.0555)
        assert snap["buckets"] == {
            repr(0.001): 1, repr(0.01): 2, repr(0.1): 3, "+Inf": 4}

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestRegistryExport:
    def test_snapshot_shape_and_label_filter(self):
        reg = MetricsRegistry()
        reg.counter("wal.flush_count", node="n1").inc(3)
        reg.counter("wal.flush_count", node="n2").inc(5)
        reg.gauge("node.height", node="n1").set(2)
        reg.histogram("span.x", node="n1").observe(0.01)

        snap = reg.snapshot()
        assert set(snap) == {"counters", "gauges", "histograms"}
        assert snap["counters"]['wal.flush_count{node="n1"}'] == 3
        assert snap["counters"]['wal.flush_count{node="n2"}'] == 5

        only_n1 = reg.snapshot(node="n1")
        assert 'wal.flush_count{node="n2"}' not in only_n1["counters"]
        assert only_n1["counters"]['wal.flush_count{node="n1"}'] == 3
        assert 'span.x{node="n1"}' in only_n1["histograms"]

    def test_scope_bakes_labels(self):
        reg = MetricsRegistry()
        scope = reg.scope(node="n1")
        scope.counter("m").inc()
        assert reg.snapshot()["counters"]['m{node="n1"}'] == 1
        # Nested scopes merge labels.
        scope.scope(stage="c").counter("m2").inc()
        assert 'm2{node="n1",stage="c"}' in reg.snapshot()["counters"]

    def test_render_prometheus(self):
        reg = MetricsRegistry()
        reg.counter("wal.flush_count", node="n1").inc(2)
        reg.gauge("node.crashed", node="n1").set(False)
        reg.gauge("node.note", node="n1").set("text")   # non-numeric
        reg.histogram("span.commit", buckets=(0.01,), node="n1") \
            .observe(0.005)
        page = reg.render_prometheus()
        assert "# TYPE wal_flush_count counter" in page
        assert 'wal_flush_count{node="n1"} 2' in page
        assert 'node_crashed{node="n1"} 0' in page          # bool -> int
        assert "node_note" not in page                      # skipped
        assert 'span_commit_bucket{le="0.01",node="n1"} 1' in page
        assert 'span_commit_bucket{le="+Inf",node="n1"} 1' in page
        assert 'span_commit_count{node="n1"} 1' in page

    def test_private_scope_is_isolated(self):
        a = private_scope()
        b = private_scope()
        a.counter("m").inc()
        assert b.snapshot()["counters"].get("m", 0) == 0


class TestTracer:
    def test_disabled_by_default_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert trace_enabled_from_env() is False
        tracer = Tracer()
        with tracer.span("x") as span:
            span.annotate(rows=1)   # no-op span accepts annotations
        assert tracer.snapshot() == {
            "enabled": False, "spans": [], "span_counts": {}, "dropped": 0}

    @pytest.mark.parametrize("value,expect", [
        ("1", True), ("true", True), ("yes", True),
        ("", False), ("0", False), ("false", False), ("no", False)])
    def test_env_parsing(self, monkeypatch, value, expect):
        monkeypatch.setenv("REPRO_TRACE", value)
        assert trace_enabled_from_env() is expect

    def test_enabled_records_spans_and_histograms(self):
        reg = MetricsRegistry()
        tracer = Tracer(reg.scope(node="n1"), enabled=True)
        with tracer.span("pipeline.stage_b_commit", height=3) as span:
            span.annotate(committed=2)
        snap = tracer.snapshot()
        assert snap["enabled"] is True
        [entry] = snap["spans"]
        assert entry["name"] == "pipeline.stage_b_commit"
        assert entry["height"] == 3
        assert entry["committed"] == 2
        assert entry["ms"] >= 0
        assert snap["span_counts"] == {"pipeline.stage_b_commit": 1}
        hist = reg.snapshot()["histograms"]
        assert 'span.pipeline.stage_b_commit{node="n1"}' in hist

    def test_record_external_sim_time(self):
        tracer = Tracer(enabled=True)
        tracer.record("sync.request_cycle", 0.25, lo=3, hi=5)
        [entry] = tracer.snapshot()["spans"]
        assert entry == {"name": "sync.request_cycle", "ms": 250.0,
                         "lo": 3, "hi": 5}

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(enabled=True, max_spans=4)
        for i in range(7):
            tracer.record("x", 0.001, i=i)
        snap = tracer.snapshot()
        assert len(snap["spans"]) == 4
        assert snap["dropped"] == 3
        assert [s["i"] for s in snap["spans"]] == [3, 4, 5, 6]  # newest

    def test_span_records_even_when_body_raises(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("explodes"):
                raise ValueError("boom")
        assert tracer.snapshot()["span_counts"] == {"explodes": 1}

    def test_clear(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for _ in range(5):
            tracer.record("x", 0.001)
        tracer.clear()
        snap = tracer.snapshot()
        assert snap["spans"] == [] and snap["dropped"] == 0
