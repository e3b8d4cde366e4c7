"""Node/network-level observability: the ``observability()`` bundle,
counter survival across crash/restart, and the structured slow-query
log."""

from tests.conftest import counter, make_kv_network


def warmed_network(flow="order-execute", writes=6):
    net = make_kv_network(flow)
    client = net.register_client("alice", "org1")
    client.invoke_and_wait("set_kv", "base", 1)
    for i in range(writes):
        client.invoke("set_kv", f"k-{i}", i)
    net.settle(timeout=60.0)
    return net, client


class TestObservabilityBundle:
    def test_bundle_shape(self):
        net, _ = warmed_network()
        obs = net.primary_node.observability()
        assert set(obs) == {"slow_queries", "trace", "metrics"}
        snap = obs["metrics"]
        assert set(snap) == {"counters", "gauges", "histograms"}
        node = net.primary_node.name
        assert snap["counters"][f'wal.flush_count{{node="{node}"}}'] > 0
        assert snap["counters"][f'wal.records_flushed{{node="{node}"}}'] > 0
        assert snap["histograms"][
            f'sql.exec_seconds{{node="{node}"}}']["count"] > 0
        assert snap["gauges"][
            f'columnstore.pending_commits{{node="{node}"}}'] == 0
        assert snap["gauges"][
            f'node.committed_height{{node="{node}"}}'] == \
            net.primary_node.db.committed_height

    def test_metrics_scoped_per_node(self):
        """Each node's bundle only carries its own label scope on the
        shared process-wide registry."""
        net, _ = warmed_network()
        a, b = net.nodes[0], net.nodes[1]
        for counters in (a.observability()["metrics"]["counters"],):
            assert any(f'node="{a.name}"' in key for key in counters)
            assert not any(f'node="{b.name}"' in key for key in counters)

    def test_transport_counters_live_at_network_level(self):
        net, _ = warmed_network()
        snap = net.metrics.snapshot()
        assert snap["counters"]["transport.messages_sent"] == \
            counter(net.network, "transport.messages_sent")
        assert snap["counters"]["transport.bytes_sent"] == \
            counter(net.network, "transport.bytes_sent")

    def test_prometheus_page(self):
        net, _ = warmed_network()
        page = net.primary_node.observability_prometheus()
        node = net.primary_node.name
        assert "# TYPE wal_flush_count counter" in page
        assert f'wal_flush_count{{node="{node}"}}' in page
        assert f'node_committed_height{{node="{node}"}}' in page
        # The whole-network page additionally carries transport series.
        full = net.metrics.render_prometheus()
        assert "transport_messages_sent" in full


class TestCounterDeterminism:
    def test_counters_are_a_function_of_the_seed(self):
        """Block commit runs on one thread, so every registry counter —
        ``wal.flush_count`` included, which used to depend on whether a
        background flush beat a foreground one — repeats exactly."""
        def run():
            net = make_kv_network("order-execute", block_size=8)
            client = net.register_client("alice", "org1")
            for i in range(30):
                client.invoke("set_kv", f"k{i}", i)
                if i % 5 == 4:
                    client.invoke("bump_kv", f"k{i - 1}", 1)
            net.settle(timeout=60.0)
            store = net.primary_node.blockstore
            full = [number for number in range(1, store.height + 1)
                    if len(store.get(number).transactions) >= 8]
            assert len(full) >= 3
            return net.metrics.snapshot()["counters"]

        first, second = run(), run()
        assert first == second
        flushes = [value for name, value in first.items()
                   if name.startswith("wal.flush_count")]
        assert len(flushes) == 3 and all(flushes)


class TestCounterSurvival:
    """Registry counters are process-lifetime: a node crash/restart
    re-binds to the same objects instead of zeroing them (deliberate —
    the catalog in docs/observability.md documents this per metric)."""

    def test_counters_survive_crash_and_restart(self):
        net, client = warmed_network()
        victim = net.nodes[1]
        flushes_before = counter(victim.db.wal, "wal.flush_count")
        synced_before = counter(victim.sync, "sync.blocks_requested")
        assert flushes_before > 0

        victim.crash()
        for i in range(4):
            client.invoke(f"set_kv", f"post-{i}", i)
        net.settle(timeout=60.0, expect_progress=False)
        victim.restart()
        net.settle(timeout=60.0)

        # Monotone across the crash: the restart added to the pre-crash
        # totals (catch-up replays flush the WAL again) — no reset.
        assert counter(victim.db.wal, "wal.flush_count") > flushes_before
        assert counter(victim.sync, "sync.blocks_requested") >= synced_before
        snap = net.metrics.snapshot(node=victim.name)
        assert snap["counters"][
            f'wal.flush_count{{node="{victim.name}"}}'] == \
            counter(victim.db.wal, "wal.flush_count")
        # Gauges read live post-restart state.
        assert snap["gauges"][
            f'node.crashed{{node="{victim.name}"}}'] is False

    def test_registry_object_identity_across_restart(self):
        net, client = warmed_network()
        victim = net.nodes[2]
        flushes = net.metrics.counter("wal.flush_count",
                                      node=victim.name)
        victim.crash()
        victim.restart()
        assert net.metrics.counter("wal.flush_count",
                                   node=victim.name) is flushes


class TestSlowQueryLog:
    def test_threshold_records_structured_entries(self):
        net, _ = warmed_network()
        node = net.primary_node
        node.db.slow_query_threshold_ms = 1e-6   # everything is "slow"
        node.query("SELECT k, v FROM kv WHERE k = 'base'")
        entries = node.observability()["slow_queries"]
        assert entries, "threshold crossed but nothing logged"
        entry = entries[-1]
        assert entry["kind"] == "select"
        assert entry["rows"] == 1
        assert entry["plan_ms"] >= 0 and entry["exec_ms"] >= 0
        assert "cache_hit" in entry and "plan" in entry

    def test_disabled_by_default(self):
        net, _ = warmed_network()
        node = net.primary_node
        node.query("SELECT k, v FROM kv WHERE k = 'base'")
        assert node.observability()["slow_queries"] == []

    def test_log_is_bounded(self):
        net, _ = warmed_network()
        node = net.primary_node
        node.db.max_slow_queries = 5
        node.db.slow_query_threshold_ms = 1e-6
        for i in range(9):
            node.query("SELECT count(*) FROM kv")
        entries = node.observability()["slow_queries"]
        assert len(entries) == 5
