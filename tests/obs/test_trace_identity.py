"""Byte-identity property: observability is observation-only.

The acceptance criterion of the metrics/tracing subsystem: enabling
``REPRO_TRACE`` (full span instrumentation over the commit pipeline,
consensus rounds, sync cycles and recovery) changes **no engine byte**.
The same workload runs twice — tracing off, tracing on — and every
durable artifact must match exactly: WAL record sequences, table
fingerprints, pgLedger rows, checkpoint digests, committed heights, and
EXPLAIN / EXPLAIN ANALYZE output (wall-clock fields masked; row counts
exact).

Covered across both flows of the commit pipeline and a seeded chaos
schedule with a crash/recovery in the middle — the code paths whose span
instrumentation touches the most state.
"""

import os
import re
from unittest import mock

import pytest

from repro.net.transport import FaultPlan, LinkFaults
from tests.conftest import make_kv_network

LEDGER_SQL = ("SELECT tx_id, blocknumber, blockposition, username, "
              "procedure, status FROM pgledger")

EXPLAIN_SQL = ("SELECT k, v FROM kv WHERE k = 'base'",
               "SELECT count(*), sum(v) FROM kv",
               "SELECT k FROM kv ORDER BY k LIMIT 3")

_TIME_FIELDS = re.compile(r"time=\d+\.\d{3}ms|Time: \d+\.\d{3} ms")


def _mask(lines):
    return [_TIME_FIELDS.sub("<t>", line) for line in lines]


def _artifacts(net):
    out = []
    for node in net.nodes:
        digests = {h: node.checkpoints.local_digest(h)
                   for h in range(1, node.db.committed_height + 1)}
        explains = {}
        for sql in EXPLAIN_SQL:
            explains[sql] = [r[0] for r in
                             node.query("EXPLAIN " + sql).rows]
            explains["ANALYZE " + sql] = _mask(
                [r[0] for r in
                 node.query("EXPLAIN ANALYZE " + sql).rows])
        out.append({
            "wal": [r.to_json() for r in node.db.wal.records()],
            "kv": net._table_fingerprint(node, "kv"),
            "ledger": sorted(node.query(LEDGER_SQL).rows),
            "digests": digests,
            "height": node.blockstore.height,
            "explain": explains,
        })
    return out


PIPELINE_SPANS = {"pipeline.process_block", "pipeline.stage_b_commit",
                  "finalize.apply", "finalize.columnstore_ingest",
                  "finalize.digest_fold", "finalize.wal_flush"}


def _run(flow, chaos, trace):
    env = {"REPRO_TRACE": "1" if trace else "0"}
    with mock.patch.dict(os.environ, env):
        net = make_kv_network(flow)
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        if chaos:
            net.network.set_fault_plan(FaultPlan(
                seed=21,
                default=LinkFaults(drop=0.10, duplicate=0.10,
                                   delay_multiplier=1.5,
                                   reorder_window=0.001)))
        victim = net.nodes[2] if chaos else None
        for i in range(6):
            if chaos and i == 3:
                victim.crash()
            client.invoke("set_kv", f"k-{i}", i)
            if i % 2 == 0:
                client.invoke("bump_kv", "base", 1)
        net.settle(timeout=30.0, expect_progress=False)
        if chaos:
            net.network.clear_fault_plan()
            net.network.heal_all()
            victim.restart()
            for _ in range(3):
                net.settle(timeout=60.0, expect_progress=False)
        net.settle(timeout=60.0)

        # The trace toggle must actually have taken effect.
        for node in net.nodes:
            assert node.tracer.enabled is trace
        if trace:
            spans = net.primary_node.tracer.snapshot()["span_counts"]
            assert PIPELINE_SPANS <= set(spans), \
                f"traced run is missing pipeline spans: {spans}"
            if chaos:
                recovered = net.nodes[2].tracer.snapshot()["span_counts"]
                assert "recovery.recover" in recovered
        return _artifacts(net)


@pytest.mark.parametrize("flow,chaos", [
    ("order-execute", False),
    ("execute-order", False),
    ("order-execute", True),      # chaos + crash + recovery replay
])
def test_tracing_is_byte_invisible(flow, chaos):
    untraced = _run(flow, chaos, trace=False)
    traced = _run(flow, chaos, trace=True)
    assert untraced == traced


def test_histograms_never_reach_the_planner():
    """Spot-check of the write-only rule: planning the same statement
    before and after heavy histogram traffic yields identical plans
    (timings cannot feed back into costing)."""
    with mock.patch.dict(os.environ, {"REPRO_TRACE": "1"}):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        node = net.primary_node
        sql = "SELECT k, v FROM kv WHERE k = 'base'"

        def plan_lines():
            # The cache note flips miss->hit across calls by design;
            # the *plan* itself is what must stay identical.
            return [r[0] for r in node.query("EXPLAIN " + sql).rows
                    if not r[0].startswith("Plan Cache:")]

        before = plan_lines()
        for _ in range(50):
            node.metrics.histogram("span.pipeline.stage_b_commit") \
                .observe(1.0)
            node.query(sql)
        after = plan_lines()
        assert before == after
