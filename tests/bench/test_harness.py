"""Experiment-harness plumbing: table rendering, sweeps, functional
network builder, determinism of the whole functional pipeline."""

import pytest

from repro.bench.harness import (
    build_functional_network,
    fig5_table,
    format_table,
    run_fig5,
    run_fig8b,
    run_functional_workload,
    run_micro_metrics,
    run_serial_baseline,
    sql_totals,
)
from repro.bench.perfmodel import FLOW_EO, FLOW_OE


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 22], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("bb")

    def test_fig5_table_contains_all_points(self):
        result = run_fig5(FLOW_OE, rates=[1200], block_sizes=[10],
                          duration=3.0)
        table = fig5_table(result)
        assert "1200" in table and "block_size" in table


class TestSweeps:
    def test_fig5_structure(self):
        result = run_fig5(FLOW_EO, rates=[1800, 2400],
                          block_sizes=[10, 100], duration=3.0)
        assert set(result["series"]) == {10, 100}
        for points in result["series"].values():
            assert len(points) == 2
        assert result["peak_throughput"] > 0

    def test_micro_metrics_columns(self):
        rows = run_micro_metrics(FLOW_OE, 1500, block_sizes=[10],
                                 duration=3.0)
        assert set(rows[0]) >= {"bs", "brr", "bpr", "bpt", "bet", "bct",
                                "tet", "su", "throughput"}

    def test_serial_baseline_keys(self):
        result = run_serial_baseline()
        assert 0 < result["ratio"] < 1

    def test_fig8b_monotone_bft(self):
        result = run_fig8b(orderer_counts=(4, 16, 32))
        bft = [r["bft_tps"] for r in result["rows"]]
        assert bft[0] > bft[-1]


class TestFunctionalHarness:
    def test_network_builder_seeds_data(self):
        net, clients = build_functional_network("order-execute",
                                                organizations=("org1",
                                                               "org2"))
        node = net.primary_node
        accounts = node.query("SELECT count(*) FROM accounts").scalar()
        invoices = node.query("SELECT count(*) FROM invoices").scalar()
        assert accounts == 8 and invoices == 24

    def test_functional_workload_deterministic_across_runs(self):
        """The whole pipeline — crypto, ordering, SSI, commit — is
        deterministic: two runs produce identical chains."""
        def tip_hash():
            result = run_functional_workload("order-execute", "simple",
                                             count=12)
            return result["committed"], result["blocks"]

        assert tip_hash() == tip_hash()

    def test_workload_reports_sync_observability(self):
        """The harness surfaces anti-entropy counters next to the SQL
        timings, read from the network's registry."""
        result = run_functional_workload("order-execute", "simple",
                                         count=8)
        assert result["sync_announces_sent"] > 0
        assert result["sync_retries"] == 0       # healthy run: no loss
        assert result["sync_blocks_requested"] == 0
        assert result["registry"]["wal.flush_count"] > 0

    def test_simple_workload_counts_its_dml_per_network(self):
        """``simple_insert`` is one INSERT: 12 transactions on 3 nodes
        are 36 statements (the process-global accumulator never saw DML
        and reported 0), and the numbers are this network's alone — a
        second network in the process does not move them."""
        result = run_functional_workload("order-execute", "simple",
                                         count=12)
        assert result["committed"] == 12
        assert result["sql_statements"] == 36
        assert result["sql_exec_ms_total"] > 0.0
        assert result["sql_plan_ms_total"] == 0.0   # INSERT plans nothing

        net, clients = build_functional_network(
            "order-execute", organizations=("org1", "org2"))
        before = sql_totals(net.metrics)
        run_functional_workload("order-execute", "simple", count=4)
        assert sql_totals(net.metrics) == before
        clients[0].invoke_and_wait("simple_insert", 990001, 1, "org1", 5.0)
        assert sql_totals(net.metrics)["statements"] == \
            before["statements"] + 2

    def test_functional_workload_chain_hash_reproducible(self):
        def run():
            net, clients = build_functional_network(
                "order-execute", organizations=("org1", "org2"),
                seed_data=False)
            clients[0].invoke_and_wait("simple_insert", 1, 1, "org1", 9.5)
            return net.primary_node.blockstore.tip().block_hash

        assert run() == run()
