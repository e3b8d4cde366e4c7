"""Network-level analytics: ingest hook, time travel, recovery, audits."""

import pytest

from repro import ProvenanceAuditor
from repro.node.block_processor import SimulatedCrash
from tests.conftest import counter, gauge, make_kv_network


def loaded_network(flow="order-execute"):
    net = make_kv_network(flow)
    alice = net.register_client("alice", "org1")
    alice.invoke_and_wait("set_kv", "k", 1)      # block 1
    alice.invoke_and_wait("bump_kv", "k", 10)    # block 2
    alice.invoke_and_wait("bump_kv", "k", 100)   # block 3
    return net, alice


class TestIngestHook:
    def test_block_processing_keeps_store_synced(self):
        net, _ = loaded_network()
        for node in net.nodes:
            store = node.db.columnstore
            assert not store.stale
            assert gauge(node, "columnstore.pending_commits") == 0
            assert store.synced_height == node.db.committed_height

    def test_every_node_serves_identical_history(self):
        net, _ = loaded_network()
        for height, expected in ((1, 1), (2, 11), (3, 111)):
            values = {node.query_as_of("SELECT v FROM kv", height).scalar()
                      for node in net.nodes}
            assert values == {expected}

    def test_periodic_compaction_runs(self):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "c", 0)
        store = net.primary_node.db.columnstore
        store.compact_every = 2
        for i in range(4):
            client.invoke_and_wait("bump_kv", "c", 1)
        assert counter(store, "columnstore.compactions") >= 1
        # Compaction must not corrupt history.
        node = net.primary_node
        assert node.query_as_of("SELECT v FROM kv", 1).scalar() == 0
        assert node.query_as_of("SELECT v FROM kv", 5).scalar() == 4


class TestClientTimeTravel:
    def test_query_as_of_heights(self):
        net, alice = loaded_network()
        assert alice.query_as_of("SELECT v FROM kv", 1).scalar() == 1
        assert alice.query_as_of("SELECT v FROM kv", 2).scalar() == 11
        assert alice.query_as_of("SELECT v FROM kv").scalar() == 111

    def test_explicit_clause_through_client(self):
        net, alice = loaded_network()
        # query() opens a read-only session, so the clause works there:
        assert alice.query("SELECT v FROM kv AS OF BLOCK 2").scalar() == 11

    def test_explain_through_node_shows_columnar_scan(self):
        net, alice = loaded_network()
        lines = [row[0] for row in alice.query_as_of(
            "EXPLAIN SELECT count(*) FROM kv", 2).rows]
        assert any("ColumnarScan on kv" in line for line in lines)

    def test_works_in_execute_order_flow(self):
        net, alice = loaded_network(flow="execute-order")
        heights = [alice.query_as_of("SELECT v FROM kv", h).scalar()
                   for h in (1, 2, 3)]
        assert heights == [1, 11, 111]


class TestVacuumInteraction:
    def test_as_of_below_vacuum_horizon_is_refused(self):
        from repro.errors import ExecutionError

        net, alice = loaded_network()
        node = net.primary_node
        node.vacuum(keep_blocks=1)   # retain height = committed - 1 = 2
        assert node.db.retained_height == 2
        assert alice.query_as_of("SELECT v FROM kv", 2).scalar() == 11
        with pytest.raises(ExecutionError, match="retention"):
            alice.query_as_of("SELECT v FROM kv", 1)

    def test_version_chain_survives_vacuum(self):
        net, alice = loaded_network()
        auditor = ProvenanceAuditor(alice)
        before = auditor.version_chain("kv", "k", "k")
        net.primary_node.vacuum(keep_blocks=0)
        after = auditor.version_chain("kv", "k", "k")
        # The columnar replica keeps its copies; the heap was pruned.
        assert after == before
        assert len(after) == 3


class TestProvenanceNewPath:
    def test_version_chain_matches_row_history(self):
        net, alice = loaded_network()
        auditor = ProvenanceAuditor(alice)
        chain = auditor.version_chain("kv", "k", "k")
        assert [(c["v"], c["creator"], c["deleter"]) for c in chain] == \
            [(1, 1, 2), (11, 2, 3), (111, 3, None)]
        assert all("xmin" in c and "row_id" in c for c in chain)

    def test_state_as_of(self):
        net, alice = loaded_network()
        auditor = ProvenanceAuditor(alice)
        assert auditor.state_as_of("kv", 2) == [{"k": "k", "v": 11}]

    def test_diff_between(self):
        net, alice = loaded_network()
        auditor = ProvenanceAuditor(alice)
        diff = auditor.diff_between("kv", 1, 3)
        assert [d["v"] for d in diff["created"]] == [11, 111]
        assert [d["v"] for d in diff["deleted"]] == [1, 11]

    def test_audits_match_provenance_sql(self):
        """The replica's audits equal what provenance SQL over the row
        store answers: every field of every version, in the same
        order."""
        net, alice = loaded_network()
        auditor = ProvenanceAuditor(alice)
        sql_chain = alice.provenance_query(
            "SELECT t.* FROM kv t WHERE t.k = $1 "
            "ORDER BY t.creator, t.row_id", params=("k",)).as_dicts()
        sql_diff = {
            "created": alice.provenance_query(
                "SELECT t.* FROM kv t WHERE t.creator > $1 "
                "AND t.creator <= $2 ORDER BY t.creator, t.row_id",
                params=(1, 3)).as_dicts(),
            "deleted": alice.provenance_query(
                "SELECT t.* FROM kv t WHERE t.deleter > $1 "
                "AND t.deleter <= $2 ORDER BY t.deleter, t.row_id",
                params=(1, 3)).as_dicts()}
        assert auditor.version_chain("kv", "k", "k") == sql_chain
        assert auditor.diff_between("kv", 1, 3) == sql_diff


class TestRecoveryRebuild:
    def test_crash_recovery_rebuilds_columnstore(self):
        """Case (b) recovery rolls committed work back and re-executes;
        the columnar replica must rebuild, not serve rolled-back rows."""
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        victim = net.nodes[1]
        original = victim.processor.process_block
        victim.processor.process_block = (
            lambda block: original(block, crash_point="mid_commit"))
        ids = [client.invoke("set_kv", f"mc-{i}", i) for i in range(4)]
        with pytest.raises(SimulatedCrash):
            net.settle(timeout=30.0)
        victim.processor.process_block = original
        victim.crash()
        net.settle(timeout=30.0)

        report = victim.restart()
        assert report["reexecuted_blocks"] == 1
        net.settle(timeout=30.0)
        net.assert_consistent()

        assert not victim.db.columnstore.stale
        # Recovered node answers historical queries like everyone else.
        height = victim.db.committed_height
        for node in net.nodes:
            assert node.query_as_of(
                "SELECT count(*) FROM kv", height).scalar() == 5
        assert victim.query_as_of("SELECT v FROM kv WHERE k = 'base'",
                                  1).scalar() == 1

    def test_case_a_recovery_ingests_finalized_block(self):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        victim = net.nodes[1]
        original = victim.processor.process_block
        victim.processor.process_block = (
            lambda block: original(block,
                                   crash_point="before_status_record"))
        client.invoke("set_kv", "crashkey", 42)
        with pytest.raises(SimulatedCrash):
            net.settle(timeout=30.0)
        victim.processor.process_block = original
        victim.crash()
        net.settle(timeout=30.0)

        report = victim.restart()
        assert report["finalized_blocks"] == 1
        net.settle(timeout=30.0)

        height = victim.db.committed_height
        assert victim.query_as_of(
            "SELECT v FROM kv WHERE k = 'crashkey'", height).scalar() == 42
