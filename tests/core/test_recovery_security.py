"""Recovery after failure (section 3.6) and security properties
(section 3.5)."""

import pytest

from repro.errors import BlockValidationError, CheckpointMismatchError
from repro.node.block_processor import SimulatedCrash
from repro.node.recovery import RecoveryManager
from tests.conftest import counter, make_kv_network


def committed_value(client, key):
    rows = client.query("SELECT v FROM kv WHERE k = $1",
                        params=(key,)).rows
    return rows[0][0] if rows else None


class TestRecovery:
    def _network_with_data(self, flow="order-execute"):
        net = make_kv_network(flow)
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        return net, client

    def test_crash_before_status_record(self):
        """Case (a): commits durable, statuses missing — recovery fills
        them in from the WAL without re-execution."""
        net, client = self._network_with_data()
        victim = net.nodes[1]
        # Inject a crash for the next block on the victim only.
        original = victim.processor.process_block
        victim.processor.process_block = (
            lambda block: original(block,
                                   crash_point="before_status_record"))
        tx_id = client.invoke("set_kv", "crashkey", 42)
        with pytest.raises(SimulatedCrash):
            net.settle(timeout=30.0)
        victim.processor.process_block = original
        victim.crash()
        net.settle(timeout=30.0)

        report = victim.restart()
        assert report["finalized_blocks"] == 1
        entry = victim.ledger.entry(tx_id)
        assert entry["status"] == "committed"
        # The anti-entropy sync layer catches the victim up on anything
        # it missed while down — no out-of-band block hand-off.
        net.settle(timeout=30.0)
        net.assert_consistent()

    def test_crash_mid_commit_rolls_back_and_reexecutes(self):
        """Case (b): some transactions committed, some not — the whole
        block is rolled back and re-executed."""
        net, client = self._network_with_data()
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
        for tx_id in ids:
            assert victim.ledger.entry(tx_id)["status"] == "committed"
        net.settle(timeout=30.0)
        net.assert_consistent()

    def test_crash_after_ledger_record(self):
        """Crash between the ledger write and execution: nothing committed
        — full re-execution."""
        net, client = self._network_with_data()
        victim = net.nodes[2]
        original = victim.processor.process_block
        victim.processor.process_block = (
            lambda block: original(block,
                                   crash_point="after_ledger_record"))
        tx_id = client.invoke("set_kv", "alr", 7)
        with pytest.raises(SimulatedCrash):
            net.settle(timeout=30.0)
        victim.processor.process_block = original
        victim.crash()
        net.settle(timeout=30.0)
        victim.restart()
        assert victim.ledger.entry(tx_id)["status"] == "committed"
        net.settle(timeout=30.0)
        net.assert_consistent()

    def test_downed_node_catches_up_missing_blocks(self):
        """Section 3.6: 'the node then retrieves any missing blocks,
        processes and commits them one by one' — retrieval now runs
        through the anti-entropy sync protocol, no choreography."""
        net, client = self._network_with_data()
        victim = net.nodes[1]
        victim.crash()
        for i in range(5):
            client.invoke("set_kv", f"gap-{i}", i)
        net.settle(timeout=60.0)
        behind = net.nodes[0].blockstore.height - victim.blockstore.height
        assert behind >= 1
        victim.restart()
        net.settle(timeout=30.0)
        assert counter(victim.sync, "sync.blocks_requested") >= behind
        assert victim.blockstore.height == net.nodes[0].blockstore.height
        net.assert_consistent()

    def test_explicit_catch_up_still_supported(self):
        """The out-of-band catch_up API keeps working (and is what the
        sync layer itself drives block application through)."""
        net, client = self._network_with_data()
        victim = net.nodes[1]
        victim.crash()
        for i in range(3):
            client.invoke("set_kv", f"explicit-{i}", i)
        net.settle(timeout=60.0)
        victim.restart(recover=False)
        RecoveryManager(victim).recover()
        caught_up = RecoveryManager(victim).catch_up(
            list(net.ordering.blocks_cut))
        assert caught_up >= 1
        net.settle(timeout=30.0)
        net.assert_consistent()


class TestSecurityProperties:
    def test_tampered_blockstore_detected(self):
        """Section 3.5(6): tampering a stored block breaks the chain."""
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "t", 1)
        node = net.nodes[0]
        node.blockstore.tamper(1, metadata={"forged": True})
        with pytest.raises(BlockValidationError):
            node.blockstore.verify_chain()

    def test_unsigned_transaction_rejected(self):
        """Transactions must carry a valid signature of a registered
        user."""
        from repro.chain.transaction import ProcedureCall, Transaction
        from repro.common.identity import Identity

        net = make_kv_network("order-execute")
        outsider = Identity.create("outsider", "evil-org", "client")
        tx = Transaction.create(outsider, ProcedureCall("set_kv",
                                                        ("k", 1)))
        net.ordering.submit(tx)
        net.settle(timeout=30.0)
        entry = net.nodes[0].ledger.entry(tx.tx_id)
        assert entry["status"] == "aborted"
        assert net.nodes[0].query(
            "SELECT count(*) FROM kv").scalar() == 0

    def test_signature_forgery_rejected(self):
        """A transaction whose body was altered after signing aborts."""
        from repro.chain.transaction import ProcedureCall, Transaction

        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        good = Transaction.create(client.identity,
                                  ProcedureCall("set_kv", ("a", 1)),
                                  tx_id="forged-1")
        evil = Transaction(tx_id="forged-1", username="alice",
                           call=ProcedureCall("set_kv", ("a", 999)),
                           signature_bytes=good.signature_bytes)
        net.ordering.submit(evil)
        net.settle(timeout=30.0)
        entry = net.nodes[0].ledger.entry("forged-1")
        assert entry["status"] == "aborted"

    def test_malicious_node_detected_by_checkpoints(self):
        """Section 3.5(3): a node that skips committing a transaction is
        exposed by the write-set hash comparison."""
        net = make_kv_network("order-execute",
                              block_timeout=0.2)
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "cp", 1)

        evil = net.nodes[2]
        # The malicious node silently drops every write at commit time.
        original_commit = evil.db.apply_commit

        def skip_writes(tx, block_number=None, **kwargs):
            tx.writes = []
            return original_commit(tx, block_number, **kwargs)

        evil.db.apply_commit = skip_writes
        client.invoke("set_kv", "cp2", 2)
        with pytest.raises(CheckpointMismatchError):
            net.settle(timeout=60.0)
            # Honest nodes raise when the forged digest arrives in a
            # later block; force another block to carry it.
            client.invoke("set_kv", "cp3", 3)
            net.settle(timeout=60.0)
            raise CheckpointMismatchError("not detected")

    def test_byzantine_orderer_signature_quorum(self):
        """A peer requiring 2 orderer signatures ignores a block carrying
        only a forged one."""
        net = make_kv_network("order-execute", min_block_signatures=2)
        client = net.register_client("alice", "org1")
        result = client.invoke_and_wait("set_kv", "q", 1)
        assert result["status"] == "committed"
        for node in net.nodes:
            block = node.blockstore.get(1)
            assert len(block.orderer_signatures) >= 2
