"""Anti-entropy block sync: gap detection, retrieval, backoff, and the
buffered-block replacement policy (self-healing replication)."""

import copy

import pytest

from repro.chain.block import Block
from repro.errors import StuckNodeError
from tests.conftest import counter, make_kv_network


def loaded_network(flow="order-execute", **kwargs):
    net = make_kv_network(flow, **kwargs)
    client = net.register_client("alice", "org1")
    client.invoke_and_wait("set_kv", "base", 1)
    return net, client


class TestSyncEndToEnd:
    @pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
    def test_restart_pulls_missed_blocks_in_order(self, flow):
        net, client = loaded_network(flow)
        victim = net.nodes[1]
        victim.crash()
        for i in range(6):
            client.invoke("set_kv", f"s-{i}", i)
        net.settle(timeout=60.0)
        reference = net.nodes[0].blockstore.height
        behind = reference - victim.blockstore.height
        assert behind >= 1

        victim.restart()
        net.settle(timeout=30.0)
        assert victim.blockstore.height == reference
        # Blocks were appended strictly in order: the chain verifies.
        victim.blockstore.verify_chain()
        net.assert_consistent()

    def test_sync_heals_under_wal_group_commit(self):
        """The replayed blocks land through catch_up's WAL group commit:
        every recovered transaction is durable and status-recorded."""
        net, client = loaded_network()
        victim = net.nodes[1]
        victim.crash()
        ids = [client.invoke("set_kv", f"w-{i}", i) for i in range(5)]
        net.settle(timeout=60.0)
        victim.restart()
        net.settle(timeout=30.0)
        for tx_id in ids:
            entry = victim.ledger.entry(tx_id)
            assert entry is not None and entry["status"] == "committed"
        # Every replayed block's commits are WAL-recorded, and the
        # group-commit replay left nothing unflushed.
        committed_at = {r.payload["block"]
                        for r in victim.db.wal.records()
                        if r.kind == "commit"}
        for number in range(1, victim.blockstore.height + 1):
            assert number in committed_at
        assert victim.db.wal._flushed_lsn == victim.db.wal._next_lsn - 1
        net.assert_consistent()

    def test_sync_metrics_exposed(self):
        net, client = loaded_network()
        victim = net.nodes[1]
        victim.crash()
        for i in range(4):
            client.invoke("set_kv", f"m-{i}", i)
        net.settle(timeout=60.0)
        behind = net.nodes[0].blockstore.height - victim.blockstore.height
        victim.restart()
        net.settle(timeout=30.0)

        assert counter(victim, "sync.blocks_requested") >= behind
        assert counter(victim, "sync.requests_sent") >= 1
        assert counter(victim, "sync.responses_received") >= 1
        assert counter(victim, "sync.gaps_detected") >= 1
        assert counter(victim, "sync.announces_sent") > 0
        # Someone served those blocks and counted them.
        assert counter(net, "sync.blocks_served") >= behind

    def test_announces_track_peer_heights(self):
        net, client = loaded_network()
        net.advance(1.0)  # a few heartbeat rounds
        height = net.nodes[0].blockstore.height
        for node in net.nodes:
            peers = set(node.sync.peers())
            assert peers  # everyone knows the other replicas
            for peer in peers:
                assert node.sync._peer_heights.get(peer) == height

    def test_timeout_rotates_peers_and_backs_off(self):
        """With every peer unreachable the request times out, backoff
        grows, and the node converges after the partition heals."""
        net, client = loaded_network()
        victim = net.nodes[1]
        victim.crash()
        for i in range(3):
            client.invoke("set_kv", f"p-{i}", i)
        net.settle(timeout=60.0)
        for node in net.nodes:
            if node is not victim:
                net.network.partition(victim.name, node.name)
        victim.restart(recover=False)
        # The victim heard how far ahead its peers are (e.g. from a last
        # announce before the partition cut it off) — every request it
        # now sends is lost on the wire.
        for node in net.nodes:
            if node is not victim:
                victim.sync._peer_heights[node.name] = \
                    node.blockstore.height
        net.settle(timeout=20.0, expect_progress=False)
        assert counter(victim.sync, "sync.retries") >= 2
        assert counter(victim.sync, "sync.backoff_ms_total") > 0
        assert victim.sync._backoff > victim.sync.backoff_base
        assert victim.blockstore.height < net.nodes[0].blockstore.height

        net.network.heal_all()
        net.settle(timeout=30.0)
        assert victim.blockstore.height == net.nodes[0].blockstore.height
        net.assert_consistent()

    def test_request_batch_is_bounded(self):
        net, client = loaded_network()
        serving = net.nodes[0]
        got = []
        serving.network.send = lambda src, dst, msg, size=256: \
            got.append(msg)  # capture instead of delivering
        try:
            serving.sync.on_request(
                "peer0@org2", {"id": 1, "lo": 1, "hi": 10_000})
        finally:
            del serving.network.send  # restore the class attribute
        assert len(got) == 1
        kind, payload = got[0]
        blocks = payload["blocks"]
        assert 1 <= len(blocks) <= serving.sync.max_batch
        assert [b.number for b in blocks] == \
            list(range(1, len(blocks) + 1))


class TestStuckDiagnostics:
    def test_settle_raises_for_unfillable_gap(self):
        """A buffered block the node can never chain to (its predecessor
        does not exist anywhere) names the gap instead of silently
        wedging."""
        net, _ = loaded_network()
        node = net.nodes[1]
        phantom = Block(number=net.nodes[0].blockstore.height + 5,
                        transactions=[]).seal()
        node._block_buffer[phantom.number] = phantom
        with pytest.raises(StuckNodeError, match="waiting for block"):
            net.settle(timeout=5.0)
        del node._block_buffer[phantom.number]

    def test_settle_tolerates_faults_when_told(self):
        net, _ = loaded_network()
        node = net.nodes[1]
        phantom = Block(number=net.nodes[0].blockstore.height + 5,
                        transactions=[]).seal()
        node._block_buffer[phantom.number] = phantom
        net.settle(timeout=5.0, expect_progress=False)  # no raise
        del node._block_buffer[phantom.number]


class TestBufferReplacement:
    """DatabaseNode.on_block must not let a same-number different-hash
    copy evict a strictly better buffered block."""

    def _buffered_victim(self):
        """A restarted node, plus a signed block two past its height — a
        block it must *buffer* (its predecessor is still missing), which
        is exactly where the replacement policy applies."""
        net, client = loaded_network()
        victim = net.nodes[1]
        victim.crash()
        for i in range(3):   # one block each: distinct block numbers
            client.invoke_and_wait("set_kv", f"b-{i}", i)
        victim.restart(recover=False)  # scheduler not run: sync is inert
        by_number = {b.number: b for b in net.ordering.blocks_cut}
        good = by_number[victim.blockstore.height + 2]
        return net, victim, good

    def test_corrupt_copy_cannot_evict_valid_block(self):
        net, victim, good = self._buffered_victim()
        number = good.number
        victim.on_block(good, "orderer")
        assert number in victim._block_buffer  # buffered, not processed
        corrupt = copy.deepcopy(good)
        corrupt.metadata = dict(corrupt.metadata, forged=True)
        corrupt.block_hash = corrupt.compute_hash()
        corrupt.orderer_signatures = dict(good.orderer_signatures)
        # Signatures cover the *original* hash: zero verify against the
        # forged one, so the corrupt copy scores below the valid block.
        victim.on_block(corrupt, "evil-orderer")
        assert victim._block_buffer[number].block_hash == good.block_hash

    def test_unsigned_duplicate_cannot_evict_signed_block(self):
        net, victim, good = self._buffered_victim()
        number = good.number
        victim.on_block(good, "orderer")
        stripped = copy.deepcopy(good)
        stripped.metadata = dict(stripped.metadata, alt=True)
        stripped.block_hash = stripped.compute_hash()
        stripped.orderer_signatures = {}
        victim.on_block(stripped, "evil-orderer")
        assert victim._block_buffer[number].block_hash == good.block_hash

    def test_better_copy_replaces_corrupt_one(self):
        net, victim, good = self._buffered_victim()
        number = good.number
        corrupt = copy.deepcopy(good)
        corrupt.metadata = dict(corrupt.metadata, forged=True)
        # Hash NOT recomputed: fails integrity, scores (0, _, 0).
        victim._block_buffer[number] = corrupt
        victim.on_block(good, "orderer")
        assert victim._block_buffer.get(number, good).block_hash == \
            good.block_hash

    def test_same_hash_copy_merges_signatures(self):
        net, victim, good = self._buffered_victim()
        number = good.number
        victim.on_block(good, "orderer")
        dup = copy.deepcopy(good)
        dup.orderer_signatures["extra-orderer"] = b"\x01" * 64
        victim.on_block(dup, "orderer")
        assert "extra-orderer" in \
            victim._block_buffer[number].orderer_signatures

    def test_first_seen_wins_ties(self):
        net, victim, good = self._buffered_victim()
        number = good.number
        twin = copy.deepcopy(good)
        twin.metadata = dict(twin.metadata, alt=True)
        twin.block_hash = twin.compute_hash()
        twin.orderer_signatures = {}
        stripped = copy.deepcopy(good)
        stripped.orderer_signatures = {}
        victim._block_buffer[number] = stripped   # tie on score...
        victim.on_block(twin, "orderer")
        assert victim._block_buffer[number].block_hash == good.block_hash
