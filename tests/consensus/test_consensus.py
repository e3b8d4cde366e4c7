"""Ordering services: block assembly, Kafka-style, Raft, PBFT."""

import pytest

from repro.chain.block import make_genesis
from repro.chain.transaction import ProcedureCall, Transaction
from repro.common.events import EventScheduler
from repro.common.identity import Identity, ROLE_ORDERER
from repro.consensus.base import BlockAssembler, LogEntry, OrderingConfig
from repro.consensus.kafka import KafkaOrderingService
from repro.consensus.pbft import PBFTOrderingService
from repro.consensus.raft import LEADER, RaftOrderingService
from repro.net.transport import INSTANT, SimNetwork


def make_tx(i: int, signer: Identity) -> Transaction:
    return Transaction.create(
        signer, ProcedureCall("noop", (i,)), tx_id=f"tx-{i}")


@pytest.fixture
def signer():
    return Identity.create("client", "org1", "client",
                           issuer=Identity.create("a", "org1", "admin"))


def make_service(cls, n_orderers, scheduler, network, config=None):
    idents = [Identity.create(f"orderer{i}", f"org{i}", ROLE_ORDERER)
              for i in range(n_orderers)]
    return cls(scheduler, network, idents,
               config or OrderingConfig(block_size=3, block_timeout=0.5))


class TestBlockAssembler:
    def make(self, block_size=3):
        assembler = BlockAssembler(OrderingConfig(block_size=block_size,
                                                  block_timeout=1.0))
        assembler.start_with_genesis(make_genesis())
        return assembler

    def test_cuts_at_block_size(self, signer):
        assembler = self.make(block_size=2)
        assert assembler.feed(LogEntry(LogEntry.TX, make_tx(1, signer))) \
            is None
        block = assembler.feed(LogEntry(LogEntry.TX, make_tx(2, signer)))
        assert block is not None and block.number == 1 and len(block) == 2

    def test_time_to_cut_current_block(self, signer):
        assembler = self.make()
        assembler.feed(LogEntry(LogEntry.TX, make_tx(1, signer)))
        block = assembler.feed(LogEntry(LogEntry.TTC, 1))
        assert block is not None and len(block) == 1

    def test_duplicate_time_to_cut_ignored(self, signer):
        assembler = self.make()
        assembler.feed(LogEntry(LogEntry.TX, make_tx(1, signer)))
        assembler.feed(LogEntry(LogEntry.TTC, 1))
        assert assembler.feed(LogEntry(LogEntry.TTC, 1)) is None

    def test_stale_time_to_cut_ignored(self, signer):
        assembler = self.make()
        assembler.feed(LogEntry(LogEntry.TX, make_tx(1, signer)))
        assert assembler.feed(LogEntry(LogEntry.TTC, 99)) is None

    def test_duplicate_tx_id_dropped(self, signer):
        assembler = self.make(block_size=2)
        tx = make_tx(1, signer)
        assembler.feed(LogEntry(LogEntry.TX, tx))
        assert assembler.feed(LogEntry(LogEntry.TX, tx)) is None

    def test_chain_links(self, signer):
        assembler = self.make(block_size=1)
        b1 = assembler.feed(LogEntry(LogEntry.TX, make_tx(1, signer)))
        b2 = assembler.feed(LogEntry(LogEntry.TX, make_tx(2, signer)))
        assert b2.prev_hash == b1.block_hash

    def test_two_assemblers_cut_identical_blocks(self, signer):
        a, b = self.make(), self.make()
        entries = [LogEntry(LogEntry.TX, make_tx(i, signer))
                   for i in range(6)]
        blocks_a = [blk for e in entries if (blk := a.feed(e))]
        blocks_b = [blk for e in entries if (blk := b.feed(e))]
        assert [blk.block_hash for blk in blocks_a] == \
            [blk.block_hash for blk in blocks_b]


def collect_blocks(service, scheduler):
    received = []
    service.register_peer("peer0", lambda block, src: received.append(block))
    return received


class TestKafkaService:
    def test_orders_and_delivers(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(KafkaOrderingService, 3, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.start()
        for i in range(7):
            service.submit(make_tx(i, signer),
                           orderer_name=service.orderer_names[i % 3])
        scheduler.run(until=5.0)
        non_genesis = [b for b in received if b.number > 0]
        assert sum(len(b) for b in non_genesis) == 7
        # 7 txs, block size 3 -> blocks of 3, 3, 1 (last by timeout).
        assert [len(b) for b in non_genesis] == [3, 3, 1]

    def test_timeout_cut(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(KafkaOrderingService, 3, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.submit(make_tx(1, signer))
        scheduler.run(until=2.0)
        assert [b.number for b in received] == [0, 1]
        assert len(received[1]) == 1

    def test_blocks_signed_by_live_orderers(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(KafkaOrderingService, 3, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.submit(make_tx(1, signer))
        scheduler.run(until=2.0)
        assert len(received[1].orderer_signatures) == 3


class TestRaftService:
    def test_elects_single_leader(self):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(RaftOrderingService, 5, scheduler, network)
        service.start()
        scheduler.run(until=3.0)
        leaders = [n for n in service.nodes.values() if n.state == LEADER]
        assert len(leaders) == 1

    def test_replicates_and_cuts(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(RaftOrderingService, 3, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.start()
        scheduler.run(until=2.0)
        for i in range(4):
            service.submit(make_tx(i, signer),
                           orderer_name=service.orderer_names[i % 3])
        scheduler.run(until=8.0)
        non_genesis = {b.number: b for b in received if b.number > 0}
        assert sum(len(b) for b in non_genesis.values()) == 4

    def test_leader_failover(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(RaftOrderingService, 3, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.start()
        scheduler.run(until=2.0)
        old_leader = service.leader()
        assert old_leader is not None
        network.take_down(old_leader)
        scheduler.run(until=6.0)
        new_leader = service.leader()
        assert new_leader is not None and new_leader != old_leader
        # The survivors still order transactions.
        service.submit(make_tx(1, signer), orderer_name=new_leader)
        scheduler.run(until=12.0)
        assert any(len(b) == 1 for b in received if b.number > 0)

    def test_all_nodes_apply_same_log(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(RaftOrderingService, 3, scheduler, network)
        service.start()
        scheduler.run(until=2.0)
        for i in range(5):
            service.submit(make_tx(i, signer))
        scheduler.run(until=8.0)
        digests = set()
        for node in service.nodes.values():
            digests.add(tuple(
                entry.payload.tx_id for _, entry in node.log
                if entry.kind == LogEntry.TX))
        assert len(digests) == 1


class TestPBFTService:
    def test_requires_3f_plus_1(self):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        with pytest.raises(ValueError):
            make_service(PBFTOrderingService, 3, scheduler, network,
                         OrderingConfig(f=1))

    def test_orders_through_three_phases(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(PBFTOrderingService, 4, scheduler, network)
        received = collect_blocks(service, scheduler)
        service.start()
        for i in range(3):
            service.submit(make_tx(i, signer))
        scheduler.run(until=3.0)
        # Every replica delivers its own signed copy; peers dedupe by
        # block number, so the test does too.
        non_genesis = {b.number: b for b in received if b.number > 0}
        assert sum(len(b) for b in non_genesis.values()) == 3

    def test_replicas_converge(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(PBFTOrderingService, 4, scheduler, network)
        service.start()
        for i in range(5):
            # Submit through different replicas; non-primaries forward.
            service.submit(make_tx(i, signer),
                           orderer_name=service.orderer_names[i % 4])
        scheduler.run(until=5.0)
        # Every replica executes the same sequence (5 txs plus any
        # time-to-cut entries): same length, and the same hash chain of
        # cut blocks, which covers every transaction in order.
        replicas = list(service.replicas.values())
        assert len({r.executed_upto for r in replicas}) == 1
        assert len({r.assembler.prev_hash for r in replicas}) == 1
        assert not any(r.assembler.pending for r in replicas)
        assert sum(len(b) for b in service.blocks_cut) == 5
        # Executed everywhere, so the low-water mark caught up and the
        # three-phase logs hold nothing.
        for r in replicas:
            assert service.stable_seq == r.executed_upto >= 5
            assert not (r.pre_prepares or r.prepares or r.commits
                        or r.prepared or r.committed or r._seen_digests)
        # A resubmission through a backup (request + echoes) is still
        # recognised, now by the assemblers' own tx-id sets.
        upto = replicas[0].executed_upto
        service.submit(make_tx(0, signer),
                       orderer_name=service.orderer_names[1])
        scheduler.run(until=8.0)
        assert {r.executed_upto for r in replicas} == {upto}
        assert {r.next_seq for r in replicas if r.is_primary} == {upto + 1}

    def test_log_truncation_waits_for_the_slowest_replica(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(PBFTOrderingService, 4, scheduler, network)
        service.start()
        laggard = service.orderer_names[-1]
        network.take_down(laggard)
        txs = [make_tx(i, signer) for i in range(6)]
        for tx in txs:
            service.submit(tx)
        scheduler.run(until=3.0)
        live = [r for name, r in service.replicas.items()
                if name != laggard]
        # Quorum of three executes; nothing is truncated while the
        # fourth has executed nothing.
        assert all(r.executed_upto >= 6 for r in live)
        assert service.stable_seq == 0
        assert all(len(r.pre_prepares) >= 6 for r in live)
        # A resubmission is still recognised.
        before = live[0].next_seq
        service.submit(txs[0])
        scheduler.run(until=4.0)
        assert live[0].next_seq == before

    def test_view_change_on_primary_failure(self, signer):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT)
        service = make_service(PBFTOrderingService, 4, scheduler, network)
        service.start()
        primary = service.orderer_names[0]
        network.take_down(primary)
        # Submitting to a backup forwards to the dead primary and times out.
        service.submit(make_tx(1, signer),
                       orderer_name=service.orderer_names[1])
        scheduler.run(until=10.0)
        views = {replica.view for name, replica in service.replicas.items()
                 if name != primary}
        assert views == {1}
