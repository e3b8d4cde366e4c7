"""Chaos harness: deterministic fault schedules over a live workload.

The acceptance property of the self-healing replication layer: a network
subjected to seeded message drops, duplicates, delays, reorders,
partitions and node crashes converges to byte-identical state — table
fingerprints, pgLedger contents, checkpoint digests — once the faults
heal, within a bounded number of settle rounds.  And with the fault plan
disabled (or installed as an all-noop), the run is byte-identical to the
unperturbed pipeline: the fault layer costs nothing when off.

Every schedule is seeded (transport RNG, fault-plan RNG, per-node sync
jitter RNG), so any failure here replays exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.transport import FaultPlan, LinkFaults
from tests.conftest import counter, make_kv_network

#: Node-local pgLedger columns are excluded from cross-node comparison:
#: ``txid`` is the local xid, ``committime`` is wall clock, and abort
#: ``reason`` embeds local conflict xids.
LEDGER_SQL = ("SELECT tx_id, blocknumber, blockposition, username, "
              "procedure, status FROM pgledger")

CHAOS_FAULTS = LinkFaults(drop=0.10, duplicate=0.10,
                          delay_multiplier=1.5, reorder_window=0.001)


def ledger_rows(node, sql=LEDGER_SQL):
    return sorted(node.query(sql).rows)


def checkpoint_digests(node):
    return {height: node.checkpoints.local_digest(height)
            for height in range(1, node.db.committed_height + 1)}


def assert_converged(net):
    """Byte-level convergence: tables, ledger, checkpoint digests."""
    net.assert_consistent()
    live = [n for n in net.nodes if not n.crashed]
    reference = live[0]
    want_ledger = ledger_rows(reference)
    want_digests = checkpoint_digests(reference)
    assert want_ledger, "workload produced no ledger entries"
    for node in live[1:]:
        assert ledger_rows(node) == want_ledger, \
            f"pgLedger diverged on {node.name}"
        got = checkpoint_digests(node)
        assert got.keys() == want_digests.keys()
        for height, want in want_digests.items():
            if want is not None and got[height] is not None:
                assert got[height] == want, \
                    f"checkpoint digest @{height} diverged on {node.name}"
    assert_registry_consistent(net, live)


def assert_registry_consistent(net, live):
    """After healing, each node's metrics registry scope must agree with
    the state it describes: height gauges match the database and
    nothing in the snapshot is torn (a crashed-then-restarted node
    re-binds, never zeroes)."""
    for node in live:
        snap = net.metrics.snapshot(node=node.name)
        suffix = f'{{node="{node.name}"}}'
        assert snap["gauges"]["node.committed_height" + suffix] == \
            node.db.committed_height
        assert snap["gauges"]["node.crashed" + suffix] is False
        assert snap["counters"]["wal.flush_count" + suffix] > 0
    heights = {snapshot_height(net, n) for n in live}
    assert len(heights) == 1, \
        f"committed-height gauges diverged after heal: {heights}"


def snapshot_height(net, node):
    return net.metrics.snapshot(node=node.name)["gauges"][
        f'node.committed_height{{node="{node.name}"}}']


def heal_and_settle(net, rounds=3, timeout=60.0):
    """Clear every fault, then give the anti-entropy layer a *bounded*
    number of settle rounds to converge (the acceptance criterion)."""
    net.network.clear_fault_plan()
    net.network.heal_all()
    for node in net.nodes:
        if node.crashed:
            node.restart()
    for _ in range(rounds):
        net.settle(timeout=timeout, expect_progress=False)
    net.settle(timeout=timeout)  # strict: raises on any stuck node


class TestChaosConvergence:
    """Seeded drop/dup/delay/reorder chaos + a crash and a partition,
    across both flows and all three consensus backends."""

    @pytest.mark.parametrize("consensus", ["kafka", "raft", "pbft"])
    @pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
    def test_converges_after_heal(self, flow, consensus):
        orgs = ["org1", "org2", "org3", "org4"] if consensus == "pbft" \
            else None   # PBFT with f=1 needs 3f+1 orderers
        net = make_kv_network(flow, consensus=consensus, orgs=orgs)
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)

        net.network.set_fault_plan(FaultPlan(seed=13,
                                             default=CHAOS_FAULTS))
        for i in range(4):
            client.invoke("set_kv", f"a-{i}", i)
        net.settle(timeout=30.0, expect_progress=False)

        # Partition one replica away, crash another, keep committing.
        partitioned = net.nodes[1]
        for node in net.nodes:
            if node is not partitioned:
                net.network.partition(partitioned.name, node.name)
        victim = net.nodes[2]
        victim.crash()
        for i in range(4):
            client.invoke("set_kv", f"b-{i}", i)
        net.settle(timeout=30.0, expect_progress=False)

        # Heal the wire but keep the victim down: blocks the network
        # commits now are provably missing from the victim's store (a
        # lossy fault phase can swallow whole transactions before they
        # reach the orderers — that is a client-retry concern, not a
        # replication one).
        net.network.clear_fault_plan()
        net.network.heal_all()
        for i in range(2):
            client.invoke_and_wait("set_kv", f"c-{i}", i)

        heal_and_settle(net)
        assert_converged(net)
        # The chaos actually bit: faults were injected, sync healed.
        assert counter(net.network, "transport.messages_dropped") > 0
        assert counter(net.network, "transport.messages_duplicated") > 0
        assert counter(victim.sync, "sync.blocks_requested") >= 1


class TestChaosDeterminism:
    def _chaos_run(self, plan_seed):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        net.network.set_fault_plan(FaultPlan(seed=plan_seed,
                                             default=CHAOS_FAULTS))
        for i in range(6):
            client.invoke("set_kv", f"c-{i}", i)
            if i % 2 == 0:
                client.invoke("bump_kv", "base", 1)
        net.settle(timeout=30.0, expect_progress=False)
        heal_and_settle(net)
        assert_converged(net)
        return {
            "dropped": counter(net.network, "transport.messages_dropped"),
            "duplicated": counter(net.network,
                                  "transport.messages_duplicated"),
            "ledger": ledger_rows(net.nodes[0]),
            "digests": checkpoint_digests(net.nodes[0]),
            "wal": [r.to_json() for r in net.nodes[0].db.wal.records()],
        }

    def test_same_seed_chaos_replays_exactly(self):
        """A chaos schedule is reproducible bug for bug: same seeds, same
        drops, same final WAL bytes."""
        first = self._chaos_run(plan_seed=21)
        second = self._chaos_run(plan_seed=21)
        assert first == second
        assert first["dropped"] > 0

    def test_different_seed_injects_different_faults(self):
        first = self._chaos_run(plan_seed=21)
        second = self._chaos_run(plan_seed=22)
        assert (first["dropped"], first["duplicated"]) != \
            (second["dropped"], second["duplicated"])
        # ... but both converge to an equivalent committed ledger.
        assert first["ledger"] == second["ledger"]


class TestZeroFaultByteIdentity:
    """Fault plan disabled (or all-noop) == the current pipeline, byte
    for byte: WAL records, table fingerprints, ledger, digests."""

    def _run(self, flow, plan):
        net = make_kv_network(flow)
        net.network.set_fault_plan(plan)
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        for i in range(5):
            client.invoke("set_kv", f"z-{i}", i)
            client.invoke("bump_kv", "base", 1)
        net.settle(timeout=60.0)
        artifacts = []
        for node in net.nodes:
            artifacts.append({
                "wal": [r.to_json() for r in node.db.wal.records()],
                "kv": net._table_fingerprint(node, "kv"),
                "ledger": ledger_rows(node),
                "digests": checkpoint_digests(node),
                "height": node.blockstore.height,
            })
        return artifacts

    @pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
    def test_noop_plan_is_byte_identical(self, flow):
        bare = self._run(flow, plan=None)
        noop = self._run(flow, plan=FaultPlan(seed=77,
                                              default=LinkFaults()))
        assert bare == noop


class TestHypothesisSchedules:
    @settings(max_examples=5, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(plan_seed=st.integers(min_value=0, max_value=2**16),
           drop=st.floats(min_value=0.0, max_value=0.15),
           duplicate=st.floats(min_value=0.0, max_value=0.15),
           delay=st.floats(min_value=1.0, max_value=2.0),
           victim_index=st.integers(min_value=0, max_value=2),
           crash_at=st.integers(min_value=0, max_value=5))
    def test_random_schedule_converges(self, plan_seed, drop, duplicate,
                                       delay, victim_index, crash_at):
        """Property: *any* seeded schedule of faults plus one mid-run
        crash/restart converges after heal."""
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)
        net.network.set_fault_plan(FaultPlan(
            seed=plan_seed,
            default=LinkFaults(drop=drop, duplicate=duplicate,
                               delay_multiplier=delay,
                               reorder_window=0.0005)))
        victim = net.nodes[victim_index]
        for i in range(6):
            if i == crash_at and not victim.crashed:
                victim.crash()
            client.invoke("set_kv", f"h-{i}", i)
        net.settle(timeout=30.0, expect_progress=False)
        heal_and_settle(net)
        assert_converged(net)
