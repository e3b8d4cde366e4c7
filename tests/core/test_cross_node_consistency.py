"""The paper's central claim: all untrusted replicas commit the same
transactions in the same serializable order — under contention, in both
flows, over every consensus implementation."""

import random

import pytest

from repro.core.network import BlockchainNetwork
from repro.core.provenance import ProvenanceAuditor
from repro.net.transport import LatencyModel
from tests.conftest import make_kv_network


def run_contention(net, n_clients=4, n_keys=3, n_rounds=12, seed=5):
    """Fire conflicting set/bump/copy traffic and settle."""
    rng = random.Random(seed)
    clients = [net.register_client(f"cl{i}", net.organizations[
        i % len(net.organizations)]) for i in range(n_clients)]
    # Seed keys deterministically.
    for key in range(n_keys):
        clients[0].invoke_and_wait("set_kv", f"k{key}", 0)
    tx_ids = []
    for round_no in range(n_rounds):
        client = clients[round_no % n_clients]
        action = rng.random()
        key = f"k{rng.randrange(n_keys)}"
        if action < 0.5:
            tx_ids.append(client.invoke("bump_kv", key, 1))
        elif action < 0.8:
            tx_ids.append(client.invoke("get_then_set", key,
                                        f"copy-{round_no}"))
        else:
            tx_ids.append(client.invoke("set_kv", f"new-{round_no}",
                                        round_no))
        if rng.random() < 0.4:
            net.advance(0.3)
    net.settle(timeout=120.0)
    return clients, tx_ids


class TestCrossNodeConsistency:
    @pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
    def test_contention_converges(self, flow):
        net = make_kv_network(flow, block_size=4, block_timeout=0.15)
        clients, tx_ids = run_contention(net)
        net.assert_consistent()
        # Every node records identical statuses for every transaction.
        for tx_id in tx_ids:
            statuses = {node.name: (node.ledger.entry(tx_id) or
                                    {}).get("status")
                        for node in net.nodes}
            assert len(set(statuses.values())) == 1, statuses

    def test_a_row_edited_on_one_node_is_named(self):
        """Replicas are compared by digest; on a mismatch both row lists
        are rebuilt, so the error names the table, both nodes and the
        rows only one of them holds."""
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        for key, value in (("a", 1), ("b", 2)):
            client.invoke_and_wait("set_kv", key, value)
        net.assert_consistent()
        reference, edited = net.nodes[0], net.nodes[-1]
        row = next(version for version in
                   edited.db.catalog.heap_of("kv").all_versions()
                   if version.values["k"] == "b")
        row.values["v"] = 2.0      # equal under =, not under repr
        with pytest.raises(AssertionError) as excinfo:
            net.assert_consistent()
        assert str(excinfo.value) == (
            f"table 'kv' diverged between {reference.name} and "
            f"{edited.name}:\n"
            f"  only on {reference.name}:\n    [('k', 'b'), ('v', 2)]\n"
            f"  only on {edited.name}:\n    [('k', 'b'), ('v', 2.0)]")
        row.values["v"] = 2
        net.assert_consistent()

    @pytest.mark.parametrize("consensus,orgs", [
        ("kafka", ["org1", "org2", "org3"]),
        ("raft", ["org1", "org2", "org3"]),
        ("pbft", ["org1", "org2", "org3", "org4"]),
    ])
    def test_all_consensus_converge_under_contention(self, consensus,
                                                     orgs):
        net = make_kv_network("order-execute", consensus=consensus,
                              orgs=orgs, block_size=4, block_timeout=0.15)
        run_contention(net, n_rounds=8)
        net.advance(5.0)
        net.assert_consistent()

    def test_eo_flow_value_convergence_under_ww_storm(self):
        """Hammer one key from every org concurrently; whatever the abort
        pattern, all replicas end with the same value and ledger."""
        net = make_kv_network("execute-order", block_size=3,
                              block_timeout=0.1)
        clients = [net.register_client(f"w{i}", org)
                   for i, org in enumerate(net.organizations)]
        clients[0].invoke_and_wait("set_kv", "hot", 0)
        for wave in range(4):
            for client in clients:
                client.invoke("bump_kv", "hot", 1)
            net.advance(0.5)
        net.settle(timeout=120.0)
        net.assert_consistent()
        value = clients[0].query(
            "SELECT v FROM kv WHERE k = 'hot'").scalar()
        committed_bumps = clients[0].query(
            "SELECT count(*) FROM pgledger WHERE procedure = 'bump_kv' "
            "AND status = 'committed'").scalar()
        assert value == committed_bumps

    def test_block_height_advances_identically(self):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        for i in range(5):
            client.invoke_and_wait("set_kv", f"h{i}", i)
        heights = {node.db.committed_height for node in net.nodes}
        assert len(heights) == 1
        hashes = {node.blockstore.tip().block_hash
                  for node in net.nodes}
        assert len(hashes) == 1

    def test_checkpoint_digests_match_across_nodes(self):
        net = make_kv_network("order-execute")
        client = net.register_client("alice", "org1")
        for i in range(3):
            client.invoke_and_wait("set_kv", f"cp{i}", i)
        height = net.nodes[0].db.committed_height
        digests = {node.checkpoints.local_digest(height)
                   for node in net.nodes}
        assert len(digests) == 1 and None not in digests
        # And nobody recorded a mismatch.
        for node in net.nodes:
            assert node.checkpoints.mismatches == []


# ----------------------------------------------------------------------
# Execute-order replicas agree on rw-conflicts (section 3.4.3, Table 2)
# ----------------------------------------------------------------------

PAY_SCHEMA = """
CREATE TABLE accounts (
    acc_id INT PRIMARY KEY,
    org TEXT NOT NULL,
    balance FLOAT NOT NULL
);
CREATE TABLE invoices (
    invoice_id INT PRIMARY KEY,
    acc_id INT NOT NULL,
    org TEXT NOT NULL,
    amount FLOAT NOT NULL
);
"""

# A read and two read-modify-write UPDATEs on shared rows: rw-edges in
# both directions between concurrent payments that share an account.
PAY_INVOICE = """
CREATE FUNCTION pay_invoice(inv_id INT, src INT, dst INT, org_name TEXT,
                            amt FLOAT) RETURNS VOID AS $$
DECLARE
    bal FLOAT;
BEGIN
    SELECT balance INTO bal FROM accounts WHERE acc_id = src;
    UPDATE accounts SET balance = balance - amt WHERE acc_id = src;
    UPDATE accounts SET balance = balance + amt WHERE acc_id = dst;
    INSERT INTO invoices (invoice_id, acc_id, org, amount)
    VALUES (inv_id, src, org_name, amt);
END $$ LANGUAGE plpgsql
"""

N_ACCOUNTS, N_HOT, N_PAYMENTS = 120, 20, 100


def payments(seed, orgs):
    """``N_PAYMENTS`` calls, one in five endpoints among the hot
    accounts; call ``i`` belongs to client ``i % len(orgs)``."""
    rng = random.Random(seed + 1)

    def endpoint():
        if rng.random() < 0.2:
            return rng.randint(1, N_HOT)
        return rng.randint(1, N_ACCOUNTS)

    for i in range(N_PAYMENTS):
        amount = round(rng.uniform(10, 500), 2)
        src = dst = endpoint()
        while dst == src:
            dst = endpoint()
        yield (1_000_000 + i, src, dst, orgs[i % len(orgs)], amount)


class TestExecuteOrderAgreement:
    """Every node executes all the payments at snapshot height 0, each
    beginning its own clients' transactions first, before block 1
    arrives: the edge graph is the same everywhere and only local begin
    order differs.  Table 2's victims must not depend on it (the
    validators' candidate lists come in canonical commit order) — at
    block 1 of kafka seed 1 the three nodes used to abort 13 / 14 / 16
    transactions."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("consensus,n_orgs", [
        ("kafka", 3), ("raft", 3), ("pbft", 4)])
    def test_eo_replicas_agree_on_conflicting_updates(self, consensus,
                                                      n_orgs, seed):
        orgs = [f"org{i + 1}" for i in range(n_orgs)]
        rows = ", ".join(
            f"({acc}, '{orgs[(acc - 1) % n_orgs]}', 50000.0)"
            for acc in range(1, N_ACCOUNTS + 1))
        net = BlockchainNetwork(
            orgs, flow="execute-order", consensus=consensus,
            block_size=50, block_timeout=0.2, seed=seed,
            schema_sql=PAY_SCHEMA + "INSERT INTO accounts "
            f"(acc_id, org, balance) VALUES {rows};",
            contracts=[PAY_INVOICE])
        clients = [net.register_client(f"client@{org}", org)
                   for org in orgs]
        tx_ids = [clients[i % n_orgs].invoke("pay_invoice", *args)
                  for i, args in enumerate(payments(seed, orgs))]
        net.settle(timeout=120.0)
        net.assert_consistent()
        statuses = {node.name: [(node.ledger.entry(tx_id) or
                                 {}).get("status") for tx_id in tx_ids]
                    for node in net.nodes}
        reference = statuses[net.nodes[0].name]
        assert all(s == reference for s in statuses.values()), statuses
        # The scenario is a contended one: Table 2 fired.
        assert "aborted" in reference and "committed" in reference
        for node in net.nodes:
            assert node.checkpoints.mismatches == []


# ----------------------------------------------------------------------
# Replaying the ledger reproduces every replica (section 3.6)
# ----------------------------------------------------------------------

#: Columns of an audit row that do not depend on the node: the row's
#: values and its creator / deleter heights.  ``xmin`` / ``xmax`` /
#: ``row_id`` are node-local (aborted executions burn ids).
AUDIT_FIELDS = ("k", "v", "creator", "deleter")


def pytest_generate_tests(metafunc):
    """Seeds of the replay matrix: 1 in tier-1, ``--replay-seeds 1,2,3``
    in the chaos CI legs (tests/conftest.py defines the option)."""
    if "replay_seed" in metafunc.fixturenames:
        seeds = metafunc.config.getoption("--replay-seeds")
        metafunc.parametrize("replay_seed",
                             [int(seed) for seed in seeds.split(",")])


def audit_rows(rows):
    return [{field: row.get(field) for field in AUDIT_FIELDS}
            for row in rows]


def audits(node, client, height):
    """Everything the auditor answers about ``kv`` at ``height``, from
    ``node``'s replica, reduced to node-independent fields."""
    client.use_peer(node)
    auditor = ProvenanceAuditor(client)
    diff = auditor.diff_between("kv", height - 1, height)
    keys = sorted({row["k"] for row in auditor.state_as_of("kv", height)}
                  | {row["k"] for rows in diff.values() for row in rows})
    return {
        "state": auditor.state_as_of("kv", height),
        "diff": {side: audit_rows(rows) for side, rows in diff.items()},
        "chains": {key: audit_rows(auditor.version_chain("kv", "k", key))
                   for key in keys},
    }


class TestReplayReproducesReplicas:
    """One peer crashes right after genesis and restarts once the run
    has settled, so it replays the whole ledger through the sync path
    (``RecoveryManager.catch_up`` → ``on_block``).  A second peer, of
    another organization, hears its peers late (its ``tx_forward``s
    arrive after their blocks).  Every node must still agree — on each
    transaction's status, on every table, on every checkpoint digest —
    and the replayer's replica must answer every audit, at every
    height, as a live node's does."""

    @pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
    @pytest.mark.parametrize("consensus,n_orgs", [
        ("kafka", 2), ("raft", 3), ("pbft", 4)])
    def test_replay_reproduces_every_replica(self, consensus, n_orgs,
                                             flow, replay_seed):
        seed = replay_seed
        orgs = [f"org{i + 1}" for i in range(n_orgs)]
        net = make_kv_network(flow, consensus=consensus, orgs=orgs,
                              block_size=4, block_timeout=0.15,
                              peers_per_org=2, seed=seed)
        replayer, laggard = net.node_of(orgs[0], 1), net.node_of(orgs[1], 1)
        replayer.crash()
        lag = LatencyModel(base_latency=(0.05, 0.3)[seed % 2], jitter=0.0,
                           bandwidth_bytes_per_sec=5e9 / 8)
        for node in net.nodes:
            if node is not laggard:
                net.network.set_link(node.name, laggard.name, lag)

        clients, tx_ids = run_contention(net, n_clients=n_orgs,
                                         n_rounds=16, seed=seed)
        tx_ids.append(clients[0].invoke("del_kv", "k0"))
        net.settle(timeout=120.0, expect_progress=False)
        if flow == "execute-order":   # the laggard executed at block time
            assert sum(block.missing_txs
                       for block in laggard.processor.metrics) > 0
        assert replayer.db.committed_height == 0
        replayer.restart()
        net.settle(timeout=120.0)

        net.assert_consistent()
        for tx_id in tx_ids:
            statuses = {node.name: (node.ledger.entry(tx_id) or
                                    {}).get("status")
                        for node in net.nodes}
            assert len(set(statuses.values())) == 1, statuses
        height = net.nodes[0].db.committed_height
        assert height == replayer.db.committed_height
        for h in range(1, height + 1):
            digests = {node.checkpoints.local_digest(h)
                       for node in net.nodes}
            assert len(digests) == 1 and None not in digests, h
        for node in net.nodes:
            assert node.checkpoints.mismatches == []

        live, auditor = net.nodes[0], clients[0]
        for h in sorted({1, height // 2, height - 1, height} - {0}):
            assert audits(replayer, auditor, h) == \
                audits(live, auditor, h), h
