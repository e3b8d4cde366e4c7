"""Retirement horizon: equivalence with never retiring, and boundedness.

``Database.retire_finished`` forgets finished transactions at the end of
every block, reclaims the superseded ``pending`` pgLedger versions of
earlier blocks and recycles the WAL records nothing can ask for any
more.  Three properties pin it:

1. **Equivalence** — a seeded chain of conflicting transfers (ww
   conflicts, write skew, SSI aborts; in the execute-order flow two
   transactions that start executing early and are ordered four blocks
   later — one whose window spans a commit that would otherwise retire,
   one aborted before its own block arrives), crashed at a seeded
   pipeline stage and restarted after every block,
   leaves the same WAL records (the retained tail of them), ledger
   statuses and abort reasons, table contents and checkpoint digests as
   the same engine with retirement monkeypatched to a no-op — the old
   keep-everything behaviour, which survives only here.

2. **Reclaim and recycling answer the same** — the same chain, its last
   block crashed at every pipeline stage and before every commit record
   (section 3.6 cases (a) and (b)), against the same engine with
   ``Database.reclaim_versions`` and ``WriteAheadLog.recycle``
   monkeypatched to no-ops: every ledger read, the Table 3 provenance
   join, table contents and checkpoint digests are identical.

3. **Boundedness** — over a chain long enough to overflow every bounded
   structure, the per-transaction and per-block collections stay under
   constants that do not depend on chain length.
"""

import random

import pytest

from repro.chain.block import Block
from repro.chain.transaction import ProcedureCall, Transaction
from repro.core.network import BlockchainNetwork
from repro.mvcc.database import Database
from repro.node.block_processor import METRICS_BLOCKS, SimulatedCrash
from repro.node.notifications import HISTORY_EVENTS
from repro.storage.wal import WriteAheadLog
from tests.conftest import make_kv_network
from tests.node.test_commit_pipeline import (
    heap_dump,
    ledger_dump,
    wal_dump,
)

SCHEMA = """
CREATE TABLE accounts (acc_id INT PRIMARY KEY, balance INT);
CREATE TABLE payments (pay_id INT PRIMARY KEY, src INT, dst INT, amt INT);
"""

CONTRACTS = [
    """CREATE FUNCTION open_account(id INT, amt INT) RETURNS VOID AS $$
    BEGIN
        INSERT INTO accounts (acc_id, balance) VALUES (id, amt);
    END $$ LANGUAGE plpgsql""",
    # Reads one account, updates two, inserts one row: ww conflicts on
    # shared accounts plus rw edges from the balance read.
    """CREATE FUNCTION pay(id INT, s INT, d INT, amt INT) RETURNS VOID AS $$
    DECLARE bal INT;
    BEGIN
        SELECT balance INTO bal FROM accounts WHERE acc_id = s;
        UPDATE accounts SET balance = balance - amt WHERE acc_id = s;
        UPDATE accounts SET balance = balance + amt WHERE acc_id = d;
        INSERT INTO payments (pay_id, src, dst, amt)
        VALUES (id, s, d, amt);
    END $$ LANGUAGE plpgsql""",
    # Reads one account and writes another: two of these crossed are
    # write skew, the SSI dangerous structure.
    """CREATE FUNCTION top_up(s INT, d INT) RETURNS VOID AS $$
    DECLARE bal INT;
    BEGIN
        SELECT balance INTO bal FROM accounts WHERE acc_id = s;
        UPDATE accounts SET balance = balance + bal WHERE acc_id = d;
    END $$ LANGUAGE plpgsql""",
]

ACCOUNTS = 12
# Accounts the random transfers never touch, for the two execute-order
# transactions that start executing in block EARLY_SUBMIT's time and are
# ordered in block EARLY_ORDERED.
A, X, Y, Z, B, C, W = QUIET = range(100, 107)
BLOCKS = 8
TXS_PER_BLOCK = 8
EARLY_SUBMIT, MIDDLE, EARLY_ORDERED = 2, 4, 6
CRASH_POINTS = (None, "after_ledger_record", "mid_commit:3",
                "before_status_record")


def _run_chain(flow, seed, last_crash_point=None):
    """One seeded chain on a single node, driven block by block.
    Returns the node and the tx ids of the scripted execute-order
    transactions (empty in the order-execute flow).  The last block
    crashes at ``last_crash_point``; the others at seeded points."""
    rng = random.Random(seed)
    net = BlockchainNetwork(organizations=["org1"], flow=flow,
                            schema_sql=SCHEMA, contracts=CONTRACTS)
    node = net.primary_node
    node.ledger._clock = lambda: 1000.0   # pin committime across runs
    identity = net.register_client("alice", "org1").identity
    nonce = iter(range(10 ** 6))
    eo = flow == "execute-order"

    def make_tx(procedure, *args):
        call = ProcedureCall(procedure, args)
        if eo:
            tx = Transaction.create(
                identity, call, snapshot_height=node.db.committed_height)
            node.submit_transaction(tx)   # starts executing now
            return tx
        tx_id = Transaction.derive_tx_id(f"alice#{next(nonce)}", call, None)
        return Transaction.create(identity, call, tx_id=tx_id)

    def random_tx():
        src, dst = rng.sample(range(ACCOUNTS), 2)
        if rng.random() < 0.3:
            return make_tx("top_up", src, dst)
        return make_tx("pay", next(nonce), src, dst, rng.randint(1, 9))

    scripted = {}
    for number in range(1, BLOCKS + 1):
        crash_point = rng.choice(CRASH_POINTS)
        if number == 1:
            txs = [make_tx("open_account", acc, 1000)
                   for acc in (*range(ACCOUNTS), *QUIET)]
        else:
            txs = [random_tx() for _ in range(TXS_PER_BLOCK)]
        if eo and number == EARLY_SUBMIT:
            # Both begin now and are ordered four blocks later.
            scripted["early"] = make_tx("top_up", A, X)
            scripted["victim"] = make_tx("top_up", B, C)
        if eo and number == MIDDLE:
            # Commits inside the early transaction's window, having read
            # Y: the far conflict of the pivot below.
            scripted["far"] = make_tx("top_up", Y, Z)
            # Writes what the victim read; the victim, not being in this
            # block, aborts here and waits two blocks for its own.
            scripted["writer"] = make_tx("pay", next(nonce), B, W, 1)
            txs += [scripted["far"], scripted["writer"]]
        if eo and number == EARLY_ORDERED:
            # Reads X (which early writes) and writes Y (which far read):
            # far -> pivot -> early, with far already committed.
            scripted["pivot"] = make_tx("top_up", X, Y)
            txs += [scripted["early"], scripted["victim"],
                    scripted["pivot"]]
            # A re-executed block would restart early's window.
            crash_point = None
        if number == BLOCKS:
            crash_point = last_crash_point
        block = Block(number=number, transactions=txs,
                      prev_hash=node.blockstore.tip().block_hash).seal()
        node.blockstore.append(block)
        try:
            node.processor.process_block(block, crash_point=crash_point)
        except SimulatedCrash:
            pass
        node.crash()
        report = node.restart()
    node.last_recovery = report   # of the last block, for the tests
    return node, {name: tx.tx_id for name, tx in scripted.items()}


def _artifacts(node):
    return {
        "wal": wal_dump(node.db),
        "ledger": ledger_dump(node),
        "accounts": heap_dump(node.db, "accounts"),
        "payments": heap_dump(node.db, "payments"),
        "digests": [node.checkpoints.local_digest(h)
                    for h in range(1, BLOCKS + 1)],
        "height": node.db.committed_height,
    }


@pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
def test_retirement_changes_no_byte(flow, monkeypatch):
    retiring, scripted = _run_chain(flow, 11)
    got = _artifacts(retiring)
    retained = len(retiring.db.transactions)

    monkeypatch.setattr(Database, "retire_finished",
                        lambda self, height: None)
    keeping, _ = _run_chain(flow, 11)
    want = _artifacts(keeping)

    # Recycling keeps the tail of the log: the same records, lsns
    # included, as the end of the log that kept everything.
    kept = got.pop("wal")
    assert 0 < len(kept) < len(want["wal"]) / 3
    assert kept == want.pop("wal")[-len(kept):]
    for name in want:
        assert got[name] == want[name], name
    assert got["height"] == BLOCKS
    assert retained < len(keeping.db.transactions) / 3

    # The workload does what it is for: commits and SSI aborts.
    statuses = [row["status"] for row in got["ledger"]]
    assert statuses.count("committed") > len(statuses) / 3
    assert any("ssi" in (row["reason"] or "") for row in got["ledger"])

    if scripted:
        entry = {name: retiring.ledger.entry(tx_id)
                 for name, tx_id in scripted.items()}
        assert [entry[name]["status"] for name in ("far", "writer", "early")
                ] == ["committed"] * 3
        # Only far's context, kept two blocks past its own because early
        # began before it committed, can abort the pivot.
        assert entry["pivot"]["status"] == "aborted"
        assert "farConflict" in entry["pivot"]["reason"]
        # Aborted in block MIDDLE, reported in its own block.
        assert entry["victim"]["status"] == "aborted"
        assert entry["victim"]["blocknumber"] == EARLY_ORDERED
        assert f"not in block {MIDDLE}" in entry["victim"]["reason"]


# ----------------------------------------------------------------------
# Reclaim and WAL recycling
# ----------------------------------------------------------------------

#: Every stage of the last block's pipeline, and the boundary before each
#: of its commit records.  ``before_status_record`` is section 3.6 case
#: (a) — the WAL covers the block, recovery finalizes from it; the others
#: are case (b) — roll back and re-execute.
LAST_BLOCK_CRASHES = (
    [None, "after_ledger_record", "before_status_record"]
    + [f"mid_commit:{k}" for k in range(TXS_PER_BLOCK)])

PROVENANCE_JOIN = (
    "SELECT a.acc_id, a.balance, a.creator, a.deleter, l.tx_id, "
    "l.blocknumber, l.username FROM accounts a, pgledger l "
    "WHERE a.xmax = l.txid ORDER BY l.blocknumber, l.tx_id, a.acc_id")


def _answers(node):
    """Everything a client, an auditor or recovery can ask the ledger
    and the tables."""
    ledger = node.ledger
    tx_ids = [tx.tx_id for number in range(1, BLOCKS + 1)
              for tx in node.blockstore.get(number).transactions]
    return {
        "entries": [ledger.entry(tx_id) for tx_id in tx_ids],
        "block_statuses": [ledger.block_statuses(number)
                           for number in range(1, BLOCKS + 1)],
        "last_recorded_block": ledger.last_recorded_block(),
        "prior_blocks": ledger.prior_block_numbers(tx_ids),
        "provenance_join": node.query(PROVENANCE_JOIN,
                                      provenance=True).rows,
        "ledger": ledger_dump(node),
        "accounts": heap_dump(node.db, "accounts"),
        "payments": heap_dump(node.db, "payments"),
        "digests": [node.checkpoints.local_digest(h)
                    for h in range(1, BLOCKS + 1)],
        "height": node.db.committed_height,
    }


def _ledger_versions(node):
    return len(node.db.catalog.heap_of("pgledger"))


@pytest.mark.parametrize("last_crash_point", LAST_BLOCK_CRASHES)
@pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
def test_reclaim_and_recycling_change_no_answer(flow, last_crash_point,
                                                monkeypatch):
    reclaiming, _ = _run_chain(flow, 23, last_crash_point)
    got = _answers(reclaiming)

    monkeypatch.setattr(Database, "reclaim_versions",
                        lambda self, table, versions: None)
    monkeypatch.setattr(WriteAheadLog, "recycle",
                        lambda self, upto_lsn: 0)
    keeping, _ = _run_chain(flow, 23, last_crash_point)
    want = _answers(keeping)

    for name in want:
        assert got[name] == want[name], name
    assert got["height"] == got["last_recorded_block"] == BLOCKS
    assert got["provenance_join"]
    # The last block's recovery took the branch the crash point is for.
    assert (reclaiming.last_recovery["finalized_blocks"],
            reclaiming.last_recovery["reexecuted_blocks"]) == (
        (0, 0) if last_crash_point is None
        else (1, 0) if last_crash_point == "before_status_record"
        else (0, 1))

    # It did reclaim: one pgLedger version per transaction, plus the
    # last block's superseded pending ones — which recovery could have
    # been asked about — against two per transaction.
    total = len(got["entries"])
    last = len(reclaiming.blockstore.get(BLOCKS).transactions)
    assert _ledger_versions(reclaiming) == total + last
    assert _ledger_versions(keeping) == 2 * total
    for index in reclaiming.db.catalog.heap_of("pgledger") \
            .indexes.values():
        assert len(index) == total + last, index.name
    # ... and recycle: the log holds the last block or two, not the chain.
    assert len(reclaiming.db.wal) < len(keeping.db.wal) / 3
    kept = wal_dump(reclaiming.db)
    assert kept == wal_dump(keeping.db)[-len(kept):]


# ----------------------------------------------------------------------
# Boundedness
# ----------------------------------------------------------------------

SOAK_BLOCKS = 70
SOAK_BLOCK_SIZE = 3


def _retained(node):
    db = node.db
    return {
        "transactions": len(db.transactions),
        "recently_committed": len(db._recently_committed),
        "created_by_xid": sum(
            len(db.catalog.heap_of(name)._created_by_xid)
            for name in db.catalog.table_names()),
        "history": len(node.notifications.history),
        "metrics": len(node.processor.metrics),
    }


@pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
def test_retained_state_does_not_grow_with_the_chain(flow):
    net = make_kv_network(flow, orgs=["org1"], block_size=SOAK_BLOCK_SIZE)
    client = net.register_client("alice", "org1")
    node = net.primary_node
    samples = []
    for number in range(SOAK_BLOCKS):
        for i in range(SOAK_BLOCK_SIZE):
            client.invoke("set_kv", f"k{number}-{i}", i)
        net.settle(timeout=30.0)
        client.query("SELECT count(*) FROM kv")   # a read-only context
        samples.append(_retained(node))
    assert node.db.committed_height >= 60
    # Enough happened to overflow both bounded histories.
    assert node.db.committed_height > METRICS_BLOCKS
    assert node.db.committed_height * (SOAK_BLOCK_SIZE + 1) > HISTORY_EVENTS

    # Two blocks of contexts (chain + ledger transactions) and the odd
    # query: constants, whatever the chain length.
    bounds = {"transactions": 4 * (SOAK_BLOCK_SIZE + 3),
              "recently_committed": 4 * (SOAK_BLOCK_SIZE + 3),
              "created_by_xid": 4 * (SOAK_BLOCK_SIZE + 3),
              "history": HISTORY_EVENTS, "metrics": METRICS_BLOCKS}
    for name, bound in bounds.items():
        assert max(s[name] for s in samples) <= bound, name
    # Steady state: the second half of the chain retains no more than
    # the first did.
    half = SOAK_BLOCKS // 2
    for name in ("transactions", "recently_committed", "created_by_xid"):
        assert max(s[name] for s in samples[half:]) <= \
            max(s[name] for s in samples[5:half]), name
    net.assert_consistent()
