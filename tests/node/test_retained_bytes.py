"""What a committed transaction leaves behind does not grow per block.

The end-to-end benchmark charges throughput to memory through the bytes
every committed transaction retains (docs/crypto.md), so the storage
side of the retirement horizon is pinned here by *object counts* on a
three-organisation order-execute network, sampled from block 4 to block
24: the WAL holds a block or two of records, pgLedger holds one version
per recorded transaction plus the last block's superseded ``pending``
ones (its columnar replica only the one), every index holds exactly one
entry per version it indexes, the
repeated index keys are shared tuples, and the comb cache holds the
network's handful of identities.  A reader's side is pinned the same
way: what its transaction context holds after a scan does not grow with
the rows the scan read.

Counts, not ``tracemalloc``: bigint arithmetic under tracemalloc is ~20x
slower, and `benchmarks/retained_bytes.py` reports the bytes.
"""

from repro.common.crypto import KEY_TABLES_MAX, key_tables_cached
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import make_kv_network

BLOCK_SIZE = 5
FIRST, LAST = 4, 24


def _distinct(keys):
    return len({id(key) for key in keys})


def _sample(node, block_txs):
    db = node.db
    ledger = db.catalog.heap_of("pgledger")
    kv = db.catalog.heap_of("kv")
    block_index = ledger.indexes["pgledger_block_idx"]
    user_index = ledger.indexes["pgledger_user_idx"]
    recorded = len({v.values["tx_id"] for v in ledger.all_versions()})
    return {
        "height": db.committed_height,
        "wal_records": len(db.wal),
        "wal_gauge": db.metrics.snapshot()["gauges"][
            f'wal.records_retained{{node="{node.name}"}}'],
        "reclaim_queue": len(db._reclaimable),
        # One version per recorded transaction, plus the last block's
        # pending ones.
        "ledger_extra_versions": len(ledger) - recorded,
        # The replica holds one per recorded transaction: a pending
        # version is reclaimed, so it is never appended there.
        "ledger_replica_extra": len(db.columnstore.table("pgledger"))
        - recorded,
        "ledger_index_excess": sum(
            len(index) - len(ledger) for index in ledger.indexes.values()),
        "kv_index_excess": sum(
            len(index) - len(kv) for index in kv.indexes.values()),
        "kv_versions_per_tx": len(kv) / (db.committed_height * block_txs),
        # Shared key tuples: one per distinct block / user, not per row.
        "block_keys": _distinct(block_index._keys
                                + block_index._pending_keys),
        "user_keys": _distinct(user_index._keys + user_index._pending_keys),
        "key_tables": key_tables_cached(),
    }


def test_retained_objects_per_transaction_are_flat(key_combs):
    net = make_kv_network("order-execute", block_size=BLOCK_SIZE)
    clients = [net.register_client(f"user@{org}", org)
               for org in ("org1", "org2", "org3")]
    samples = {node.name: [] for node in net.nodes}
    for number in range(LAST):
        for i in range(BLOCK_SIZE):
            clients[i % 3].invoke("set_kv", f"k{number}-{i}", i)
        net.settle(timeout=30.0)
        for node in net.nodes:
            samples[node.name].append(_sample(node, BLOCK_SIZE))
    net.assert_consistent()

    for name, series in samples.items():
        assert [s["height"] for s in series] == list(range(1, LAST + 1))
        steady = series[FIRST - 1:]
        for s in steady:
            # Exact figures, the same at block 4 and block 24.
            assert s["ledger_extra_versions"] == BLOCK_SIZE, (name, s)
            assert s["ledger_replica_extra"] == 0, (name, s)
            assert s["ledger_index_excess"] == 0, (name, s)
            assert s["kv_index_excess"] == 0, (name, s)
            assert s["kv_versions_per_tx"] == 1.0, (name, s)
            assert s["reclaim_queue"] == 1, (name, s)
            assert s["wal_records"] == s["wal_gauge"]
            # A block is BLOCK_SIZE transactions and two ledger writes,
            # two records each; the log keeps the last block or two.
            assert s["wal_records"] <= 4 * (BLOCK_SIZE + 2), (name, s)
            assert s["block_keys"] == s["height"], (name, s)
            assert s["user_keys"] == len(clients), (name, s)
            assert s["key_tables"] <= KEY_TABLES_MAX, (name, s)
        for figure in ("wal_records", "key_tables"):
            values = [s[figure] for s in steady]
            assert max(values) == min(values), (name, figure, values)
        # Clients, peers, orderers and admins: a handful, far below the
        # bound at which the cache would start evicting.
        assert 0 < steady[-1]["key_tables"] < KEY_TABLES_MAX


def _containers(tx):
    """Size of every container a transaction context holds."""
    return {name: len(value) for name, value in vars(tx).items()
            if isinstance(value, (list, set, dict, tuple))}


def test_a_scan_retains_its_predicate_read_not_its_rows():
    """A reader's SIREAD state is its predicate reads (docs/sql_engine.md,
    "Where the SSI hooks live"): one scan over 2,000 rows leaves one
    ``PredicateRead`` and nothing per row — the same containers, of the
    same sizes, as a scan over two rows."""
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, g INT NOT NULL); "
                    "CREATE INDEX t_g ON t(g)")
    for i in range(2002):
        run_sql(db, tx, "INSERT INTO t (id, g) VALUES ($1, $2)",
                params=(i, 1 if i < 2000 else 2))
    db.apply_commit(tx, block_number=1)

    held = {}
    for g, rows in ((1, 2000), (2, 2)):
        reader = db.begin(allow_nondeterministic=True)
        result = run_sql(db, reader, "SELECT id FROM t WHERE g = $1",
                         params=(g,))
        assert len(result.rows) == rows
        assert len(reader.predicate_reads) == 1
        held[rows] = _containers(reader)
        db.apply_abort(reader, reason="test")
    assert held[2000] == held[2]
