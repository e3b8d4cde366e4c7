"""The columnar replica never holds a version the row store reclaims.

``Database.reclaim_at_horizon`` takes versions no block snapshot ever
sees — today pgLedger's ``pending`` rows, superseded by the status write
of the same block — and the retirement horizon removes them from the
heap.  The replica applies that one rule: such a version is never
appended, and one a mid-block read had already appended (a statistics
read, or the first rebuild) is dropped at the next sync.  A user row
inserted and updated inside one block is *not* such a version: both of
its versions stay history for ``history`` and ``diff``.

Every answer here is compared with the row store: the heap's versions,
and the provenance SQL path (``t.creator`` / ``t.deleter``) the audit
helpers fall back to when the replica is off.
"""

import pytest

from repro.analytics.columnstore import TableColumns
from repro.core.network import BlockchainNetwork
from repro.mvcc.database import Database
from repro.mvcc.transaction import WriteSetEntry
from repro.sql.executor import run_sql
from tests.conftest import KV_CONTRACTS, KV_SCHEMA, counter

SET_THEN_BUMP = """CREATE FUNCTION set_then_bump(key TEXT, val INT)
    RETURNS VOID AS $$
    BEGIN
        INSERT INTO kv (k, v) VALUES (key, val);
        UPDATE kv SET v = v + 1 WHERE k = key;
    END $$ LANGUAGE plpgsql"""

BLOCKS = 5


def _row(values):
    return repr(sorted(values.items()))


def _rows(dicts):
    return sorted(_row(values) for values in dicts)


@pytest.fixture(scope="module")
def net():
    """Blocks of three inserts plus one transaction that inserts a row
    and updates it; the first blocks also plan (and read statistics)
    mid-block, which syncs the replica before the ledger's status
    write.  Then every node's horizon passes the last block, as the next
    block's would, so the heap holds no queued version either."""
    net = BlockchainNetwork(
        ["org1", "org2", "org3"], block_size=4, block_timeout=0.2,
        schema_sql=KV_SCHEMA, contracts=KV_CONTRACTS + [SET_THEN_BUMP])
    client = net.register_client("alice", "org1")
    for block in range(BLOCKS):
        for i in range(3):
            client.invoke("set_kv", f"k{block}-{i}", i)
        client.invoke("set_then_bump", f"sb{block}", 10 * block)
        net.settle()
    net.assert_consistent()
    for node in net.nodes:
        assert node.db.committed_height == BLOCKS
        assert {table for table, _ in node.db.reclaim_queued()} == \
            {"pgledger"}
        node.db.retire_finished(BLOCKS + 1)
        assert not node.db.reclaim_queued()
    return net


def _client(net):
    return net.clients["alice"]


def _provenance(node, table, where, params=()):
    """Rows of the row store's provenance scan on ``node`` (pgLedger's
    ``committime`` is the node's own clock)."""
    return node.query(f"SELECT t.* FROM {table} t WHERE {where}",
                      params=params, provenance=True).as_dicts()


class TestNetwork:
    def test_ledger_rows_equal_the_heap_after_the_horizon(self, net):
        for node in net.nodes:
            db = node.db
            held = sorted(
                (v.version_id, _row(v.values))
                for v in db.catalog.heap_of("pgledger").all_versions())
            replica = sorted(
                (chunk.version_ids[offset],
                 _row(chunk.values_at(offset, chunk.data)))
                for chunk in db.columnstore.table("pgledger").chunks
                for offset in range(len(chunk)))
            assert replica == held
            assert all(row.count("'pending'") == 0 for _, row in replica)
            # One ledger row per transaction.
            assert len(replica) == len({row for _, row in replica}) == \
                BLOCKS * 4

    @pytest.mark.parametrize("table, key_column", [
        ("pgledger", "tx_id"), ("kv", "k")])
    def test_history_matches_the_row_store(self, net, table, key_column):
        keys = [row[0] for row in _client(net).query(
            f"SELECT {key_column} FROM {table}").rows]
        assert len(keys) == BLOCKS * 4
        for node in net.nodes:
            for key in keys:
                got = node.row_history(table, key_column, key)
                want = _provenance(node, table, f"t.{key_column} = $1",
                                   (key,))
                assert _rows(got) == _rows(want), (node.name, key)
                if table == "kv" and key.startswith("sb"):
                    # Inserted and updated in one transaction: both
                    # versions are history, created in the same block.
                    assert len(got) == 2
                    assert got[0]["creator"] == got[0]["deleter"] == \
                        got[1]["creator"]

    @pytest.mark.parametrize("table", ["pgledger", "kv"])
    def test_diff_matches_the_row_store(self, net, table):
        for node in net.nodes:
            for low in range(BLOCKS):
                for high in range(low + 1, BLOCKS + 1):
                    got = node.block_diff(table, low, high)
                    for side, column in (("created", "creator"),
                                         ("deleted", "deleter")):
                        want = _provenance(
                            node, table,
                            f"t.{column} > $1 AND t.{column} <= $2",
                            (low, high))
                        assert _rows(got[side]) == _rows(want), \
                            (node.name, side, low, high)

    @pytest.mark.parametrize("table, columns", [
        ("pgledger", "tx_id, status, txid, blocknumber"), ("kv", "k, v")])
    def test_as_of_matches_the_row_store(self, net, table, columns):
        client = _client(net)
        for height in range(BLOCKS + 1):
            got = client.query_as_of(f"SELECT {columns} FROM {table}",
                                     height=height).rows
            want = client.provenance_query(
                f"SELECT {columns} FROM {table} t WHERE t.creator <= $1 "
                f"AND (t.deleter IS NULL OR t.deleter > $1)",
                params=(height,)).rows
            assert sorted(got, key=repr) == sorted(want, key=repr), height


def _db_with_table():
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, s TEXT)")
    db.apply_commit(tx, block_number=0)
    db.columnstore.on_block(db, 0)
    return db


def _two_step_block(db, mid_block_read):
    """Block 1 written the way pgLedger writes it — direct heap writes in
    two system transactions, so nothing plans or reads statistics: rows
    inserted, then superseded by a status update and handed to the
    horizon.  ``mid_block_read(db)`` runs between the two steps."""
    heap = db.catalog.heap_of("t")
    tx = db.begin(allow_nondeterministic=True)
    pending = [heap.insert_version({"id": key, "s": "pending"}, tx.xid)
               for key in (1, 2)]
    for version in pending:
        tx.record_write(WriteSetEntry(table="t", kind="insert",
                                      new_version=version))
    db.apply_commit(tx, block_number=0)
    mid_block_read(db)
    tx = db.begin(allow_nondeterministic=True)
    for old in pending:
        tx.record_write(WriteSetEntry(
            table="t", kind="update", old_version=old,
            new_version=heap.update_version(old, dict(old.values, s="done"),
                                            tx.xid)))
    db.apply_commit(tx, block_number=0)
    db.reclaim_at_horizon("t", 1, pending)
    db.committed_height = 1
    db.columnstore.on_block(db, 1)


class TestDatabase:
    @pytest.mark.parametrize("mid_block_read", [
        lambda db: None,
        lambda db: db.columnstore.ensure_synced(db),
        lambda db: db.columnstore.mark_stale() or
        db.columnstore.ensure_synced(db),
    ], ids=["none", "sync", "rebuild"])
    def test_queued_versions_never_stay(self, mid_block_read):
        db = _db_with_table()
        _two_step_block(db, mid_block_read)
        store = db.columnstore
        for key in (1, 2):
            history = store.history(db, "t", "id", key)
            assert [(row["s"], row["creator"], row["deleter"])
                    for row in history] == [("done", 0, None)]
        tcols = store.table("t")
        assert len(tcols) == 2
        for version in db.catalog.heap_of("t").all_versions():
            queued = ("t", version.version_id) in db.reclaim_queued()
            assert (tcols.locate(version.version_id) is None) == queued
        # The rows stay after the horizon reclaims the heap's copies.
        db.retire_finished(2)
        assert not db.reclaim_queued()
        assert len(db.catalog.heap_of("t")) == 2
        assert len(store.table("t")) == 2

    def test_never_appended_without_a_mid_block_read(self):
        db = _db_with_table()
        _two_step_block(db, lambda db: None)
        store = db.columnstore
        assert counter(store, "columnstore.ingested_versions") == 2
        assert counter(store, "columnstore.deleter_updates") == 0


class TestDropVersions:
    def test_tail_is_rebuilt_in_order(self):
        tcols = TableColumns("t", ["id"], target_chunk_rows=3)
        for vid in range(1, 9):
            tcols.append_version({"id": vid * 10}, vid, vid, 1,
                                 creator=vid // 4)
        tcols.mark_deleted(7, deleter=5, xmax=9)
        tcols.seal_open()
        assert [len(c) for c in tcols.chunks] == [3, 3, 2]
        tcols.drop_versions([5, 8])
        assert len(tcols) == 6
        assert [len(c) for c in tcols.chunks] == [3, 3]
        ids = [c.version_ids[o] for c in tcols.chunks for o in range(len(c))]
        assert ids == [1, 2, 3, 4, 6, 7]
        for vid in ids:
            chunk, offset = tcols.locate(vid)
            assert chunk.values_at(offset, ["id"]) == {"id": vid * 10}
            assert chunk.creators[offset] == vid // 4
        chunk, offset = tcols.locate(7)
        assert (chunk.deleters[offset], chunk.xmaxs[offset]) == (5, 9)
        assert tcols.locate(5) is None and tcols.locate(8) is None
        tcols.append_version({"id": 90}, 9, 9, 1, creator=3)
        assert tcols.locate(9) == (tcols.chunks[-1], 0)
