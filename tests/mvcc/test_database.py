"""Database lifecycle: xid allocation, commit/abort mechanics,
concurrency windows, recovery rollback."""

import pytest

from repro.errors import SerializationFailure
from repro.mvcc.database import Database
from repro.mvcc.transaction import TxState
from repro.sql.executor import run_sql
from repro.storage.snapshot import BlockSnapshot, TxStatus


@pytest.fixture
def db():
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx,
            "CREATE TABLE t (id INT PRIMARY KEY, v INT); "
            "INSERT INTO t (id, v) VALUES (1, 10)")
    database.apply_commit(tx, block_number=1)
    database.committed_height = 1
    return database


class TestLifecycle:
    def test_xids_monotonic(self, db):
        a = db.begin()
        b = db.begin()
        assert b.xid > a.xid

    def test_commit_stamps_creator_blocks(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO t (id, v) VALUES (2, 20)")
        db.apply_commit(tx, block_number=7)
        version = tx.writes[0].new_version
        assert version.creator_block == 7
        assert db.statuses.get(tx.xid).commit_block == 7

    def test_commit_resolves_delete_winner(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "UPDATE t SET v = 11 WHERE id = 1")
        old = tx.writes[0].old_version
        db.apply_commit(tx, block_number=2)
        assert old.xmax_winner == tx.xid
        assert old.deleter_block == 2

    def test_commit_of_aborted_tx_rejected(self, db):
        tx = db.begin()
        db.apply_abort(tx, reason="nope")
        with pytest.raises(SerializationFailure):
            db.apply_commit(tx, block_number=2)

    def test_double_abort_is_idempotent(self, db):
        tx = db.begin()
        db.apply_abort(tx, reason="first")
        db.apply_abort(tx, reason="second")
        assert tx.abort_reason == "first"

    def test_abort_cleans_heap(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO t (id, v) VALUES (3, 30)")
        db.apply_abort(tx, reason="test")
        heap = db.catalog.heap_of("t")
        assert all(v.values.get("id") != 3 for v in heap.all_versions())

    def test_begin_at_height(self, db):
        tx = db.begin_at_height(5)
        assert isinstance(tx.snapshot, BlockSnapshot)
        assert tx.snapshot.height == 5


class TestConcurrencyWindows:
    def test_active_txs_are_concurrent(self, db):
        a = db.begin()
        b = db.begin()
        assert b in db.concurrent_with(a)
        assert a in db.concurrent_with(b)

    def test_commit_after_begin_still_concurrent(self, db):
        a = db.begin()
        b = db.begin(allow_nondeterministic=True)
        run_sql(db, b, "UPDATE t SET v = 99 WHERE id = 1")
        db.apply_commit(b, block_number=2)
        # b committed after a began -> windows overlap.
        assert b in db.concurrent_with(a)
        assert db.committed_before_began(b, a) is False

    def test_commit_before_begin_not_concurrent(self, db):
        a = db.begin(allow_nondeterministic=True)
        run_sql(db, a, "UPDATE t SET v = 99 WHERE id = 1")
        db.apply_commit(a, block_number=2)
        b = db.begin()
        assert a not in db.concurrent_with(b)
        assert db.committed_before_began(a, b) is True

    def test_retirement_keeps_what_an_active_reader_is_concurrent_with(
            self, db):
        def bump(block):
            tx = db.begin(allow_nondeterministic=True)
            run_sql(db, tx, "UPDATE t SET v = v + 1 WHERE id = 1")
            db.apply_commit(tx, block_number=block)
            return tx

        before = [bump(2 + i) for i in range(5)]
        reader = db.begin(allow_nondeterministic=True)
        after = [bump(7 + i) for i in range(5)]
        query = db.begin(read_only=True)
        db.apply_abort(query, reason="read-only")
        heap = db.catalog.heap_of("t")

        db.retire_finished(11)
        # Committed before the reader began, or aborted: gone.  Committed
        # after it began: still concurrent with it.  Last block: kept.
        assert [tx.xid for tx in db._recently_committed] == \
            [tx.xid for tx in after]
        assert set(db.transactions) == \
            {reader.xid} | {tx.xid for tx in after}
        assert set(db.concurrent_with(reader)) == set(after)
        assert all(tx.xid not in heap._created_by_xid for tx in before)
        assert all(tx.xid in heap._created_by_xid for tx in after)

        db.apply_abort(reader, reason="done")
        db.retire_finished(11)
        assert set(db.transactions) == {after[-1].xid}
        db.retire_finished(12)
        assert not db.transactions and not db._recently_committed
        assert not heap._created_by_xid


class TestRecoveryRollback:
    def test_rollback_committed_restores_state(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "UPDATE t SET v = 777 WHERE id = 1")
        db.apply_commit(tx, block_number=2)
        reader = db.begin(allow_nondeterministic=True)
        assert run_sql(db, reader,
                       "SELECT v FROM t WHERE id = 1").scalar() == 777
        db.apply_abort(reader, reason="probe")

        db.rollback_committed(tx)
        assert tx.state is TxState.ACTIVE
        assert db.statuses.status_of(tx.xid) is TxStatus.IN_PROGRESS
        reader2 = db.begin(allow_nondeterministic=True)
        assert run_sql(db, reader2,
                       "SELECT v FROM t WHERE id = 1").scalar() == 10
        db.apply_abort(reader2, reason="probe")

    def test_rollback_then_reexecute_commits_cleanly(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO t (id, v) VALUES (5, 50)")
        db.apply_commit(tx, block_number=2)
        db.rollback_committed(tx)
        db.apply_abort(tx, reason="recovery")
        redo = db.begin(allow_nondeterministic=True)
        run_sql(db, redo, "INSERT INTO t (id, v) VALUES (5, 50)")
        db.apply_commit(redo, block_number=2)
        reader = db.begin(allow_nondeterministic=True)
        assert run_sql(db, reader,
                       "SELECT count(*) FROM t WHERE id = 5").scalar() == 1
        db.apply_abort(reader, reason="probe")
