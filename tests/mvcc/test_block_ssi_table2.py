"""Table 2: the block-aware abort-during-commit SSI variant
(execute-order-in-parallel flow, section 3.4.3)."""

import pytest

from repro.errors import SerializationFailure
from repro.mvcc.block_ssi import BlockAwareSSI
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.storage.snapshot import BlockSnapshot


@pytest.fixture
def db():
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx, """
        CREATE TABLE t (id INT PRIMARY KEY, v INT);
        CREATE INDEX t_v_idx ON t (v);
        INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30);
    """)
    database.apply_commit(tx, block_number=1)
    database.committed_height = 1
    return database


def start(db, sql, height=1):
    tx = db.begin(snapshot=BlockSnapshot(height),
                  allow_nondeterministic=True)
    run_sql(db, tx, sql)
    return tx


def in_block(tx, number, position):
    tx.block_number = number
    tx.block_position = position
    return tx


class TestTable2Rows:
    """T commits; N = nearConflict (N ->rw T); F = farConflict (F ->rw N).

    Construction used throughout: F reads id=3 / N writes id=3 gives
    F ->rw N; N reads id=1 / T writes id=1 gives N ->rw T.
    """

    def _triple(self, db):
        f = start(db, "SELECT v FROM t WHERE id = 3; "
                      "UPDATE t SET v = 202 WHERE id = 2")
        n = start(db, "SELECT v FROM t WHERE id = 1; "
                      "UPDATE t SET v = 303 WHERE id = 3")
        t = start(db, "UPDATE t SET v = 101 WHERE id = 1")
        return t, n, f

    def test_row1_both_in_block_near_first_aborts_far(self, db):
        t, n, f = self._triple(db)
        in_block(t, 2, 2)
        in_block(n, 2, 0)   # near earlier
        in_block(f, 2, 1)   # far later
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n, f])
        assert aborted == [f]
        assert not n.is_aborted

    def test_row2_both_in_block_far_first_aborts_near(self, db):
        t, n, f = self._triple(db)
        in_block(t, 2, 2)
        in_block(n, 2, 1)   # near later
        in_block(f, 2, 0)   # far earlier
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n, f])
        assert aborted == [n]
        assert not f.is_aborted

    def test_row3_near_in_block_far_unordered_aborts_far(self, db):
        t, n, f = self._triple(db)
        in_block(t, 2, 1)
        in_block(n, 2, 0)
        # f not in any block yet (still executing / unordered)
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n, f])
        assert aborted == [f]
        assert not n.is_aborted

    def test_row4_near_not_in_block_aborts_near(self, db):
        t, n, f = self._triple(db)
        in_block(t, 2, 1)
        in_block(f, 2, 0)
        # n unordered
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n, f])
        assert n in aborted

    def test_row5_neither_in_block_aborts_near(self, db):
        t, n, f = self._triple(db)
        in_block(t, 2, 0)
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n, f])
        assert n in aborted
        assert f not in aborted

    def test_row6_no_far_conflict_still_aborts_unordered_near(self, db):
        """'Even if there is no farConflict, the nearConflict would get
        aborted (if it not in same block as T)' — section 3.4.3."""
        n = start(db, "SELECT v FROM t WHERE id = 1; "
                      "UPDATE t SET v = 303 WHERE id = 3")
        t = start(db, "UPDATE t SET v = 101 WHERE id = 1")
        in_block(t, 2, 0)
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n])
        assert aborted == [n]

    def test_near_in_block_without_far_survives(self, db):
        """A nearConflict in the same block with no farConflict is not a
        dangerous structure — nobody aborts."""
        n = start(db, "SELECT v FROM t WHERE id = 1; "
                      "UPDATE t SET v = 303 WHERE id = 3")
        t = start(db, "UPDATE t SET v = 101 WHERE id = 1")
        in_block(t, 2, 1)
        in_block(n, 2, 0)
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n])
        assert aborted == []

    @pytest.mark.parametrize("later_far_position", [None, 3])
    @pytest.mark.parametrize("far_first", ["earlier", "later"])
    def test_pivot_between_two_fars_same_victims_in_either_order(
            self, db, far_first, later_far_position):
        """A pivot with one farConflict ordered before it (rows 1-2:
        the pivot is the victim) and one after it or unordered (rows
        1 / 3: that far is the victim).  Candidate lists arrive in
        node-local begin order; whichever far a node happens to meet
        first, the step must abort the same transactions — the pivot
        alone, decided by the far that commits first."""
        t, n, earlier = self._triple(db)
        later = start(db, "SELECT v FROM t WHERE id = 3; "
                          "INSERT INTO t (id, v) VALUES (7, 70)")
        in_block(t, 2, 2)
        in_block(n, 2, 1)
        in_block(earlier, 2, 0)
        if later_far_position is not None:
            in_block(later, 2, later_far_position)
        fars = [earlier, later] if far_first == "earlier" \
            else [later, earlier]
        aborted = BlockAwareSSI(db).validate(t, 2, candidates=[n] + fars)
        assert aborted == [n]
        assert not earlier.is_aborted and not later.is_aborted

    def test_committed_out_conflict_aborts_t(self, db):
        """Section 3.4.3 scenario 3: T's out-conflict committed first."""
        t = start(db, "SELECT v FROM t WHERE id = 2; "
                      "UPDATE t SET v = 101 WHERE id = 1")
        w = start(db, "UPDATE t SET v = 222 WHERE id = 2")
        in_block(w, 2, 0)
        BlockAwareSSI(db).validate(w, 2, candidates=[t])
        db.apply_commit(w, block_number=2)
        in_block(t, 3, 0)
        with pytest.raises(SerializationFailure) as err:
            BlockAwareSSI(db).validate(t, 3, candidates=[w])
        assert err.value.reason == "committed-out-conflict"

    def test_committed_near_conflict_is_harmless(self, db):
        """A nearConflict that already committed is plain time ordering."""
        n = start(db, "SELECT v FROM t WHERE id = 1; "
                      "UPDATE t SET v = 303 WHERE id = 3")
        in_block(n, 2, 0)
        BlockAwareSSI(db).validate(n, 2, candidates=[])
        db.apply_commit(n, block_number=2)
        t = start(db, "UPDATE t SET v = 101 WHERE id = 1", height=1)
        in_block(t, 3, 0)
        aborted = BlockAwareSSI(db).validate(t, 3, candidates=[n])
        assert aborted == []


class TestPhantomAndStaleReads:
    def test_phantom_read_detected(self, db):
        """Section 3.4.1 rule 1: a row matching the predicate created
        above the snapshot height aborts the reader."""
        writer = db.begin(allow_nondeterministic=True)
        run_sql(db, writer, "INSERT INTO t (id, v) VALUES (9, 15)")
        db.apply_commit(writer, block_number=2)
        db.committed_height = 2
        reader = db.begin(snapshot=BlockSnapshot(1),
                          allow_nondeterministic=True)
        with pytest.raises(SerializationFailure) as err:
            run_sql(db, reader, "SELECT v FROM t WHERE v >= 10 AND v <= 20")
        assert err.value.reason == "phantom-read"

    def test_stale_read_detected(self, db):
        """Section 3.4.1 rule 2: a matching row deleted above the snapshot
        height aborts the reader."""
        writer = db.begin(allow_nondeterministic=True)
        run_sql(db, writer, "DELETE FROM t WHERE id = 1")
        db.apply_commit(writer, block_number=2)
        db.committed_height = 2
        reader = db.begin(snapshot=BlockSnapshot(1),
                          allow_nondeterministic=True)
        with pytest.raises(SerializationFailure) as err:
            run_sql(db, reader, "SELECT v FROM t WHERE id = 1")
        assert err.value.reason == "stale-read"

    def test_old_snapshot_without_window_conflict_is_fine(self, db):
        writer = db.begin(allow_nondeterministic=True)
        run_sql(db, writer, "UPDATE t SET v = 333 WHERE id = 3")
        db.apply_commit(writer, block_number=2)
        db.committed_height = 2
        reader = db.begin(snapshot=BlockSnapshot(1),
                          allow_nondeterministic=True)
        result = run_sql(db, reader, "SELECT v FROM t WHERE id = 1")
        assert result.rows == [(10,)]

    def test_snapshot_height_sees_old_state(self, db):
        writer = db.begin(allow_nondeterministic=True)
        run_sql(db, writer, "UPDATE t SET v = 999 WHERE id = 2")
        db.apply_commit(writer, block_number=2)
        db.committed_height = 2
        new_reader = db.begin(snapshot=BlockSnapshot(2),
                              allow_nondeterministic=True)
        assert run_sql(db, new_reader,
                       "SELECT v FROM t WHERE id = 2").rows == [(999,)]
