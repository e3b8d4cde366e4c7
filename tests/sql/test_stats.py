"""Snapshot-anchored statistics (sql/stats.py).

The determinism contract: ``row_count`` and ``ndv`` are pure functions
of (table, committed block sequence, anchor height) — in-flight
transactions and abort noise must never move them.  The columnar
replica answers every statistic; the heap oracle below filters the row
store's version store with the committed-at-anchor predicate, and the
two must agree to the row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.stats import StatisticsManager
from repro.storage.vacuum import vacuum_database
from repro.errors import CatalogError
from repro.sql.stats import stats_key_part
from tests.conftest import counter


# ---------------------------------------------------------------------------
# The heap oracle: the same statistics, read from the row store
# ---------------------------------------------------------------------------

def visible_at_anchor(db, version, anchor: int) -> bool:
    """The committed-at-anchor predicate over a heap version, the twin
    of the replica's ``visible_at``: created by a committed transaction
    at or below the anchor, and not deleted by a committed transaction
    at or below it."""
    statuses = db.statuses
    if version.creator_block is None or version.creator_block > anchor:
        return False
    if not statuses.is_committed(version.xmin):
        return False
    return not (version.deleter_block is not None
                and version.xmax_winner is not None
                and statuses.is_committed(version.xmax_winner)
                and version.deleter_block <= anchor)


def heap_row_count(db, table: str, anchor: int) -> int:
    return sum(1 for version in db.catalog.heap_of(table).all_versions()
               if visible_at_anchor(db, version, anchor))


def heap_ndv(db, table: str, columns, anchor: int) -> int:
    """Distinct non-NULL ``columns`` tuples, keyed as ``ndv`` keys them
    (the raw count: ``StatisticsManager.ndv`` floors it at 1)."""
    seen = set()
    for version in db.catalog.heap_of(table).all_versions():
        if not visible_at_anchor(db, version, anchor):
            continue
        values = tuple(version.values.get(col) for col in columns)
        if any(v is None for v in values):
            continue
        seen.add(tuple(stats_key_part(v) for v in values))
    return len(seen)


def build_db():
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, """
        CREATE TABLE readings (
            sensor INT PRIMARY KEY,
            region TEXT NOT NULL,
            amount FLOAT
        );
        CREATE INDEX readings_region_idx ON readings(region);
    """)
    for i in range(30):
        run_sql(db, tx,
                "INSERT INTO readings (sensor, region, amount) "
                "VALUES ($1, $2, $3)",
                params=(i, f"r{i % 5}", float(i) if i % 10 else None))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    db.columnstore.on_block(db, 1)
    return db


@pytest.fixture
def db():
    return build_db()


class TestAnchoredRowCounts:
    def test_counts_committed_rows_at_anchor(self, db):
        stats = db.stats.table_stats("readings")
        assert stats.anchor == 1
        assert stats.row_count == 30

    def test_uncommitted_writes_invisible(self, db):
        tx = db.begin(allow_nondeterministic=True)
        for i in range(5):
            run_sql(db, tx, "INSERT INTO readings (sensor, region, "
                            "amount) VALUES ($1, 'rX', 1.0)",
                    params=(100 + i,))
        assert db.stats.table_stats("readings").row_count == 30
        db.apply_abort(tx, reason="test")
        assert db.stats.table_stats("readings").row_count == 30

    def test_commits_above_anchor_invisible_until_height_advance(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM readings WHERE sensor < 10")
        db.apply_commit(tx, block_number=2)
        # Anchor still 1: the deletes are stamped above it.
        assert db.stats.table_stats("readings").row_count == 30
        db.committed_height = 2
        stats = db.stats.table_stats("readings")
        assert stats.anchor == 2
        assert stats.row_count == 20

    def test_replica_and_heap_oracle_agree(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "UPDATE readings SET amount = 99.0 "
                        "WHERE sensor >= 20")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        db.columnstore.on_block(db, 2)
        for anchor in (1, 2):
            db.committed_height = anchor
            assert db.stats.table_stats("readings").row_count == \
                heap_row_count(db, "readings", anchor)

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.stats.table_stats("nope")


class TestAnchoredNdv:
    def test_distinct_counts(self, db):
        assert db.stats.ndv("readings", ("region",)) == 5
        assert db.stats.ndv("readings", ("sensor",)) == 30
        assert db.stats.ndv("readings", ("region", "sensor")) == 30

    def test_null_tuples_excluded(self, db):
        # sensors 0, 10, 20 have NULL amounts.
        assert db.stats.ndv("readings", ("amount",)) == 27

    def test_replica_and_heap_oracle_agree(self, db):
        for cols in [("region",), ("amount",), ("region", "sensor")]:
            assert db.stats.ndv("readings", cols) == \
                heap_ndv(db, "readings", cols, 1), cols

    def test_equal_numeric_values_count_once(self, db):
        """1 and 1.0 compare equal under '=', so they are one key."""
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, """
            CREATE TABLE mixed (id INT PRIMARY KEY, v FLOAT);
            INSERT INTO mixed (id, v) VALUES (1, 1.0), (2, 1.0), (3, 2.5);
        """)
        db.apply_commit(tx, block_number=1)
        assert db.stats.ndv("mixed", ("v",)) == 2

    def test_minimum_is_one(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE empty_t (id INT PRIMARY KEY)")
        db.apply_abort(tx, reason="test")
        # Aborted DDL still registered the table?  Re-create committed.
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE IF NOT EXISTS empty_t "
                        "(id INT PRIMARY KEY)")
        db.apply_commit(tx, block_number=1)
        assert db.stats.ndv("empty_t", ("id",)) == 1


class TestCaching:
    def test_cached_until_heap_drift(self, db):
        db.stats.table_stats("readings")
        before = counter(db, "stats.computations")
        db.stats.table_stats("readings")
        assert counter(db, "stats.computations") == before
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO readings (sensor, region, amount) "
                        "VALUES (200, 'r0', 1.0)")
        db.stats.table_stats("readings")       # uncommitted: memo holds
        assert counter(db, "stats.computations") == before
        db.apply_commit(tx, block_number=1)
        db.stats.table_stats("readings")       # committed drift: recompute
        assert counter(db, "stats.computations") == before + 1

    def test_same_anchor_commit_recomputes(self, db):
        """An out-of-band commit stamped at the current anchor changes
        committed-at-anchor state; the freshness token catches it."""
        assert db.stats.table_stats("readings").row_count == 30
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO readings (sensor, region, amount) "
                        "VALUES (300, 'r1', 2.0)")
        db.apply_commit(tx, block_number=1)
        assert db.stats.table_stats("readings").row_count == 31


# ---------------------------------------------------------------------------
# Property: the memo is never stale
# ---------------------------------------------------------------------------

#: ``None`` probes the row count, a column tuple its distinct count.
PROBES = [None, ("region",), ("sensor",), ("region", "amount")]


def probe(stats, columns):
    if columns is None:
        return stats.table_stats("readings")
    return stats.ndv("readings", columns)


def oracle(db, columns) -> int:
    anchor = db.committed_height
    if columns is None:
        return heap_row_count(db, "readings", anchor)
    return max(1, heap_ndv(db, "readings", columns, anchor))


def assert_memo_fresh(db, settled: bool = True):
    """Every memoized statistic equals a recompute from scratch and,
    when ``settled``, the heap oracle.  Inside a block's batch the heap
    is half-stamped (a deleter stamps at commit, its successor's
    creator only at ``apply_block``), so the oracle waits for the
    batch to close."""
    fresh = StatisticsManager(db)
    for columns in PROBES:
        memo = probe(db.stats, columns)
        assert memo == probe(fresh, columns), columns
        if settled:
            value = memo.row_count if columns is None else memo
            assert value == oracle(db, columns), columns


class Churn:
    """Drives one database through everything that can move
    committed-at-anchor state (commits inside and outside a block,
    recovery rollback, vacuum, reclaim, DDL) and everything that cannot
    (uncommitted writes, aborts), checking the memo after each step."""

    def __init__(self):
        self.db = build_db()
        self.open = []            # uncommitted transactions, oldest first
        self.last_commit = None   # newest commit, while rollback is sound
        self.fresh_ids = iter(range(1000, 10 ** 6))
        assert_memo_fresh(self.db)

    def step(self, op, k):
        getattr(self, op)(k)
        assert_memo_fresh(self.db)

    def _write(self, sql, params):
        tx = self.db.begin(allow_nondeterministic=True)
        run_sql(self.db, tx, sql, params=params)
        self.open.append(tx)

    def insert(self, k):
        self._write("INSERT INTO readings (sensor, region, amount) "
                    "VALUES ($1, $2, $3)",
                    (next(self.fresh_ids), f"r{k % 7}", float(k)))

    def update(self, k):
        self._write("UPDATE readings SET amount = 1.5 + $1, region = 'rU' "
                    "WHERE sensor = $1", (k,))

    def delete(self, k):
        self._write("DELETE FROM readings WHERE sensor = $1", (k,))

    def abort(self, k):
        if self.open:
            self.db.apply_abort(self.open.pop(k % len(self.open)),
                                reason="test")

    def _abort_open(self):
        while self.open:
            self.db.apply_abort(self.open.pop(), reason="test")

    def _commit(self, tx, **kwargs):
        """Commit ``tx`` unless an earlier commit already won one of
        its rows (the ww check the validators would make)."""
        if any(entry.old_version is not None
               and entry.old_version.xmax_winner is not None
               for entry in tx.writes):
            self.db.apply_abort(tx, reason="ww")
            return
        self.db.apply_commit(tx, **kwargs)
        self.last_commit = tx

    def commit_block(self, k):
        """The block processor's sequence.  Odd ``k`` replays a block at
        the current height (as recovery and test fixtures do): its
        deferred creator stamps then land at the anchor, not above."""
        db = self.db
        height = db.committed_height + 1 - k % 2
        batch = db.begin_block_apply(height)
        for tx in self.open:
            self._commit(tx, block_number=height, batch=batch)
            assert_memo_fresh(db, settled=False)
        self.open = []
        db.apply_block(batch)
        assert_memo_fresh(db)
        db.committed_height = height
        db.retire_finished(height)
        db.columnstore.on_block(db, height)

    def commit_standalone(self, k):
        """No block: stamped at the current height, so committed state
        moves under an unmoved anchor."""
        if self.open:
            self._commit(self.open.pop(k % len(self.open)))

    def rollback(self, k):
        tx, self.last_commit = self.last_commit, None
        if tx is not None:
            self._abort_open()
            self.db.rollback_committed(tx)
            assert_memo_fresh(self.db)
            self.db.apply_abort(tx, reason="recovery")

    def _dead(self):
        db = self.db
        return [v for v in db.catalog.heap_of("readings").all_versions()
                if v.is_dead and db.statuses.is_committed(v.xmax_winner)
                and v.deleter_block <= db.committed_height]

    def vacuum(self, k):
        self.last_commit = None
        vacuum_database(self.db,
                        retain_height=self.db.committed_height - k % 2)

    def reclaim(self, k):
        self.last_commit = None
        self.db.reclaim_versions("readings", self._dead()[:k % 4 + 1])

    def ddl(self, k):
        tx = self.db.begin(allow_nondeterministic=True)
        if k % 2:
            run_sql(self.db, tx, f"CREATE INDEX readings_amount_"
                                 f"{next(self.fresh_ids)}_idx "
                                 f"ON readings(amount)")
        else:
            # A new heap under the old name: its counters start over.
            self._abort_open()
            self.last_commit = None
            run_sql(self.db, tx, """
                DROP TABLE readings;
                CREATE TABLE readings (
                    sensor INT PRIMARY KEY,
                    region TEXT NOT NULL,
                    amount FLOAT
                );
            """)
            for i in range(k % 5 + 1):
                run_sql(self.db, tx,
                        "INSERT INTO readings (sensor, region, amount) "
                        "VALUES ($1, $2, $3)",
                        params=(i, f"r{i % 2}", float(i)))
        self.db.apply_commit(tx)


CHURN_OPS = ["insert", "update", "delete", "abort", "commit_block",
             "commit_standalone", "rollback", "vacuum", "reclaim", "ddl"]


class TestMemoNeverStale:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(CHURN_OPS),
                                    st.integers(0, 29)), max_size=30))
    def test_memo_equals_recompute_after_any_history(self, steps):
        churn = Churn()
        for op, k in steps:
            churn.step(op, k)

    def test_physical_removal_moves_the_token(self, db):
        """Whatever removes a version the anchor still sees (a vacuum
        told to retain nothing) moves the freshness token: the next read
        recomputes instead of serving the memo.  (The count itself stays
        30 — the replica keeps reclaimed history.)"""
        assert db.stats.table_stats("readings").row_count == 30
        before = counter(db, "stats.computations")
        heap = db.catalog.heap_of("readings")
        db.reclaim_versions("readings", heap.all_versions()[:4])
        db.stats.table_stats("readings")
        assert counter(db, "stats.computations") == before + 1

    def test_uncommitted_churn_and_aborts_recompute_nothing(self):
        churn = Churn()
        before = counter(churn.db, "stats.computations")
        for k in range(30):
            churn.step(("insert", "update", "delete", "abort")[k % 4], k)
        assert counter(churn.db, "stats.computations") == \
            before + len(PROBES) * 30


# ---------------------------------------------------------------------------
# Tables no block writes are not recounted
# ---------------------------------------------------------------------------

class TestUntouchedTables:
    """The memo is keyed on the highest block that stamped the table,
    not on the node's height: blocks that write only ``summaries`` leave
    ``readings``' statistics where they were."""

    @pytest.fixture
    def db(self):
        db = build_db()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE summaries (k INT PRIMARY KEY, "
                        "total FLOAT)")
        db.apply_commit(tx, block_number=1)
        return db

    @staticmethod
    def block(db, sql, params=()):
        """One block at the next height, the block processor's way."""
        height = db.committed_height + 1
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, sql, params=params)
        batch = db.begin_block_apply(height)
        db.apply_commit(tx, block_number=height, batch=batch)
        db.apply_block(batch)
        db.committed_height = height
        db.columnstore.on_block(db, height)
        return height

    @staticmethod
    def probe_all(db):
        return [probe(db.stats, columns) for columns in PROBES]

    def test_blocks_writing_other_tables_recount_nothing(self, db):
        first = self.probe_all(db)
        before = counter(db, "stats.computations")
        for k in range(5):
            height = self.block(
                db, "INSERT INTO summaries (k, total) VALUES ($1, 1.0)",
                (k,))
            assert db.stats.table_stats("readings").anchor == height
            assert [v.row_count if i == 0 else v for i, v in
                    enumerate(self.probe_all(db))] == \
                [first[0].row_count] + first[1:]
        assert counter(db, "stats.computations") == before

    def test_a_block_writing_the_table_recounts(self, db):
        self.probe_all(db)
        before = counter(db, "stats.computations")
        self.block(db, "DELETE FROM readings WHERE sensor < 5")
        stats = db.stats.table_stats("readings")
        assert stats.row_count == 25
        assert counter(db, "stats.computations") == before + 1

    def test_a_stamp_ahead_of_the_anchor_keeps_the_anchors_value(self, db):
        assert db.stats.table_stats("readings").row_count == 30
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM readings WHERE sensor < 10")
        db.apply_commit(tx, block_number=2)     # anchor still 1
        stats = db.stats.table_stats("readings")
        assert (stats.anchor, stats.row_count) == (1, 30)
        assert db.stats.ndv("readings", ("sensor",)) == 30
        db.committed_height = 2
        db.columnstore.on_block(db, 2)
        assert db.stats.table_stats("readings").row_count == 20
        assert db.stats.ndv("readings", ("sensor",)) == 20

    def test_a_hit_at_a_new_anchor_syncs_the_replica(self, db):
        """The replica ingests where a recount at each new anchor would
        have synced it, so its counters do not depend on the memo."""
        self.probe_all(db)
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO summaries (k, total) VALUES (1, 1.0)")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2         # no on_block: the insert is queued
        before = [counter(db, name) for name in
                  ("stats.computations", "columnstore.ingested_versions")]
        self.probe_all(db)
        assert [counter(db, name) for name in
                ("stats.computations", "columnstore.ingested_versions")] \
            == [before[0], before[1] + 1]

    def test_every_anchor_matches_the_heap_oracle(self, db):
        self.block(db, "INSERT INTO summaries (k, total) VALUES (1, 1.0)")
        self.block(db, "UPDATE readings SET amount = 7.0 "
                       "WHERE sensor >= 20")
        self.block(db, "INSERT INTO summaries (k, total) VALUES (2, 1.0)")
        self.block(db, "DELETE FROM readings WHERE sensor < 3")
        self.block(db, "INSERT INTO summaries (k, total) VALUES (3, 1.0)")
        top = db.committed_height
        for anchor in [*range(1, top + 1), *range(top, 0, -1)]:
            db.committed_height = anchor
            assert_memo_fresh(db)
