"""Vacuum retention property: pruning never changes retained history.

The contract (`storage/vacuum.py`): after ``vacuum_database(db,
retain_height=r)``, the set of versions visible at *every* height ``h >=
r`` is exactly what it was before the pass.  Hypothesis drives random
insert/update/delete histories and random horizons; the visible sets are
computed straight from the heap with ``BlockSnapshot`` visibility, so
the property holds independent of the SQL layer.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.storage.snapshot import BlockSnapshot
from repro.storage.vacuum import vacuum_database, vacuum_table
from tests.storage.test_visibility_oracle import visible

KEYS = list(range(5))

operations = st.lists(
    st.lists(st.tuples(st.sampled_from(["upsert", "delete"]),
                       st.sampled_from(KEYS),
                       st.integers(min_value=0, max_value=99)),
             min_size=1, max_size=3),
    min_size=1, max_size=6)


def build_history(blocks):
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.apply_commit(setup, block_number=0)
    height = 0
    for ops in blocks:
        height += 1
        tx = db.begin(allow_nondeterministic=True)
        for action, key, value in ops:
            exists = run_sql(db, tx, "SELECT id FROM t WHERE id = $1",
                             params=(key,)).rows
            if action == "delete":
                run_sql(db, tx, "DELETE FROM t WHERE id = $1",
                        params=(key,))
            elif exists:
                run_sql(db, tx, "UPDATE t SET v = $2 WHERE id = $1",
                        params=(key, value))
            else:
                run_sql(db, tx, "INSERT INTO t (id, v) VALUES ($1, $2)",
                        params=(key, value))
        db.apply_commit(tx, block_number=height)
        db.committed_height = height
    return db, height


def visible_set(db, height):
    """Frozen view of table ``t`` at ``height``, from the heap."""
    heap = db.catalog.heap_of("t")
    snapshot = BlockSnapshot(height)
    return frozenset(
        (v.row_id, tuple(sorted(v.values.items())))
        for v in heap.all_versions()
        if visible(v, snapshot, db.statuses, None))


class TestVacuumRetention:
    @given(operations, st.integers(min_value=0, max_value=6))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_vacuum_preserves_every_retained_height(self, blocks, retain):
        db, committed = build_history(blocks)
        retain = min(retain, committed)
        before = {h: visible_set(db, h)
                  for h in range(retain, committed + 1)}
        report = vacuum_database(db, retain_height=retain)
        assert report.retain_height == retain
        for h in range(retain, committed + 1):
            assert visible_set(db, h) == before[h], \
                f"vacuum at {retain} changed state visible at {h}"
        assert db.retained_height == retain

    @given(operations)
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_vacuum_at_committed_height_keeps_latest_state(self, blocks):
        db, committed = build_history(blocks)
        latest = visible_set(db, committed)
        vacuum_database(db, retain_height=committed)
        assert visible_set(db, committed) == latest

    @given(operations, st.integers(min_value=0, max_value=6))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_replica_unaffected_by_vacuum(self, blocks, retain):
        """The columnar store keeps its copies: AS OF reads at retained
        heights return the same rows before and after the pass."""
        db, committed = build_history(blocks)
        db.columnstore.on_block(db, committed)
        retain = min(retain, committed)

        def as_of_rows(height):
            tx = db.begin(allow_nondeterministic=True, read_only=True)
            try:
                return run_sql(db, tx, "SELECT id, v FROM t AS OF BLOCK $1",
                               params=(height,)).rows
            finally:
                db.apply_abort(tx, reason="read-only")

        before = {h: as_of_rows(h) for h in range(retain, committed + 1)}
        vacuum_database(db, retain_height=retain)
        for h in range(retain, committed + 1):
            assert as_of_rows(h) == before[h]


class TestPinnedSnapshots:
    def test_pinned_block_snapshot_clamps_horizon(self):
        db, committed = build_history(
            [[("upsert", 1, 5)], [("upsert", 1, 6)], [("upsert", 1, 7)]])
        pinned = db.begin_at_height(1)   # in-flight historical reader
        state_at_1 = visible_set(db, 1)
        report = vacuum_database(db, retain_height=committed)
        assert report.requested_retain_height == committed
        assert report.retain_height == 1   # clamped to the pin
        assert visible_set(db, 1) == state_at_1
        assert db.retained_height == 1
        db.apply_abort(pinned, reason="done")
        # Pin released: the next pass may advance the horizon.
        report = vacuum_database(db, retain_height=committed)
        assert report.retain_height == committed

    def test_vacuum_table_skips_uncommitted_deleter(self):
        db, _ = build_history([[("upsert", 1, 5)]])
        pending = db.begin(allow_nondeterministic=True)
        run_sql(db, pending, "DELETE FROM t WHERE id = 1")
        heap = db.catalog.heap_of("t")
        assert vacuum_table(heap, db.statuses, retain_height=99) == 0
