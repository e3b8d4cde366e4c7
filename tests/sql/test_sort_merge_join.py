"""SortMergeJoin and streaming Limit pipelines.

Correctness bars: the merge join is byte-identical to the legacy
hash/nested-loop pipelines (including Sort output above), LEFT joins
emit null-extended rows, Sort elision only fires when index order
provably equals the Sort comparator's order, and streaming Limits keep
every SSI side effect a draining Limit had (predicate read, window
checks, EO abort) while reading only the rows they emit.
"""

import pytest

from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import structural_planning


def build_db(rows=60):
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, """
        CREATE TABLE orgs (
            org_id INT PRIMARY KEY,
            name TEXT NOT NULL
        );
        CREATE TABLE events (
            event_id INT PRIMARY KEY,
            org_id INT NOT NULL,
            weight FLOAT,
            note TEXT
        );
        CREATE INDEX events_org_idx ON events(org_id);
    """)
    for i in range(8):
        run_sql(db, tx, "INSERT INTO orgs (org_id, name) VALUES ($1, $2)",
                params=(i, f"org{i}"))
    for i in range(rows):
        run_sql(db, tx,
                "INSERT INTO events (event_id, org_id, weight, note) "
                "VALUES ($1, $2, $3, $4)",
                params=(i, i % 10, float(i % 7), f"n{i}"))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


@pytest.fixture
def db():
    return build_db()


def q(db, sql, params=(), **tx_kwargs):
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        return run_sql(db, tx, sql, params=params)
    finally:
        if not tx.is_aborted and not tx.is_committed:
            db.apply_abort(tx, reason="test")


def explain(db, sql, params=(), **tx_kwargs):
    return [r[0] for r in q(db, "EXPLAIN " + sql, params=params,
                            **tx_kwargs).rows]


def legacy_rows(db, sql, params=()):
    with structural_planning(db):
        return q(db, sql, params=params).rows


JOIN_SQL = ("SELECT o.org_id, e.event_id, e.weight FROM orgs o "
            "JOIN events e ON e.org_id = o.org_id ORDER BY o.org_id")


class TestSortMergeJoin:
    def test_plan_and_sort_elision(self, db):
        lines = explain(db, JOIN_SQL)
        assert any("SortMergeJoin INNER (e.org_id = o.org_id)" in line
                   for line in lines)
        assert sum("IndexOrderScan" in line for line in lines) == 2
        assert not any(line.lstrip(" ->").startswith("Sort ")
                       for line in lines)

    def test_results_match_legacy_pipeline(self, db):
        rows = q(db, JOIN_SQL).rows
        assert rows == legacy_rows(db, JOIN_SQL)
        # events 0..59 with org_id = i % 10: orgs 0..7 match i%10 in 0..7.
        assert len(rows) == sum(1 for i in range(60) if i % 10 < 8)
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_order_by_inner_key_also_elides(self, db):
        sql = ("SELECT e.event_id FROM orgs o "
               "JOIN events e ON e.org_id = o.org_id ORDER BY e.org_id")
        lines = explain(db, sql)
        assert any("SortMergeJoin" in line for line in lines)
        assert not any(line.lstrip(" ->").startswith("Sort ")
                       for line in lines)
        assert q(db, sql).rows == legacy_rows(db, sql)

    def test_desc_order_keeps_sort(self, db):
        sql = JOIN_SQL.replace("ORDER BY o.org_id", "ORDER BY o.org_id DESC")
        lines = explain(db, sql)
        assert any("Sort (o.org_id DESC)" in line for line in lines)
        assert q(db, sql).rows == legacy_rows(db, sql)

    def test_residual_on_conjunct_applies(self, db):
        sql = ("SELECT o.org_id, e.event_id FROM orgs o "
               "JOIN events e ON e.org_id = o.org_id AND e.weight > 3 "
               "ORDER BY o.org_id")
        rows = q(db, sql).rows
        assert rows == legacy_rows(db, sql)
        assert rows  # non-empty

    def test_where_filter_applies_above_merge(self, db):
        sql = ("SELECT o.org_id, e.event_id FROM orgs o "
               "JOIN events e ON e.org_id = o.org_id "
               "WHERE o.name = 'org3' ORDER BY e.event_id")
        assert q(db, sql).rows == legacy_rows(db, sql)

    def test_left_join_null_rows_in_key_order(self, db):
        # orgs 8..9 don't exist; events with org_id 8/9 have no org.
        # Conversely: give orgs a member with no events.
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO orgs (org_id, name) "
                        "VALUES (50, 'lonely')")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        sql = ("SELECT o.org_id, e.event_id FROM orgs o "
               "LEFT JOIN events e ON e.org_id = o.org_id "
               "ORDER BY o.org_id")
        lines = explain(db, sql)
        assert any("SortMergeJoin LEFT" in line for line in lines)
        rows = q(db, sql).rows
        assert rows == legacy_rows(db, sql)
        assert rows[-1] == (50, None)

    def test_merge_matches_int_float_keys(self, db):
        """'=' unifies int and float keys; the merge must agree with the
        hash/nested-loop comparators."""
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, """
            CREATE TABLE fa (id INT PRIMARY KEY, k FLOAT NOT NULL);
            CREATE TABLE fb (id INT PRIMARY KEY, k INT NOT NULL);
            CREATE INDEX fa_k ON fa(k);
            CREATE INDEX fb_k ON fb(k);
            INSERT INTO fa (id, k) VALUES (1, 1.0), (2, 2.0), (3, 2.0);
            INSERT INTO fb (id, k) VALUES (10, 1), (11, 2), (12, 9);
        """)
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        sql = ("SELECT fa.id, fb.id FROM fa JOIN fb ON fb.k = fa.k "
               "ORDER BY fa.id")
        rows = q(db, sql).rows
        assert rows == [(1, 10), (2, 11), (3, 11)]
        assert rows == legacy_rows(db, sql)

    def test_eo_flow_never_uses_merge_or_streaming(self, db):
        lines = explain(db, JOIN_SQL, require_index=True)
        assert not any("SortMergeJoin" in line for line in lines)
        assert not any("IndexOrderScan" in line for line in lines)
        lines = explain(db, "SELECT event_id FROM events "
                            "ORDER BY event_id LIMIT 3",
                        require_index=True)
        assert not any("IndexOrderScan" in line for line in lines)

    def test_predicate_reads_cover_both_tables(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, JOIN_SQL)
        tables = {p.table for p in tx.predicate_reads}
        assert {"orgs", "events"} <= tables
        db.apply_abort(tx, reason="test")

    def test_inputs_stream_without_materializing(self, db, monkeypatch):
        """Both merge inputs feed through ``stream_rows`` — the join never
        materializes a side's candidate list via ``scan_rows``."""
        from repro.sql.plan import IndexOrderScan

        def boom(self, rt):
            raise AssertionError(
                f"SortMergeJoin materialized {self.table} via scan_rows")
        monkeypatch.setattr(IndexOrderScan, "scan_rows", boom)
        lines = explain(db, JOIN_SQL)
        assert any("SortMergeJoin" in line for line in lines)
        rows = q(db, JOIN_SQL).rows
        monkeypatch.undo()
        assert rows == legacy_rows(db, JOIN_SQL)

    def test_streaming_left_join_matches_legacy(self, db, monkeypatch):
        from repro.sql.plan import IndexOrderScan
        sql = ("SELECT o.org_id, e.event_id FROM orgs o "
               "LEFT JOIN events e ON e.org_id = o.org_id "
               "ORDER BY o.org_id")
        monkeypatch.setattr(
            IndexOrderScan, "scan_rows",
            lambda self, rt: pytest.fail("materialized candidate list"))
        rows = q(db, sql).rows
        monkeypatch.undo()
        assert rows == legacy_rows(db, sql)

    def test_sees_own_uncommitted_writes(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO events (event_id, org_id, weight, "
                        "note) VALUES (900, 3, 1.0, 'mine')")
        rows = run_sql(db, tx, JOIN_SQL).rows
        assert (3, 900, 1.0) in rows
        db.apply_abort(tx, reason="test")


STREAM_SQL = ("SELECT event_id, weight FROM events "
              "ORDER BY event_id LIMIT 5")


class TestStreamingLimit:
    def test_plan_shape(self, db):
        lines = explain(db, STREAM_SQL)
        assert lines[0].startswith("Limit (streaming, limit=5)")
        assert any("IndexOrderScan on events using events_pkey" in line
                   for line in lines)
        assert not any("Sort" in line for line in lines)

    def test_results_match_legacy(self, db):
        assert q(db, STREAM_SQL).rows == legacy_rows(db, STREAM_SQL)

    def test_offset_and_params(self, db):
        sql = ("SELECT event_id FROM events ORDER BY event_id "
               "LIMIT $1 OFFSET $2")
        assert q(db, sql, params=(3, 4)).rows == \
            legacy_rows(db, sql, params=(3, 4))
        assert q(db, sql, params=(3, 4)).rows == [(4,), (5,), (6,)]

    def test_desc_streams_reversed(self, db):
        sql = "SELECT event_id FROM events ORDER BY event_id DESC LIMIT 4"
        lines = explain(db, sql)
        assert any("order by event_id desc" in line for line in lines)
        assert q(db, sql).rows == [(59,), (58,), (57,), (56,)]

    def test_nullable_column_only_streams_desc(self, db):
        # weight is nullable: ASC must keep the Sort (NULLS LAST), DESC
        # may stream (reversed index order ends with NULLs).
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE INDEX events_weight_idx "
                        "ON events(weight)")
        run_sql(db, tx, "INSERT INTO events (event_id, org_id, weight, "
                        "note) VALUES (901, 1, NULL, 'x')")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        asc = "SELECT event_id FROM events ORDER BY weight LIMIT 70"
        desc = "SELECT event_id FROM events ORDER BY weight DESC LIMIT 70"
        assert not any("IndexOrderScan" in line
                       for line in explain(db, asc))
        assert any("IndexOrderScan" in line
                   for line in explain(db, desc))
        assert q(db, asc).rows == legacy_rows(db, asc)
        assert q(db, desc).rows == legacy_rows(db, desc)
        # NULL weight sorts last in both directions.
        assert q(db, desc).rows[-1] == (901,)

    def test_where_filter_still_applies(self, db):
        sql = ("SELECT event_id FROM events WHERE weight > 3 "
               "ORDER BY event_id LIMIT 4")
        assert q(db, sql).rows == legacy_rows(db, sql)

    def test_bounds_on_order_column_narrow_the_walk(self, db):
        sql = ("SELECT event_id FROM events WHERE event_id >= 40 "
               "ORDER BY event_id LIMIT 3")
        assert q(db, sql).rows == [(40,), (41,), (42,)]
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, sql)
        predicate = [p for p in tx.predicate_reads
                     if p.table == "events" and p.columns]
        assert predicate, "bounded streaming scan records a range read"
        db.apply_abort(tx, reason="test")

    def test_limit_zero_still_records_predicate_read(self, db):
        """Streaming must not skip the SSI side effects: the predicate
        read (and window checks) happen at scan preparation even when
        no row is consumed."""
        tx = db.begin(allow_nondeterministic=True)
        result = run_sql(db, tx, "SELECT event_id FROM events "
                                 "ORDER BY event_id LIMIT 0")
        assert result.rows == []
        assert any(p.table == "events" for p in tx.predicate_reads)
        db.apply_abort(tx, reason="test")

    def test_stream_predicate_read_covers_unread_rows(self, db):
        """The stream consumes a prefix of the walk; its one predicate
        read covers every row of it, the ones past the LIMIT included
        (conservative SSI)."""
        tx = db.begin(allow_nondeterministic=True)
        assert len(run_sql(db, tx, STREAM_SQL).rows) == 5
        predicates = [p for p in tx.predicate_reads if p.table == "events"]
        db.apply_abort(tx, reason="test")
        assert len(predicates) == 1
        every = q(db, "SELECT * FROM events")
        assert len(every.rows) >= 60
        for row in every.rows:
            assert predicates[0].matches_values(dict(zip(every.columns, row)))

    def test_cache_hit_matches_miss(self, db):
        first = q(db, STREAM_SQL).rows
        lines = explain(db, STREAM_SQL)
        assert lines[-1] == "Plan Cache: hit"
        assert q(db, STREAM_SQL).rows == first
