"""Streaming Limit pipelines: ``ORDER BY <indexed column> LIMIT n``
through an IndexOrderScan + StreamingLimit.

Correctness bars: the stream is byte-identical to the materialize-and-
sort pipeline the structural rules plan, it only fires when index order
provably equals the Sort comparator's order, and it keeps every SSI
side effect a draining Limit had (predicate read, window checks, EO
abort) while reading only the rows it emits.
"""

import re

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


STREAM_SQL = ("SELECT event_id, weight FROM events "
              "ORDER BY event_id LIMIT 5")

JOIN_SQL = ("SELECT o.org_id, e.event_id, e.weight FROM orgs o "
            "JOIN events e ON e.org_id = o.org_id ORDER BY o.org_id")


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

    def test_eo_flow_plans_nothing_index_order(self, db):
        """Under require_index the structural rules plan every statement:
        no whole-index walk, for a join or for a LIMIT."""
        for sql in (JOIN_SQL, STREAM_SQL):
            lines = explain(db, sql, require_index=True)
            assert not any("IndexOrderScan" in line for line in lines)

    def test_explain_analyze_counts_the_stream(self, db):
        """``rows`` is the scan's one entry, so EXPLAIN ANALYZE counts the
        rows the Limit pulled from it — not the 60 it covers — and the
        cached template comes back unwrapped."""
        def analyze():
            lines = [r[0] for r in q(db, "EXPLAIN ANALYZE " +
                                     STREAM_SQL).rows]
            return [re.sub(r"time=\d+\.\d{3}ms", "time=<t>", line)
                    for line in lines[:3]]

        first = analyze()
        assert first[0].startswith("Limit (streaming, limit=5)")
        assert first[0].endswith("(actual rows=5 loops=1 time=<t>)")
        assert "IndexOrderScan on events using events_pkey" in first[2]
        assert first[2].endswith("(actual rows=5 loops=1 time=<t>)")
        assert analyze() == first
        assert q(db, STREAM_SQL).rows == legacy_rows(db, STREAM_SQL)
