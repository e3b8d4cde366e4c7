"""Differential test against an engine that shares no code with ours:
the standard library's ``sqlite3`` (ROADMAP item 4 ii, first slice).

Hypothesis draws the rows (NULLs included) and a threshold; both engines
load the same tables and answer the same statements.  Covered shapes:
global aggregates, ``GROUP BY`` + ``ORDER BY`` + ``LIMIT``,
equi-join + aggregate — the shapes whose scans no longer sort — and
joins on a nullable outer key, whose NULLs must join nothing, planned
both ways (a nested-loop probe leaves its index on a NULL key and
re-derives its access path; a hash join drops the key).  INNER and LEFT
joins between two indexed key columns (INT against FLOAT, NULL outer
keys, a residual ON conjunct, ORDER BY either key ascending and
descending) run under every planning mode, so each join operator is
checked against sqlite rather than against another of ours.

Comparison policy, stated once:

* results compare **as multisets** unless the statement's ORDER BY is
  total, in which case they compare as lists.  SQLite treats NULL as
  the smallest value and we sort it last in both directions, so a
  compared ORDER BY key may hold a NULL only when it is descending;
* ``int``, ``str`` and ``None`` must be equal and of the same type;
* a ``float`` must be within ``FLOAT_TOLERANCE`` relative (and the same
  absolute, for sums near zero) of SQLite's: SQLite adds doubles left
  to right where we return the exactly rounded sum, so the last bits
  may differ.  Values are drawn within ±1e6, in steps of 1/64, which
  keeps SQLite's own rounding error far inside the tolerance.
"""

import math
import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MissingIndexError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import counter, structural_planning

FLOAT_TOLERANCE = 1e-9

SCHEMA = [
    "CREATE TABLE t (id INT PRIMARY KEY, k INT NOT NULL, g TEXT, "
    "n INT, v FLOAT)",
    "CREATE INDEX t_k_idx ON t(k)",
    "CREATE TABLE u (k INT PRIMARY KEY, w FLOAT, tag TEXT NOT NULL)",
]

#: (statement, ordered).  ``$1`` is the drawn threshold.
STATEMENTS = [
    # global aggregates
    ("SELECT count(*), count(v), count(g), sum(v), avg(v), sum(n), "
     "avg(n), min(n), max(n), min(g), max(g) FROM t", False),
    ("SELECT count(*), sum(v), min(n), max(g) FROM t WHERE n >= $1", False),
    ("SELECT count(*), sum(n) FROM t WHERE k = $1", False),
    ("SELECT count(DISTINCT n), count(DISTINCT g) FROM t", False),
    # GROUP BY + ORDER BY + LIMIT
    ("SELECT k, count(*), sum(v), avg(n), min(g) FROM t GROUP BY k "
     "ORDER BY k", True),
    ("SELECT k, sum(n) FROM t WHERE n IS NOT NULL GROUP BY k "
     "ORDER BY sum(n) DESC, k ASC LIMIT 2", True),
    ("SELECT k, count(v) FROM t GROUP BY k HAVING count(*) > 1 "
     "ORDER BY k DESC LIMIT 3", True),
    ("SELECT g, count(*), sum(n), max(v) FROM t GROUP BY g", False),
    # equi-join + aggregate
    ("SELECT count(*), sum(t.v), sum(u.w), min(u.tag) FROM t "
     "JOIN u ON u.k = t.k", False),
    ("SELECT count(*), sum(t.n) FROM u JOIN t ON t.k = u.k "
     "WHERE u.tag = 'a' AND t.n > $1", False),
    ("SELECT u.k, count(t.id), sum(t.v) FROM u LEFT JOIN t ON t.k = u.k "
     "GROUP BY u.k ORDER BY u.k", True),
    ("SELECT u.tag, count(*), avg(t.v) FROM t JOIN u ON u.k = t.k "
     "GROUP BY u.tag ORDER BY u.tag LIMIT 2", True),
]

#: Joins on ``t.n``, which holds NULLs, probing ``u``'s primary key.
NULL_KEY_STATEMENTS = [
    "SELECT t.id, u.tag FROM t JOIN u ON u.k = t.n",
    "SELECT t.id, u.tag, u.w FROM t LEFT JOIN u ON u.k = t.n",
    "SELECT count(*), sum(u.w) FROM t JOIN u ON u.k = t.n WHERE t.k > $1",
]

#: Equi-joins between two indexed key columns — INT ``a.k`` (NULLs
#: included) and FLOAT ``b.k`` — the shapes a sort-merge join used to
#: take.  Each is (statement, ordered, outer table); the outer scan's
#: ``id >= 0`` keeps it index-backed for the execute-order flow.
JOIN_SCHEMA = [
    "CREATE TABLE a (id INT PRIMARY KEY, k INT, x INT NOT NULL)",
    "CREATE INDEX a_k ON a(k)",
    "CREATE TABLE b (id INT PRIMARY KEY, k FLOAT NOT NULL, w INT NOT NULL)",
    "CREATE INDEX b_k ON b(k)",
]
INDEXED_JOIN_STATEMENTS = [
    ("SELECT a.id, b.id, a.k, b.k FROM a JOIN b ON b.k = a.k "
     "WHERE a.id >= 0 ORDER BY a.k, a.id, b.id", True, "a"),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k "
     "WHERE a.id >= 0 ORDER BY b.k DESC, a.id, b.id", True, "a"),
    ("SELECT a.id, b.id, b.w FROM a LEFT JOIN b ON b.k = a.k "
     "WHERE a.id >= 0 ORDER BY a.k DESC, a.id, b.id", True, "a"),
    ("SELECT a.id, a.k, b.id FROM a LEFT JOIN b ON b.k = a.k "
     "WHERE a.id >= 0 ORDER BY a.k", False, "a"),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k AND b.w > $1 "
     "WHERE a.id >= 0 ORDER BY a.id, b.id", True, "a"),
    ("SELECT a.id, b.id FROM a LEFT JOIN b ON b.k = a.k AND b.w > $1 "
     "WHERE a.id >= 0 ORDER BY a.id, b.id", True, "a"),
    ("SELECT a.id, b.id FROM a JOIN b ON b.k = a.k "
     "WHERE a.id >= 0 AND b.w < $1 ORDER BY b.id, a.id", True, "a"),
    ("SELECT b.id, a.id, b.k FROM b JOIN a ON a.k = b.k "
     "WHERE b.id >= 0 ORDER BY b.k, b.id, a.id", True, "b"),
    ("SELECT b.id, a.id FROM b LEFT JOIN a ON a.k = b.k AND a.x > $1 "
     "WHERE b.id >= 0 ORDER BY b.k DESC, b.id, a.id", True, "b"),
    ("SELECT count(*), sum(b.w), count(b.id) FROM a LEFT JOIN b "
     "ON b.k = a.k WHERE a.id >= 0", False, "a"),
]

sixtyfourths = st.integers(-64_000_000, 64_000_000).map(lambda i: i / 64.0)
t_rows = st.lists(
    st.tuples(st.integers(0, 5),                                  # k
              st.one_of(st.none(), st.sampled_from("abc")),       # g
              st.one_of(st.none(), st.integers(-50, 50)),         # n
              st.one_of(st.none(), sixtyfourths)),                # v
    max_size=30)
u_rows = st.lists(
    st.tuples(st.integers(0, 7),
              st.one_of(st.none(), sixtyfourths),
              st.sampled_from("ab")),
    max_size=8, unique_by=lambda row: row[0])
a_rows = st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 6)),  # k
                            st.integers(-5, 5)),                      # x
                  max_size=12)
b_rows = st.lists(st.tuples(st.integers(0, 12).map(lambda i: i / 2.0),  # k
                            st.integers(-5, 5)),                        # w
                  max_size=12)


def with_ids(rows):
    """``rows`` numbered by an ``id`` in front."""
    return [(i,) + tuple(row) for i, row in enumerate(rows)]


def load_ours(tables, schema=SCHEMA):
    """A database of ``schema`` holding ``tables`` ({name: rows})."""
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    for ddl in schema:
        run_sql(db, tx, ddl)
    for table, rows in tables.items():
        for row in rows:
            run_sql(db, tx, f"INSERT INTO {table} VALUES (" + ", ".join(
                f"${i + 1}" for i in range(len(row))) + ")", params=row)
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


def load_sqlite(tables, schema=SCHEMA):
    conn = sqlite3.connect(":memory:")
    for ddl in schema:
        conn.execute(ddl)
    for table, rows in tables.items():
        if rows:
            conn.executemany(f"INSERT INTO {table} VALUES (" + ", ".join(
                "?" * len(rows[0])) + ")", rows)
    return conn


def sqlite_rows(conn, sql, threshold):
    return conn.execute(sql.replace("$1", "?1"),
                        (threshold,) if "$1" in sql else ()).fetchall()


def same_value(ours, theirs) -> bool:
    if isinstance(ours, float) and isinstance(theirs, float):
        return math.isclose(ours, theirs, rel_tol=FLOAT_TOLERANCE,
                            abs_tol=FLOAT_TOLERANCE)
    return type(ours) is type(theirs) and ours == theirs


def same_row(ours, theirs) -> bool:
    return len(ours) == len(theirs) and all(map(same_value, ours, theirs))


def assert_same(sql, ours, theirs, ordered):
    assert len(ours) == len(theirs), (sql, ours, theirs)
    if ordered:
        assert all(map(same_row, ours, theirs)), (sql, ours, theirs)
        return
    # Multiset comparison under the float tolerance: pair every row of
    # ours with a not-yet-taken row of theirs.
    left = Counter(theirs)
    for row in ours:
        match = next((cand for cand in left if same_row(row, cand)), None)
        assert match is not None, (sql, row, theirs)
        left[match] -= 1
        if not left[match]:
            del left[match]


class TestAgainstSqlite:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t_data=t_rows, u_data=u_rows, threshold=st.integers(-5, 5))
    def test_aggregates_groups_and_joins_agree(self, t_data, u_data,
                                               threshold):
        tables = {"t": with_ids(t_data), "u": u_data}
        db = load_ours(tables)
        conn = load_sqlite(tables)
        try:
            for sql, ordered in STATEMENTS:
                tx = db.begin(allow_nondeterministic=True)
                try:
                    ours = run_sql(db, tx, sql, params=(threshold,)).rows
                finally:
                    db.apply_abort(tx, reason="test")
                assert_same(sql, ours, sqlite_rows(conn, sql, threshold),
                            ordered)
        finally:
            conn.close()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t_data=t_rows, u_data=u_rows, threshold=st.integers(-5, 5))
    def test_null_outer_keys_join_nothing(self, t_data, u_data, threshold):
        tables = {"t": with_ids(t_data), "u": u_data}
        db = load_ours(tables)
        conn = load_sqlite(tables)

        def ours(sql):
            tx = db.begin(allow_nondeterministic=True)
            try:
                return run_sql(db, tx, sql, params=(threshold,)).rows
            finally:
                db.apply_abort(tx, reason="test")

        try:
            for sql in NULL_KEY_STATEMENTS:
                theirs = sqlite_rows(conn, sql, threshold)
                assert_same(sql, ours(sql), theirs, ordered=False)
                with structural_planning(db):
                    plan = [row[0] for row in ours("EXPLAIN " + sql)]
                    assert any("NestedLoopJoin" in line for line in plan)
                    before = counter(db, "sql.probe_fallbacks")
                    assert_same(sql, ours(sql), theirs, ordered=False)
                    nulls = sum(row[2] is None for row in t_data
                                if "$1" not in sql or row[0] > threshold)
                    assert counter(db, "sql.probe_fallbacks") - before == nulls
        finally:
            conn.close()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(a_data=a_rows, b_data=b_rows, threshold=st.integers(-5, 5))
    def test_indexed_key_joins_under_every_planning_mode(
            self, a_data, b_data, threshold):
        """Each remaining join operator against sqlite: the cost-based
        plan, the structural rules (HashJoin) and the execute-order flow
        (NestedLoopJoin probes).  There a NULL outer key bounds nothing,
        so its probe would read the whole inner table: the section 4.3
        rule aborts the statement instead."""
        tables = {"a": with_ids(a_data), "b": with_ids(b_data)}
        db = load_ours(tables, JOIN_SCHEMA)
        conn = load_sqlite(tables, JOIN_SCHEMA)
        eo = {"require_index": True}

        def ours(sql, **tx_kwargs):
            tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
            try:
                return run_sql(db, tx, sql, params=(threshold,)).rows
            finally:
                if not tx.is_aborted:
                    db.apply_abort(tx, reason="test")

        def operators(sql, **tx_kwargs):
            return " ".join(row[0] for row in ours("EXPLAIN " + sql,
                                                   **tx_kwargs))

        null_outer = any(k is None for k, _ in a_data)
        try:
            for sql, ordered, outer in INDEXED_JOIN_STATEMENTS:
                theirs = sqlite_rows(conn, sql, threshold)
                assert_same(sql, ours(sql), theirs, ordered)
                with structural_planning(db):
                    assert "HashJoin" in operators(sql)
                    assert_same(sql, ours(sql), theirs, ordered)
                assert "NestedLoopJoin" in operators(sql, **eo)
                if outer == "a" and null_outer:
                    with pytest.raises(MissingIndexError):
                        ours(sql, **eo)
                else:
                    assert_same(sql, ours(sql, **eo), theirs, ordered)
        finally:
            conn.close()

    def test_comparison_policy_catches_a_wrong_answer(self):
        assert same_value(0.1 + 0.2, 0.3)
        assert not same_value(1.0, 1.001)
        assert not same_value(1, 1.0) and not same_value(None, 0)
        assert_same("x", [(1, None), (2, 0.5)], [(2, 0.5), (1, None)],
                    ordered=False)
        for wrong in ([(1, None), (2, 0.6)], [(1, None), (1, None)]):
            try:
                assert_same("x", [(1, None), (2, 0.5)], wrong,
                            ordered=False)
            except AssertionError:
                continue
            raise AssertionError("policy accepted a wrong answer")
