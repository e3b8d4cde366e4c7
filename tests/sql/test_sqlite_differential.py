"""Differential test against an engine that shares no code with ours:
the standard library's ``sqlite3`` (ROADMAP item 4 ii, first slice).

Hypothesis draws the rows (NULLs included) and a threshold; both engines
load the same tables and answer the same statements.  Covered shapes:
global aggregates, ``GROUP BY`` + ``ORDER BY`` + ``LIMIT``,
equi-join + aggregate — the shapes whose scans no longer sort — and
joins on a nullable outer key, whose NULLs must join nothing, planned
both ways (a nested-loop probe leaves its index on a NULL key and
re-derives its access path; a hash join drops the key).

Comparison policy, stated once:

* results compare **as multisets** unless the statement's ORDER BY is
  total over NOT NULL keys, in which case they compare as lists (SQLite
  sorts NULLs first, we sort them last, so a NULL never appears in a
  compared ORDER BY key);
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

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def load_ours(t_data, u_data):
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    for ddl in SCHEMA:
        run_sql(db, tx, ddl)
    for i, row in enumerate(t_data):
        run_sql(db, tx, "INSERT INTO t (id, k, g, n, v) VALUES "
                        "($1, $2, $3, $4, $5)", params=(i,) + row)
    for row in u_data:
        run_sql(db, tx, "INSERT INTO u (k, w, tag) VALUES ($1, $2, $3)",
                params=row)
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


def load_sqlite(t_data, u_data):
    conn = sqlite3.connect(":memory:")
    for ddl in SCHEMA:
        conn.execute(ddl)
    conn.executemany("INSERT INTO t VALUES (?, ?, ?, ?, ?)",
                     [(i,) + row for i, row in enumerate(t_data)])
    conn.executemany("INSERT INTO u VALUES (?, ?, ?)", u_data)
    return conn


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
        db = load_ours(t_data, u_data)
        conn = load_sqlite(t_data, u_data)
        try:
            for sql, ordered in STATEMENTS:
                tx = db.begin(allow_nondeterministic=True)
                try:
                    ours = run_sql(db, tx, sql, params=(threshold,)).rows
                finally:
                    db.apply_abort(tx, reason="test")
                theirs = conn.execute(
                    sql.replace("$1", "?1"),
                    (threshold,) if "$1" in sql else ()).fetchall()
                assert_same(sql, ours, theirs, ordered)
        finally:
            conn.close()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(t_data=t_rows, u_data=u_rows, threshold=st.integers(-5, 5))
    def test_null_outer_keys_join_nothing(self, t_data, u_data, threshold):
        db = load_ours(t_data, u_data)
        conn = load_sqlite(t_data, u_data)

        def ours(sql):
            tx = db.begin(allow_nondeterministic=True)
            try:
                return run_sql(db, tx, sql, params=(threshold,)).rows
            finally:
                db.apply_abort(tx, reason="test")

        try:
            for sql in NULL_KEY_STATEMENTS:
                theirs = conn.execute(
                    sql.replace("$1", "?1"),
                    (threshold,) if "$1" in sql else ()).fetchall()
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
