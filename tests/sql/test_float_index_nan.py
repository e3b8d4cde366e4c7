"""NaN in an index on a FLOAT column, and in a hash-join key.

``normalize_key_part`` gives NaN the place ``compare_values`` gives it:
equal to itself and above every number (below strings).  Before that,
NaN went into the key as ``(number rank, nan)``, which compares false
against everything: the sorted run ``bisect`` relies on stopped being
sorted, and a range scan lost rows — the plain 5.0 row included — once
an index existed.  The hash join's bucket key, the predicate-read keys
and the distinct-count keys all go through the same function.  The
range histogram that costs such a scan buckets finite values only (a
NaN or an infinity made building it raise).

The oracle is the engine without the index: a sequential scan filters
with ``compare_values`` alone, and the ``AS OF`` read (what
``DatabaseNode.query_as_of`` runs) answers from the columnar replica.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mvcc.database import Database
from repro.sql.executor import Executor, run_sql
from repro.sql.expressions import compare_values
from repro.sql.parser import parse_sql
from tests.conftest import same_outcome

NAN = float("nan")
REPRO = [5.0, NAN, 1.0, 7.0, 3.0, NAN, 9.0, 2.0]


def build(values, index=False):
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, x FLOAT NOT NULL)")
    for i, value in enumerate(values):
        run_sql(db, tx, "INSERT INTO t (id, x) VALUES ($1, $2)",
                params=(i, value))
    if index:
        run_sql(db, tx, "CREATE INDEX t_x ON t(x)")
    db.apply_commit(tx, block_number=1)
    commit_block(db, 1)
    return db


def commit_block(db, height):
    db.committed_height = height
    db.columnstore.on_block(db, height)


def query(db, sql, params=(), as_of=None):
    """A read-only query, as ``DatabaseNode.query`` runs it; ``as_of``
    pins it to a height, as ``DatabaseNode.query_as_of`` does."""
    tx = db.begin(allow_nondeterministic=True, read_only=True)
    try:
        executor = Executor(db, tx, default_as_of=as_of)
        for stmt in parse_sql(sql):
            result = executor.execute(stmt, params=params)
        return result
    finally:
        db.apply_abort(tx, reason="read-only")


def ids(db, sql, params=(), as_of=None):
    return {row[0] for row in query(db, sql, params, as_of).rows}


def plan_text(db, sql, params=()):
    return "\n".join(row[0] for row in query(db, "EXPLAIN " + sql,
                                             params).rows)


class TestRepro:
    SQL = "SELECT id FROM t WHERE x > 4.0"
    EXPECTED = {0, 1, 3, 5, 6}

    def test_index_created_after_the_rows(self):
        db = build(REPRO)
        assert ids(db, self.SQL) == self.EXPECTED
        assert ids(db, self.SQL, as_of=1) == self.EXPECTED
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE INDEX t_x ON t(x)")
        db.apply_commit(tx, block_number=2)
        commit_block(db, 2)
        assert "using t_x" in plan_text(db, self.SQL)
        assert ids(db, self.SQL) == self.EXPECTED
        assert ids(db, self.SQL, as_of=2) == self.EXPECTED
        assert ids(db, self.SQL, as_of=1) == self.EXPECTED

    def test_nan_keys_are_one_key(self):
        db = build(REPRO, index=True)
        assert ids(db, "SELECT id FROM t WHERE x = $1", (NAN,)) == {1, 5}
        assert ids(db, "SELECT id FROM t WHERE x >= $1", (NAN,)) == {1, 5}
        assert ids(db, "SELECT id FROM t WHERE x < $1", (NAN,)) == \
            {0, 2, 3, 4, 6, 7}
        assert "using t_x" in plan_text(db, "SELECT id FROM t WHERE x = $1",
                                        (NAN,))

    def test_index_order_puts_nan_last(self):
        db = build(REPRO, index=True)
        sql = "SELECT x FROM t ORDER BY x LIMIT 8"
        assert "IndexOrderScan" in plan_text(db, sql)
        got = [row[0] for row in query(db, sql).rows]
        assert got[:6] == [1.0, 2.0, 3.0, 5.0, 7.0, 9.0]
        assert all(math.isnan(value) for value in got[6:])


class TestHashJoinKey:
    """NaN = NaN pairs join through a hash bucket exactly as the ``=``
    comparator matches them."""

    def test_hash_join_matches_the_comparator(self):
        left = [NAN, 1.0, 0.0, NAN, 2.5]
        right = [NAN, -0.0, 2.5, 3.0, NAN, 1.0]
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE a (id INT PRIMARY KEY, x FLOAT); "
                        "CREATE TABLE b (id INT PRIMARY KEY, y FLOAT)")
        for i, value in enumerate(left):
            run_sql(db, tx, "INSERT INTO a (id, x) VALUES ($1, $2)",
                    params=(i, value))
        for i, value in enumerate(right):
            run_sql(db, tx, "INSERT INTO b (id, y) VALUES ($1, $2)",
                    params=(i, value))
        db.apply_commit(tx, block_number=1)
        commit_block(db, 1)
        sql = "SELECT a.id, b.id FROM a JOIN b ON b.y = a.x"
        assert "HashJoin" in plan_text(db, sql)
        expected = {(i, j) for i, x in enumerate(left)
                    for j, y in enumerate(right) if compare_values(x, y) == 0}
        assert expected == {(0, 0), (0, 4), (3, 0), (3, 4), (1, 5), (2, 1),
                            (4, 2)}
        assert set(query(db, sql).rows) == expected


POOL = [NAN, math.inf, -math.inf, 0.0, -0.0, 1.5, -2.5, 3.0, 1e308]
values = st.lists(st.sampled_from(POOL), min_size=1, max_size=12)
constants = st.sampled_from(POOL)
PREDICATES = [
    "x = $1", "x < $1", "x <= $1", "x > $1", "x >= $1",
    "x BETWEEN $1 AND $2", "x IN ($1, $2)", "x > $1 AND x <= $2",
]


class TestIndexScanSeqScanAsOfAgree:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=values, low=constants, high=constants,
           predicate=st.sampled_from(PREDICATES))
    def test_where_answers_alike(self, values, low, high, predicate):
        plain, indexed = build(values), build(values, index=True)
        sql = f"SELECT id FROM t WHERE {predicate}"
        params = (low, high) if "$2" in predicate else (low,)
        expected = ids(plain, sql, params)
        assert "using t_x" in plan_text(indexed, sql, params)
        assert ids(indexed, sql, params) == expected
        assert ids(indexed, sql, params, as_of=1) == expected
        assert ids(plain, sql, params, as_of=1) == expected

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(values=values, limit=st.integers(0, 12))
    def test_index_order_stream_answers_like_a_sort(self, values, limit):
        plain, indexed = build(values), build(values, index=True)
        sql = f"SELECT x FROM t ORDER BY x LIMIT {limit}"
        assert "IndexOrderScan" in plan_text(indexed, sql)
        assert same_outcome(query(indexed, sql).rows, query(plain, sql).rows)
