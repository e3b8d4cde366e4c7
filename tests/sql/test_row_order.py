"""Row order: scans sort by content only where the order can reach a
result; GROUP BY / DISTINCT bucket with the ``=`` comparator; a Filter
keeps only what no access path enforces exactly."""

import math

import pytest

from repro.errors import ExecutionError, SQLError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.plan import bucket_key, fold_sum
from repro.sql.planner import Planner

SCHEMA = """
    CREATE TABLE t (
        id INT PRIMARY KEY,
        k INT NOT NULL,
        g TEXT,
        a INT,
        b FLOAT,
        d NUMERIC,
        flag BOOLEAN
    );
    CREATE INDEX t_k_idx ON t(k);
    CREATE INDEX t_g_idx ON t(g);
    CREATE INDEX t_b_idx ON t(b);
    CREATE TABLE u (
        k INT PRIMARY KEY,
        g TEXT NOT NULL
    );
"""

ROWS = [(1, 1, "x", 1, 1.0, "1.5", True),
        (2, 1, "x", 2, 2.0, "2.5", False),
        (3, 2, "y", 2, 2.0, "2.5", True),
        (4, 2, None, None, None, None, None)]


def build(order=None):
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, SCHEMA)
    for pos in order or range(len(ROWS)):
        run_sql(db, tx, "INSERT INTO t (id, k, g, a, b, d, flag) VALUES "
                        "($1, $2, $3, $4, $5, $6, $7)", params=ROWS[pos])
    for k, g in ((1, "x"), (2, "y")):
        run_sql(db, tx, "INSERT INTO u (k, g) VALUES ($1, $2)",
                params=(k, g))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


@pytest.fixture
def db():
    return build()


def q(db, sql, params=(), **tx_kwargs):
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        return run_sql(db, tx, sql, params=params)
    finally:
        db.apply_abort(tx, reason="test")


def explain(db, sql, params=(), **tx_kwargs):
    return [row[0] for row in
            q(db, "EXPLAIN " + sql, params, **tx_kwargs).rows]


def scans(lines):
    return [line for line in lines if "Scan" in line or "Probe" in line]


ORDER_FREE = [
    "SELECT count(*) FROM t",
    "SELECT count(g), count(DISTINCT a) FROM t WHERE k = 1",
    "SELECT sum(b), avg(b), sum(a), avg(a), sum(a * 2 - id) FROM t",
    "SELECT min(a), max(g), min(flag) FROM t",
    "SELECT k, sum(b) FROM t GROUP BY k ORDER BY k",
    "SELECT sum(b) FROM t GROUP BY k, g ORDER BY sum(b) DESC, g, k",
    "SELECT k, count(*) FROM t GROUP BY k HAVING count(*) > 1 "
    "ORDER BY k LIMIT 1",
    "SELECT DISTINCT k, count(*) FROM t GROUP BY k ORDER BY k",
    "SELECT sum(t.b), count(*) FROM u JOIN t ON t.k = u.k "
    "WHERE u.g = 'x'",
    "SELECT u.k, count(t.id) FROM u LEFT JOIN t ON t.k = u.k "
    "GROUP BY u.k ORDER BY u.k",
    "SELECT k FROM t GROUP BY k ORDER BY k",
]

ORDER_KEPT = [
    # a projection shows its rows
    "SELECT id FROM t",
    "SELECT id FROM t ORDER BY k",
    # the group's first row supplies `g`
    "SELECT g, count(*) FROM t",
    "SELECT g, sum(b) FROM t GROUP BY k ORDER BY k",
    # groups emit in first-encounter order without a total ORDER BY
    "SELECT k, sum(b) FROM t GROUP BY k",
    "SELECT k, sum(b) FROM t GROUP BY k, g ORDER BY k",
    "SELECT k, sum(b) FROM t GROUP BY k ORDER BY sum(b)",
    # equal floats need not be identical (0.0 / -0.0, NaN): min, max,
    # and group keys keep the order that picks among them
    "SELECT min(b) FROM t",
    "SELECT b, count(*) FROM t GROUP BY b ORDER BY b",
    # sums that are not exact for every order
    "SELECT sum(d) FROM t",
    "SELECT sum(DISTINCT b) FROM t",
    "SELECT sum(CASE WHEN id < 3 THEN a ELSE b END) FROM t",
    "SELECT sum(a / 2) FROM t",
    "SELECT sum(abs(b)) FROM t",
    "SELECT count(DISTINCT CASE WHEN id < 3 THEN a ELSE b END) FROM t",
    # expressions, not columns, as group keys
    "SELECT count(*) FROM t GROUP BY k + 1 ORDER BY k + 1",
]


class TestOrderMark:
    @pytest.mark.parametrize("sql", ORDER_FREE)
    def test_unobservable_order_is_not_sorted(self, db, sql):
        found = scans(explain(db, sql))
        assert found and all("(any order)" in line for line in found), found

    @pytest.mark.parametrize("sql", ORDER_KEPT)
    def test_everything_else_keeps_content_order(self, db, sql):
        found = scans(explain(db, sql))
        assert found and not any("(any order)" in line for line in found)

    def test_provenance_and_dml_scans_keep_order(self, db):
        sql = "SELECT count(*) FROM t"
        assert "(any order)" not in "".join(
            explain(db, sql, provenance=True, read_only=True))
        for dml in ("UPDATE t SET a = 1 WHERE k = 1",
                    "DELETE FROM t WHERE k = 1"):
            assert "(any order)" not in "".join(explain(db, dml))

    def test_subquery_is_marked_on_its_own(self, db):
        """The outer projection keeps its order; the correlated global
        aggregate inside it does not need one."""
        sql = ("SELECT k, (SELECT count(*) FROM t WHERE t.k = u.k) "
               "FROM u ORDER BY k")
        assert "(any order)" not in "".join(explain(db, sql))
        assert q(db, sql).rows == [(1, 2), (2, 2)]

    def test_system_table_columns_are_untyped(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE s (x INT)")
        db.catalog.schema_of("s").system = True
        lines = [r[0] for r in
                 run_sql(db, tx, "EXPLAIN SELECT sum(x) FROM s").rows]
        db.apply_abort(tx, reason="test")
        assert "(any order)" not in "".join(lines)

    def test_mark_follows_the_catalog(self, db):
        """Same statement text, another declared type: the catalog
        version in the plan-cache key separates the two templates."""
        sql = "SELECT sum(v) FROM m"
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE m (v FLOAT)")
        first = [r[0] for r in run_sql(db, tx, "EXPLAIN " + sql).rows]
        run_sql(db, tx, "DROP TABLE m")
        run_sql(db, tx, "CREATE TABLE m (v NUMERIC)")
        second = [r[0] for r in run_sql(db, tx, "EXPLAIN " + sql).rows]
        db.apply_abort(tx, reason="test")
        assert "(any order)" in first[1]
        assert "(any order)" not in second[1]
        assert second[-1] == "Plan Cache: miss"

    def test_cost_drops_the_sort_term_with_the_sort(self, db):
        def scan_cost(sql):
            line = scans(explain(db, sql))[0]
            return int(line.split("cost~")[1].split(" ")[0])

        # 4 rows: heap walk 4, content sort 4 * log2(4) = 8.
        assert scan_cost("SELECT id FROM t") == 12
        assert scan_cost("SELECT count(*) FROM t") == 4


def same_answer_in_content_order(db, sql, params=(), monkeypatch=None):
    """The oracle: the statement planned with every scan in the old
    content order."""
    answer = q(db, sql, params).rows
    with monkeypatch.context() as patch:
        patch.setattr(Planner, "_order_observable",
                      lambda self, *args: True)
        db.plan_cache.clear()
        assert "(any order)" not in "".join(explain(db, sql, params))
        expected = q(db, sql, params).rows
    db.plan_cache.clear()
    assert answer == expected
    assert [[type(v) for v in row] for row in answer] == \
        [[type(v) for v in row] for row in expected]
    return answer


class TestAnswers:
    @pytest.mark.parametrize("sql", ORDER_FREE)
    def test_same_rows_as_content_order(self, db, sql, monkeypatch):
        same_answer_in_content_order(db, sql, monkeypatch=monkeypatch)

    def test_global_aggregate_over_nothing(self, db, monkeypatch):
        assert same_answer_in_content_order(
            db, "SELECT count(*), sum(b), min(a) FROM t WHERE k = 99",
            monkeypatch=monkeypatch) == [(0, None, None)]
        assert q(db, "SELECT k, count(*) FROM t WHERE k = 99 "
                     "GROUP BY k ORDER BY k").rows == []

    def test_call_shape_errors_wait_for_the_first_group(self, db):
        with pytest.raises(ExecutionError, match=r"sum\(\*\) is not valid"):
            q(db, "SELECT sum(*) FROM t")
        with pytest.raises(ExecutionError, match="exactly one argument"):
            q(db, "SELECT k, sum(a, b) FROM t GROUP BY k")
        assert q(db, "SELECT k, sum(a, b) FROM t WHERE k = 99 "
                     "GROUP BY k").rows == []


class TestBucketing:
    """GROUP BY, DISTINCT and count(DISTINCT) agree with ``=``."""

    MIXED = "CASE WHEN id < 3 THEN a ELSE b END"   # 1, 2, 2.0, NULL

    def test_group_by_distinct_and_count_distinct_agree(self, db):
        groups = q(db, f"SELECT {self.MIXED}, count(*) FROM t "
                       f"GROUP BY {self.MIXED}").rows
        distinct = q(db, f"SELECT DISTINCT {self.MIXED} FROM t").rows
        counted = q(db, f"SELECT count(DISTINCT {self.MIXED}) "
                        f"FROM t").scalar()
        assert groups == [(1, 1), (2, 2), (None, 1)]
        assert distinct == [(1,), (2,), (None,)]
        assert counted == len([g for g in groups if g[0] is not None]) == 2

    def test_boolean_buckets_with_its_number(self, db):
        expr = "CASE WHEN id = 1 THEN flag ELSE a END"   # TRUE, 2, 2, NULL
        rows = q(db, f"SELECT count(*) FROM t WHERE id <> 3 "
                     f"GROUP BY {expr}").rows
        assert rows == [(1,), (1,), (1,)]
        expr = "CASE WHEN id = 3 THEN flag ELSE a END"   # 1, 2, TRUE, NULL
        assert q(db, f"SELECT count(*) FROM t GROUP BY {expr}").rows == \
            [(2,), (1,), (1,)]

    def test_bucket_key(self):
        nan = float("nan")
        assert bucket_key([2]) == bucket_key([2.0]) == bucket_key([True + 1])
        assert bucket_key([0.0]) == bucket_key([-0.0])
        assert bucket_key([nan]) == bucket_key([float("nan")])
        assert bucket_key([None]) != bucket_key([0])
        assert bucket_key(["1"]) != bucket_key([1])
        assert hash(bucket_key([nan, None, "x", 1.5])) is not None

    def test_decimals_stay_apart_beyond_float_precision(self, db):
        tx = db.begin(allow_nondeterministic=True)
        for i, d in enumerate(("1.00000000000000000001", "1")):
            run_sql(db, tx, "INSERT INTO t (id, k, d) VALUES ($1, 9, $2)",
                    params=(10 + i, d))
        rows = run_sql(db, tx, "SELECT count(*) FROM t WHERE k = 9 "
                               "GROUP BY d").rows
        db.apply_abort(tx, reason="test")
        assert rows == [(1,), (1,)]


class TestFoldSum:
    BIG = 1e308

    def test_intermediate_overflow_does_not_depend_on_order(self):
        for values in ([self.BIG, self.BIG, -self.BIG],
                       [self.BIG, -self.BIG, self.BIG],
                       [-self.BIG, self.BIG, self.BIG]):
            assert fold_sum(values) == self.BIG

    def test_out_of_range_is_an_sql_error_in_every_order(self):
        for values in ([self.BIG, self.BIG, 1.0], [1.0, self.BIG, self.BIG]):
            with pytest.raises(ExecutionError, match="out of range"):
                fold_sum(values)

    def test_infinities_decide_before_the_finite_values(self):
        inf = float("inf")
        assert fold_sum([self.BIG, self.BIG, inf]) == inf
        assert fold_sum([inf, self.BIG, self.BIG]) == inf
        assert math.isnan(fold_sum([self.BIG, float("nan"), self.BIG]))

    def test_exact_types_fold_in_sequence(self):
        assert fold_sum([1, 2, 3]) == 6 and type(fold_sum([1, 2])) is int
        assert fold_sum([]) is None


class TestFailedRunRepeatsInContentOrder:
    """Rows 1 and 2 fail differently; content order meets row 1 first
    whatever the physical order, and that is the message every node
    must report."""

    SQL = ("SELECT count(*) FROM t WHERE "
           "CASE WHEN id = 1 THEN 1 / (id - 1) "
           "WHEN id = 2 THEN g + 1 ELSE 1 END > 0")

    @pytest.mark.parametrize("order", [(0, 1, 2, 3), (1, 0, 2, 3),
                                       (3, 2, 1, 0)])
    def test_same_message_for_every_physical_order(self, order):
        db = build(order)
        assert "(any order)" in scans(explain(db, self.SQL))[0]
        with pytest.raises(SQLError) as caught:
            q(db, self.SQL)
        assert str(caught.value) == "division by zero"

    def test_ordered_plans_fail_once(self, db, monkeypatch):
        from repro.sql import plan as plan_module

        calls = []

        real = plan_module.execute_scan

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(plan_module, "execute_scan", counting)
        with pytest.raises(SQLError):
            q(db, "SELECT id FROM t WHERE 1 / (id - 1) > 0")
        assert len(calls) == 1
        with pytest.raises(SQLError):
            q(db, self.SQL)
        assert len(calls) == 3      # the unordered run, then its repeat


class TestResidualFilter:
    def test_exact_index_equality_needs_no_filter(self, db):
        for sql in ("SELECT id FROM t WHERE k = 1",
                    "SELECT id FROM t WHERE g = 'x'",
                    "SELECT id FROM t WHERE 'x' = g"):
            lines = explain(db, sql)
            assert not any("Filter" in line for line in lines), lines
            assert sorted(q(db, sql).rows) == [(1,), (2,)]

    def test_only_the_unenforced_conjuncts_remain(self, db):
        lines = explain(db, "SELECT id FROM t WHERE k = 1 AND a > 1")
        assert any("Filter (a > 1)" in line for line in lines), lines
        assert q(db, "SELECT id FROM t WHERE k = 1 AND a > 1").rows == [(2,)]

    @pytest.mark.parametrize("where", [
        "b = 2.0",                  # FLOAT: NaN and -0.0 stay checked
        "k = 1 AND k = 2",          # only the last bound reaches the index
        "k >= 1 AND k <= 1",        # ranges are not claimed exact
        "k BETWEEN 1 AND 1",
        "k IN (1)",
    ])
    def test_anything_not_shown_exact_stays(self, db, where):
        lines = explain(db, f"SELECT id FROM t WHERE {where}")
        kept = [line for line in lines if "Filter" in line]
        assert kept and all(part in kept[0]
                            for part in where.split(" AND ")), lines

    def test_value_of_another_type_matches_nothing(self, db):
        """The index answers for the Filter: a TEXT key never equals a
        number, a whole float equals its integer, NaN equals nothing."""
        assert q(db, "SELECT id FROM t WHERE g = $1", (5,)).rows == []
        assert sorted(q(db, "SELECT id FROM t WHERE k = $1",
                        (1.0,)).rows) == [(1,), (2,)]
        assert q(db, "SELECT id FROM t WHERE k = $1", (1.5,)).rows == []
        assert q(db, "SELECT id FROM t WHERE k = $1",
                 (float("nan"),)).rows == []
        assert q(db, "SELECT id FROM t WHERE k = $1", (None,)).rows == []

    def test_shared_unqualified_name_still_reports_ambiguity(self, db):
        sql = "SELECT t.id FROM t JOIN u ON u.k = t.k WHERE g = 'x'"
        assert any("Filter (g = 'x')" in line for line in explain(db, sql))
        with pytest.raises(ExecutionError, match="ambiguous"):
            q(db, sql)

    def test_joined_tables_bounds_stay_with_the_filter(self, db):
        """A LEFT JOIN's NULL-extended rows must still meet the WHERE."""
        sql = ("SELECT u.k, t.id FROM u LEFT JOIN t ON t.k = u.k "
               "WHERE t.g = 'y' ORDER BY u.k")
        assert any("Filter (t.g = 'y')" in line
                   for line in explain(db, sql))
        assert q(db, sql).rows == [(2, 3)]

    def test_from_table_bound_dropped_under_a_join(self, db):
        sql = ("SELECT t.id FROM u JOIN t ON t.k = u.k WHERE u.k = 2 "
               "ORDER BY t.id")
        assert not any("Filter" in line for line in explain(db, sql))
        assert q(db, sql).rows == [(3,), (4,)]

    def test_cache_hit_with_null_value_replans(self, db):
        sql = "SELECT id FROM t WHERE g = $1"
        assert sorted(q(db, sql, ("x",)).rows) == [(1,), (2,)]
        assert q(db, sql, (None,)).rows == []
        assert sorted(q(db, sql, ("x",)).rows) == [(1,), (2,)]
