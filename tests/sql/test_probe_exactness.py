"""Nested-loop probes skip the ON conjuncts their index enforces exactly.

``Planner._plan_probe`` runs ``_exact_conjuncts`` over the probe's
predicted equality prefix; ``NestedLoopJoin`` then evaluates only the
residual ON while an outer row's bounds keep the planned index, and
falls back to re-deriving the access path with the full ON when they do
not — an outer value that is NULL, or does not evaluate, bounds nothing
(docs/sql_engine.md, "Where the SSI hooks live").  Every case here must
return the rows of the same plan evaluating the full ON, which is what
``full_on`` plans (``_exact_conjuncts`` patched to enforce nothing);
the fallbacks are counted by ``sql.probe_fallbacks`` on the database's
scope.
"""

from contextlib import contextmanager
from decimal import Decimal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.contracts_appendix_a import SCHEMA_SQL
from repro.errors import ExecutionError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.expressions import EvalContext
from repro.sql.parser import parse_one
from repro.sql.plan import NestedLoopJoin
from repro.sql.planner import Planner
from repro.storage.index import exact_key_part, normalize_key_part
from tests.conftest import counter, structural_planning

NAN = float("nan")

#: (id, ref, s, f, d) outer rows: a NULL key, a key no inner row has,
#: a TEXT value against the INT probe column, NaN against FLOAT.
ACC = [
    (1, 1, "1", 0.5, Decimal("1.5")),
    (2, 2, "x", NAN, Decimal("2")),
    (3, None, None, None, None),
    (4, 99, "99", 7.0, Decimal("99")),
    (5, 3, "3", 1.5, Decimal("0.5")),
]
INNER_ROWS = 200


def build_db():
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, """
        CREATE TABLE acc (id INT PRIMARY KEY, ref INT, s TEXT, f FLOAT,
                          d NUMERIC);
        CREATE TABLE inv (inv_id INT PRIMARY KEY, acc_id INT NOT NULL,
                          amount INT NOT NULL, fx FLOAT, nx NUMERIC);
        CREATE INDEX inv_acc_idx ON inv(acc_id);
        CREATE INDEX inv_fx_idx ON inv(fx);
        CREATE INDEX inv_nx_idx ON inv(nx);
    """)
    for row in ACC:
        run_sql(db, tx, "INSERT INTO acc (id, ref, s, f, d) VALUES "
                        "($1, $2, $3, $4, $5)", params=row)
    for i in range(INNER_ROWS):
        fx = NAN if i % 37 == 0 else (i % 20) / 2
        run_sql(db, tx, "INSERT INTO inv (inv_id, acc_id, amount, fx, nx) "
                        "VALUES ($1, $2, $3, $4, $5)",
                params=(i, i % 20, i, fx, Decimal(i % 20) / 2))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


@pytest.fixture(scope="module")
def db():
    return build_db()


def rows(db, sql, **tx_kwargs):
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        return sorted(run_sql(db, tx, sql).rows, key=repr)
    finally:
        db.apply_abort(tx, reason="test")


def fallbacks(db):
    return counter(db, "sql.probe_fallbacks")


@contextmanager
def full_on(db):
    """Plan as if no probe conjunct were exact: the reference nested
    loop, which evaluates the full ON on every probed row."""
    original = Planner._exact_conjuncts
    Planner._exact_conjuncts = lambda self, *args: []
    db.plan_cache.clear()
    try:
        yield
    finally:
        Planner._exact_conjuncts = original
        db.plan_cache.clear()


def nested_loop(db, sql, **tx_kwargs) -> NestedLoopJoin:
    """The NestedLoopJoin ``sql`` plans to (fails if it plans another
    join operator)."""
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        plan = Planner(db, tx).plan_select(parse_one(sql), EvalContext())
    finally:
        db.apply_abort(tx, reason="test")
    node = plan.root
    while not isinstance(node, NestedLoopJoin):
        children = node.children()
        assert children, f"no NestedLoopJoin in the plan of {sql!r}"
        node = children[0]
    return node


def check(db, sql, expected_fallbacks, **tx_kwargs):
    """``sql`` answers like the full-ON reference, counting
    ``expected_fallbacks`` probes that left the planned index."""
    nested_loop(db, sql, **tx_kwargs)
    before = fallbacks(db)
    got = rows(db, sql, **tx_kwargs)
    assert fallbacks(db) - before == expected_fallbacks
    with full_on(db):
        assert rows(db, sql, **tx_kwargs) == got
    return got


KEY_JOIN = "FROM acc a JOIN inv i ON i.acc_id = a.ref"


class TestExactProbe:
    def test_key_conjunct_is_not_evaluated(self, db):
        join = nested_loop(db, "SELECT a.id, i.inv_id " + KEY_JOIN)
        assert len(join.probe.exact) == 1
        assert join.probe.exact[0] is join.join.on
        assert join._residual_on is None
        with full_on(db):
            assert nested_loop(db, "SELECT a.id, i.inv_id " + KEY_JOIN
                               )._residual_on is not None

    def test_null_outer_key_joins_nothing(self, db):
        got = check(db, "SELECT a.id, i.inv_id " + KEY_JOIN, 1)
        assert {row[0] for row in got} == {1, 2, 5}
        assert len(got) == 3 * INNER_ROWS // 20

    def test_left_join_with_and_without_a_match(self, db):
        got = check(db, "SELECT a.id, i.inv_id FROM acc a "
                        "LEFT JOIN inv i ON i.acc_id = a.ref", 1)
        assert (3, None) in got and (4, None) in got
        assert len(got) == 3 * INNER_ROWS // 20 + 2

    def test_outer_value_of_another_rank(self, db):
        # A TEXT value matches no key of the INT probe column; the ON
        # (which could not compare the two) is never asked.
        got = check(db, "SELECT a.id, i.inv_id FROM acc a "
                        "JOIN inv i ON i.acc_id = a.s", 1)
        assert got == []

    @pytest.mark.parametrize("column, outer", [("fx", "f"), ("nx", "d")])
    def test_float_and_numeric_probe_columns_keep_their_on(
            self, db, column, outer):
        sql = (f"SELECT a.id, i.inv_id FROM acc a "
               f"JOIN inv i ON i.{column} = a.{outer}")
        join = nested_loop(db, sql)
        assert join.probe.index_name == f"inv_{column}_idx"
        assert join.probe.exact == []
        assert join._residual_on is not None
        got = check(db, sql, 1)
        assert got
        if column == "fx":     # NaN = NaN through the index
            assert {row[0] for row in got} >= {2}

    def test_numeric_outer_value_keeps_the_on(self):
        # A Decimal keys through float: 2**60 + 1 and 2.00000000000000001
        # find the INT keys 2**60 and 2, which the ON says are unequal.
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE o (id INT PRIMARY KEY, d NUMERIC);"
                        "CREATE TABLE n (id INT PRIMARY KEY, k INT NOT NULL);"
                        "CREATE INDEX n_k ON n(k)")
        outer = [Decimal(2 ** 60 + 1), Decimal("2.00000000000000001"),
                 Decimal(2 ** 60), Decimal("2.0")]
        for i, value in enumerate(outer):
            run_sql(db, tx, "INSERT INTO o (id, d) VALUES ($1, $2)",
                    params=(i, value))
        for i, key in enumerate([2 ** 60, 2] + list(range(3, INNER_ROWS))):
            run_sql(db, tx, "INSERT INTO n (id, k) VALUES ($1, $2)",
                    params=(i, key))
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        sql = "SELECT o.id, n.id FROM o JOIN n ON n.k = o.d"
        join = nested_loop(db, sql)
        assert join.probe.index_name == "n_k"
        assert join.probe.exact == []
        assert check(db, sql, 0) == [(2, 0), (3, 1)]

    def test_residual_conjunct_is_evaluated(self, db):
        sql = ("SELECT a.id, i.inv_id FROM acc a JOIN inv i "
               "ON i.acc_id = a.ref AND i.amount > 100")
        join = nested_loop(db, sql)
        assert len(join.probe.exact) == 1
        assert join._residual_on is not None
        got = check(db, sql, 1)
        assert got and all(row[1] > 100 for row in got)

    def test_execute_order_flow(self, db):
        sql = "SELECT a.id, i.inv_id " + KEY_JOIN + " WHERE a.id = 1"
        # The FROM scan and every probe stay index-backed (section 4.3).
        got = check(db, sql, 0, require_index=True)
        assert len(got) == INNER_ROWS // 20

    def test_explain_text_is_unchanged(self, db):
        def explain():
            tx = db.begin(allow_nondeterministic=True)
            try:
                result = run_sql(db, tx, "EXPLAIN SELECT a.id, i.inv_id "
                                 + KEY_JOIN)
            finally:
                db.apply_abort(tx, reason="test")
            return [row[0] for row in result.rows
                    if not row[0].startswith("Plan Cache")]

        lines = explain()
        with full_on(db):
            assert explain() == lines
        assert lines[0].startswith("Project")
        assert lines[1].startswith("  -> NestedLoopJoin INNER on "
                                   "(i.acc_id = a.ref)")


class TestAppendixA:
    """Both Appendix-A contracts' SELECTs probe without a fallback, and
    the join evaluates no ON at all."""

    QUERIES = (
        "SELECT sum(i.amount), count(*) FROM accounts a "
        "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = 'org1'",
        "SELECT sum(amount) FROM invoices WHERE org = 'org1' "
        "GROUP BY acc_id ORDER BY sum(amount) DESC, acc_id ASC LIMIT 1",
    )

    def test_no_probe_fallbacks(self):
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, SCHEMA_SQL)
        for acc in range(30):
            run_sql(db, tx, "INSERT INTO accounts (acc_id, org, balance) "
                            "VALUES ($1, $2, 10.0)",
                    params=(acc, f"org{acc % 3}"))
            for n in range(20):
                run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, "
                                "org, amount, status) VALUES "
                                "($1, $2, $3, $4, 'new')",
                        params=(acc * 20 + n, acc, f"org{acc % 3}",
                                float(n)))
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        assert nested_loop(db, self.QUERIES[0])._residual_on is None
        for flags in ({}, {"require_index": True}):
            for sql in self.QUERIES:
                assert rows(db, sql, **flags)
        assert fallbacks(db) == 0


class TestRandomData:
    """Random outer keys — NULL, absent from the inner table, present —
    over an inner key column holding NULLs answer like the full-ON
    reference, INNER and LEFT, with and without a residual conjunct,
    and every outer row whose key is NULL counts as one fallback."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(refs=st.lists(st.one_of(st.none(), st.integers(-2, 22)),
                         min_size=1, max_size=6),
           left=st.booleans(), residual=st.booleans())
    def test_matches_full_on(self, refs, left, residual):
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE o (id INT PRIMARY KEY, r INT);"
                        "CREATE TABLE n (id INT PRIMARY KEY, k INT, "
                        "v INT NOT NULL); CREATE INDEX n_k ON n(k)")
        for i, ref in enumerate(refs):
            run_sql(db, tx, "INSERT INTO o (id, r) VALUES ($1, $2)",
                    params=(i, ref))
        for i in range(120):
            run_sql(db, tx, "INSERT INTO n (id, k, v) VALUES ($1, $2, $3)",
                    params=(i, None if i % 11 == 0 else i % 20, i))
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        sql = ("SELECT o.id, n.id FROM o " + ("LEFT " if left else "") +
               "JOIN n ON n.k = o.r" + (" AND n.v > 30" if residual else ""))
        got = check(db, sql, sum(ref is None for ref in refs))
        expected = [(i, j) for i, ref in enumerate(refs) for j in range(120)
                    if ref is not None and j % 11 and j % 20 == ref
                    and (j > 30 or not residual)]
        if left:
            matched = {i for i, _ in expected}
            expected += [(i, None) for i in range(len(refs))
                         if i not in matched]
        assert got == sorted(expected, key=repr)


def answers(db, table, op, value, unindexed="v + 0"):
    """{access path in the plan: rows} for ``v <op> $1`` read three
    ways: an IndexScan, a nested-loop index probe, and a scan no index
    serves (``unindexed <op> $1``, an expression over ``v``).  An ``<>``
    serves no index, so its first two forms are only answers."""
    forms = {
        f"IndexScan on {table} using {table}_v":
            f"SELECT id FROM {table} WHERE v {op} $1",
        f"IndexProbe on {table} using {table}_v":
            f"SELECT {table}.id FROM one JOIN {table} "
            f"ON {table}.v {op} $1",
        f"SeqScan on {table}":
            f"SELECT id FROM {table} WHERE {unindexed} {op} $1",
    }
    out = {}
    for path, sql in forms.items():
        tx = db.begin(allow_nondeterministic=True)
        try:
            plan = [r[0] for r in run_sql(db, tx, "EXPLAIN " + sql,
                                          params=(value,)).rows]
            assert op == "<>" or any(path in line for line in plan), plan
            out[path] = sorted(run_sql(db, tx, sql, params=(value,)).rows)
        finally:
            db.apply_abort(tx, reason="test")
    return out


def agree_on(got, ids):
    return all(rows == [(i,) for i in ids] for rows in got.values())


class TestDecimalBounds:
    """A Decimal bound on an INT index keys exactly.  Through float,
    ``2**60 + 1`` and ``2.00000000000000001`` rounded onto the keys
    ``2**60`` and ``2``, and an IndexScan, which drops ``v = $1`` as
    exact, returned those rows.  An IndexScan, a nested-loop probe and a
    scan no index serves must give the answer ``=`` gives — on a FLOAT
    index too, where ``=`` compares a Decimal through float."""

    INT_ROWS = [(1, 2 ** 60), (2, 2), (3, 3)]

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL);"
                        "CREATE INDEX t_v ON t(v);"
                        "CREATE TABLE fl (id INT PRIMARY KEY, "
                        "v FLOAT NOT NULL);"
                        "CREATE INDEX fl_v ON fl(v);"
                        "CREATE TABLE one (id INT PRIMARY KEY);"
                        "INSERT INTO one (id) VALUES (1);"
                        "INSERT INTO fl (id, v) VALUES (1, 0.1), (2, 2.5)")
        for row in self.INT_ROWS:
            run_sql(db, tx, "INSERT INTO t (id, v) VALUES ($1, $2)",
                    params=row)
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        return db

    @pytest.mark.parametrize("op, value, ids", [
        ("=", Decimal(2 ** 60 + 1), []),
        ("=", Decimal("2.00000000000000001"), []),
        ("=", Decimal(2 ** 60), [1]),
        ("=", Decimal("2.0"), [2]),
        (">", Decimal(2 ** 60 - 1), [1]),
        ("<=", Decimal("2.99999999999999999"), [2]),
    ])
    def test_int_index(self, db, op, value, ids):
        got = answers(db, "t", op, value)
        assert agree_on(got, ids), got

    @pytest.mark.parametrize("value, ids", [
        (Decimal("0.1"), [1]), (Decimal("2.5"), [2]), (Decimal(3), []),
    ])
    def test_float_index(self, db, value, ids):
        got = answers(db, "fl", "=", value)
        assert agree_on(got, ids), got

    def test_decimal_nan_keys_as_nan(self):
        for key_part in (normalize_key_part, exact_key_part):
            assert key_part(Decimal("NaN")) == \
                key_part(Decimal("sNaN")) == key_part(NAN)

    @pytest.mark.parametrize("op, ids", [
        ("=", []), ("<>", [1, 2, 3]), ("<", [1, 2, 3]), ("<=", [1, 2, 3]),
        (">", []), (">=", []),
    ])
    @pytest.mark.parametrize("nan", [Decimal("NaN"), Decimal("sNaN"), NAN],
                             ids=["NaN", "sNaN", "float"])
    def test_decimal_nan_compares_as_float_nan(self, db, op, ids, nan):
        """A Decimal NaN answers as float NaN does — it sorts above every
        number and equals only NaN — instead of escaping as
        ``decimal.InvalidOperation``."""
        got = answers(db, "t", op, nan)
        assert agree_on(got, ids), got

    @pytest.mark.parametrize("sql", ["SELECT $1 + 0 FROM one",
                                     "SELECT $1 * 1.5 FROM one"])
    def test_signaling_nan_arithmetic_raises_an_engine_error(self, db, sql):
        tx = db.begin(allow_nondeterministic=True)
        try:
            with pytest.raises(ExecutionError, match="no NUMERIC result"):
                run_sql(db, tx, sql, params=(Decimal("sNaN"),))
        finally:
            db.apply_abort(tx, reason="test")


class TestBoolKeys:
    """``=`` says TRUE = 1, so an index must key a boolean as that
    number: ``v = $1`` with ``$1 = True`` on an INT index, and a BOOLEAN
    index probed with ``1``, answer as a scan no index serves."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, v INT NOT NULL);"
                        "CREATE INDEX t_v ON t(v);"
                        "CREATE TABLE bo (id INT PRIMARY KEY, "
                        "v BOOLEAN NOT NULL);"
                        "CREATE INDEX bo_v ON bo(v);"
                        "CREATE TABLE one (id INT PRIMARY KEY);"
                        "INSERT INTO one (id) VALUES (1);"
                        "INSERT INTO t (id, v) VALUES (1, 0), (2, 1), (3, 2);"
                        "INSERT INTO bo (id, v) VALUES (1, FALSE), (2, TRUE)")
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        return db

    @pytest.mark.parametrize("op, value, ids", [
        ("=", True, [2]), ("=", False, [1]), ("<", True, [1]),
        (">=", True, [2, 3]), ("<>", True, [1, 3]),
    ])
    def test_int_index_probed_with_a_boolean(self, db, op, value, ids):
        got = answers(db, "t", op, value)
        assert agree_on(got, ids), got

    @pytest.mark.parametrize("op, value, ids", [
        ("=", 1, [2]), ("=", 0, [1]), ("=", 1.0, [2]), ("=", 2, []),
        ("<", 1, [1]), (">", 0, [2]), ("=", True, [2]),
    ])
    def test_boolean_index_probed_with_a_number(self, db, op, value, ids):
        # ``v + 0`` would reject a boolean operand: ``OR`` serves no
        # index either.
        got = answers(db, "bo", op, value, unindexed="id < 0 OR v")
        assert agree_on(got, ids), got

    def test_hash_join_buckets_booleans_with_numbers(self, db):
        sql = "SELECT t.id, bo.id FROM t JOIN bo ON bo.v = t.v"
        with structural_planning(db):
            tx = db.begin(allow_nondeterministic=True)
            try:
                plan = [r[0] for r in run_sql(db, tx, "EXPLAIN " + sql).rows]
                assert any("HashJoin" in line for line in plan), plan
                assert sorted(run_sql(db, tx, sql).rows) == [(1, 1), (2, 2)]
            finally:
                db.apply_abort(tx, reason="test")
