"""SQL executor: queries, DML, constraints, SIREAD recording."""

from decimal import Decimal

import pytest

from repro.errors import (
    BlindUpdateError,
    ConstraintViolation,
    ExecutionError,
    MissingIndexError,
    SerializationFailure,
)
from repro.mvcc.database import Database
from repro.sql.executor import Executor, run_sql
from repro.sql.parser import parse_one


@pytest.fixture
def db():
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx, """
        CREATE TABLE emp (
            id INT PRIMARY KEY,
            name TEXT NOT NULL,
            dept TEXT,
            salary FLOAT,
            CHECK (salary >= 0)
        );
        CREATE INDEX emp_dept_idx ON emp (dept);
        CREATE TABLE dept (
            name TEXT PRIMARY KEY,
            budget FLOAT
        );
        INSERT INTO dept (name, budget) VALUES
            ('eng', 1000.0), ('sales', 500.0), ('hr', 200.0);
        INSERT INTO emp (id, name, dept, salary) VALUES
            (1, 'ann', 'eng', 120.0),
            (2, 'bob', 'eng', 100.0),
            (3, 'cat', 'sales', 90.0),
            (4, 'dan', 'sales', 80.0),
            (5, 'eve', 'hr', 70.0),
            (6, 'fred', NULL, 60.0);
    """)
    database.apply_commit(tx, block_number=1)
    return database


def q(db, sql, params=()):
    tx = db.begin(allow_nondeterministic=True)
    try:
        return run_sql(db, tx, sql, params=params)
    finally:
        if not tx.is_aborted and not tx.is_committed:
            db.apply_abort(tx, reason="test")


def commit_sql(db, sql, params=(), **tx_kwargs):
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    result = run_sql(db, tx, sql, params=params)
    db.apply_commit(tx)
    return result


class TestSelect:
    def test_where_equality_uses_pk_index(self, db):
        result = q(db, "SELECT name FROM emp WHERE id = 3")
        assert result.rows == [("cat",)]

    def test_where_range(self, db):
        result = q(db, "SELECT name FROM emp WHERE salary >= 90 "
                       "ORDER BY salary DESC")
        assert [r[0] for r in result.rows] == ["ann", "bob", "cat"]

    def test_order_by_nulls_last(self, db):
        result = q(db, "SELECT dept FROM emp ORDER BY dept ASC")
        assert result.rows[-1] == (None,)

    def test_limit_offset(self, db):
        result = q(db, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 1")
        assert result.rows == [(2,), (3,)]

    def test_distinct(self, db):
        result = q(db, "SELECT DISTINCT dept FROM emp WHERE dept IS NOT NULL")
        assert len(result.rows) == 3

    def test_aggregates(self, db):
        result = q(db, "SELECT count(*), sum(salary), avg(salary), "
                       "min(salary), max(salary) FROM emp")
        count, total, avg, low, high = result.rows[0]
        assert count == 6
        assert total == pytest.approx(520.0)
        assert avg == pytest.approx(520.0 / 6)
        assert (low, high) == (60.0, 120.0)

    def test_count_ignores_nulls(self, db):
        result = q(db, "SELECT count(dept) FROM emp")
        assert result.rows == [(5,)]

    def test_group_by_having(self, db):
        result = q(db, """
            SELECT dept, sum(salary) AS total FROM emp
            WHERE dept IS NOT NULL
            GROUP BY dept HAVING count(*) > 1
            ORDER BY total DESC""")
        assert result.rows == [("eng", 220.0), ("sales", 170.0)]

    def test_aggregate_on_empty_input(self, db):
        result = q(db, "SELECT count(*), sum(salary) FROM emp "
                       "WHERE id = 999")
        assert result.rows == [(0, None)]

    def test_join(self, db):
        result = q(db, """
            SELECT e.name, d.budget FROM dept d
            JOIN emp e ON e.dept = d.name
            WHERE d.name = 'eng' ORDER BY e.name""")
        assert result.rows == [("ann", 1000.0), ("bob", 1000.0)]

    def test_left_join_emits_nulls(self, db):
        result = q(db, """
            SELECT d.name, count(e.id) FROM dept d
            LEFT JOIN emp e ON e.dept = d.name
            GROUP BY d.name ORDER BY d.name""")
        assert ("hr", 1) in result.rows

    def test_scalar_subquery(self, db):
        result = q(db, """
            SELECT name FROM emp
            WHERE salary = (SELECT max(salary) FROM emp)""")
        assert result.rows == [("ann",)]

    def test_in_subquery(self, db):
        result = q(db, """
            SELECT name FROM emp WHERE dept IN
            (SELECT name FROM dept WHERE budget >= 500)
            ORDER BY name""")
        assert [r[0] for r in result.rows] == ["ann", "bob", "cat", "dan"]

    def test_exists_correlated(self, db):
        result = q(db, """
            SELECT d.name FROM dept d WHERE EXISTS
            (SELECT 1 FROM emp e WHERE e.dept = d.name AND e.salary > 100)
            """)
        assert result.rows == [("eng",)]

    def test_case_expression(self, db):
        result = q(db, """
            SELECT name, CASE WHEN salary >= 100 THEN 'high'
                              ELSE 'low' END AS band
            FROM emp WHERE id <= 2 ORDER BY id""")
        assert result.rows == [("ann", "high"), ("bob", "high")]

    def test_string_functions(self, db):
        result = q(db, "SELECT upper(name) || '-' || dept FROM emp "
                       "WHERE id = 1")
        assert result.rows == [("ANN-eng",)]

    def test_params(self, db):
        result = q(db, "SELECT name FROM emp WHERE dept = $1 AND "
                       "salary > $2", params=("eng", 110))
        assert result.rows == [("ann",)]

    def test_three_valued_logic(self, db):
        # NULL dept is neither = 'eng' nor <> 'eng'.
        eq = q(db, "SELECT count(*) FROM emp WHERE dept = 'eng'").scalar()
        ne = q(db, "SELECT count(*) FROM emp WHERE dept <> 'eng'").scalar()
        assert eq + ne == 5  # fred (NULL dept) is in neither

    def test_division_semantics(self, db):
        assert q(db, "SELECT 7 / 2").scalar() == 3
        assert q(db, "SELECT 7.0 / 2").scalar() == 3.5
        with pytest.raises(ExecutionError):
            q(db, "SELECT 1 / 0")


class TestDML:
    def test_insert_and_rowcount(self, db):
        result = commit_sql(db, "INSERT INTO emp (id, name, salary) "
                                "VALUES (10, 'gil', 50.0)")
        assert result.rowcount == 1
        assert q(db, "SELECT name FROM emp WHERE id = 10").rows == \
            [("gil",)]

    def test_update_rowcount(self, db):
        result = commit_sql(db, "UPDATE emp SET salary = salary + 10 "
                                "WHERE dept = 'eng'")
        assert result.rowcount == 2

    def test_update_is_versioned(self, db):
        commit_sql(db, "UPDATE emp SET salary = 999 WHERE id = 1")
        heap = db.catalog.heap_of("emp")
        versions = [v for v in heap.all_versions()
                    if v.values.get("id") == 1]
        assert len(versions) == 2  # old + new, nothing in place

    def test_delete(self, db):
        commit_sql(db, "DELETE FROM emp WHERE id = 6")
        assert q(db, "SELECT count(*) FROM emp").scalar() == 5

    def test_not_null_violation(self, db):
        with pytest.raises(ConstraintViolation):
            q(db, "INSERT INTO emp (id, name) VALUES (11, NULL)")

    def test_pk_duplicate_rejected(self, db):
        with pytest.raises(ConstraintViolation):
            q(db, "INSERT INTO emp (id, name) VALUES (1, 'dup')")

    def test_check_violation(self, db):
        with pytest.raises(ConstraintViolation):
            q(db, "INSERT INTO emp (id, name, salary) "
                  "VALUES (12, 'neg', -5)")

    def test_check_violation_on_update(self, db):
        with pytest.raises(ConstraintViolation):
            q(db, "UPDATE emp SET salary = -1 WHERE id = 1")

    def test_type_coercion(self, db):
        commit_sql(db, "INSERT INTO emp (id, name, salary) "
                       "VALUES ('13', 'str-id', '77.5')")
        assert q(db, "SELECT salary FROM emp WHERE id = 13").scalar() \
            == 77.5

    def test_unknown_column_rejected(self, db):
        with pytest.raises(ExecutionError):
            q(db, "INSERT INTO emp (id, name, bogus) VALUES (14, 'x', 1)")

    def test_insert_from_select(self, db):
        commit_sql(db, """
            CREATE TABLE emp_copy (id INT PRIMARY KEY, name TEXT);
            INSERT INTO emp_copy (id, name)
            SELECT id, name FROM emp WHERE dept = 'eng'""")
        assert q(db, "SELECT count(*) FROM emp_copy").scalar() == 2


class TestTransactionIsolation:
    def test_uncommitted_writes_invisible(self, db):
        tx1 = db.begin(allow_nondeterministic=True)
        run_sql(db, tx1, "INSERT INTO emp (id, name) VALUES (20, 'ghost')")
        assert q(db, "SELECT count(*) FROM emp WHERE id = 20").scalar() == 0
        db.apply_abort(tx1, reason="test")

    def test_own_writes_visible(self, db):
        tx1 = db.begin(allow_nondeterministic=True)
        run_sql(db, tx1, "INSERT INTO emp (id, name) VALUES (21, 'me')")
        result = run_sql(db, tx1, "SELECT name FROM emp WHERE id = 21")
        assert result.rows == [("me",)]
        db.apply_abort(tx1, reason="test")

    def test_snapshot_isolation_repeatable_read(self, db):
        tx1 = db.begin(allow_nondeterministic=True)
        before = run_sql(db, tx1, "SELECT count(*) FROM emp").scalar()
        commit_sql(db, "INSERT INTO emp (id, name) VALUES (22, 'late')")
        after = run_sql(db, tx1, "SELECT count(*) FROM emp").scalar()
        assert before == after  # tx1's snapshot predates the insert
        db.apply_abort(tx1, reason="test")

    def test_aborted_insert_leaves_no_trace(self, db):
        tx1 = db.begin(allow_nondeterministic=True)
        run_sql(db, tx1, "INSERT INTO emp (id, name) VALUES (23, 'gone')")
        db.apply_abort(tx1, reason="test")
        assert q(db, "SELECT count(*) FROM emp WHERE id = 23").scalar() == 0


class TestEOFlowRules:
    def test_blind_update_rejected(self, db):
        tx = db.begin(allow_nondeterministic=True,
                      forbid_blind_updates=True)
        with pytest.raises(BlindUpdateError):
            run_sql(db, tx, "UPDATE emp SET salary = 0")
        db.apply_abort(tx, reason="test")

    def test_blind_delete_rejected(self, db):
        tx = db.begin(allow_nondeterministic=True,
                      forbid_blind_updates=True)
        with pytest.raises(BlindUpdateError):
            run_sql(db, tx, "DELETE FROM emp")
        db.apply_abort(tx, reason="test")

    def test_unindexed_predicate_aborts(self, db):
        tx = db.begin(allow_nondeterministic=True, require_index=True)
        with pytest.raises(MissingIndexError):
            # name has no index
            run_sql(db, tx, "SELECT id FROM emp WHERE name = 'ann'")
        db.apply_abort(tx, reason="test")

    def test_indexed_predicate_allowed(self, db):
        tx = db.begin(allow_nondeterministic=True, require_index=True)
        result = run_sql(db, tx, "SELECT name FROM emp WHERE dept = 'hr'")
        assert result.rows == [("eve",)]
        db.apply_abort(tx, reason="test")


class TestSIREADRecording:
    def test_returned_rows_covered_by_predicate_read(self, db):
        """Every row a scan returns lies inside the predicate read it
        recorded — the predicate reads are the whole SIREAD set, so a
        writer that replaces one of those rows conflicts with the scan
        through its old image."""
        tx = db.begin(allow_nondeterministic=True)
        result = run_sql(db, tx, "SELECT * FROM emp WHERE id = 1")
        predicates = [p for p in tx.predicate_reads if p.table == "emp"]
        assert len(predicates) == 1 and predicates[0].columns == ("id",)
        assert len(result.rows) == 1
        assert predicates[0].matches_values(
            dict(zip(result.columns, result.rows[0])))
        assert not predicates[0].matches_values({"id": 2})
        db.apply_abort(tx, reason="test")

    def test_predicate_read_recorded_with_range(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "SELECT * FROM emp WHERE dept = 'eng'")
        predicates = [p for p in tx.predicate_reads if p.table == "emp"
                      and p.columns]
        assert predicates
        assert predicates[0].matches_values({"dept": "eng"})
        assert not predicates[0].matches_values({"dept": "hr"})
        db.apply_abort(tx, reason="test")

    def test_full_scan_predicate_matches_everything(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "SELECT count(*) FROM emp")
        full = [p for p in tx.predicate_reads if p.table == "emp"
                and not p.columns]
        assert full and full[0].matches_values({"anything": 1})
        db.apply_abort(tx, reason="test")

    def test_writes_recorded(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "UPDATE emp SET salary = 1 WHERE id = 1")
        entry = tx.writes[-1]
        assert entry.kind == "update"
        assert entry.old_version is not None
        assert entry.new_version is not None
        db.apply_abort(tx, reason="test")


class TestVariablesNeverShadowColumns:
    """A bound's value side is constant only if it names no column of
    the SELECT's own tables (plan.is_constant).  The run-time reading
    used to decide by *evaluating* the name, and an unqualified name
    with no row in scope falls through to PL variables — so a contract
    parameter named after a column turned ``x = y`` into an index
    condition on the parameter's value, dropped the Filter as "exact",
    and narrowed the predicate read to match."""

    @pytest.fixture
    def shadow_db(self):
        database = Database()
        tx = database.begin(allow_nondeterministic=True)
        run_sql(database, tx, """
            CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT);
            CREATE INDEX t_x ON t (x);
            CREATE TABLE u (uid INT PRIMARY KEY, amount INT);
            INSERT INTO t (id, x, y) VALUES
                (0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 1, 2);
            INSERT INTO u (uid, amount) VALUES
                (0, 1), (1, 2), (2, 3), (3, 1);
        """)
        database.apply_commit(tx, block_number=1)
        return database

    @staticmethod
    def run(db, sql, variables):
        tx = db.begin(allow_nondeterministic=True)
        try:
            result = run_sql(db, tx, sql, variables=variables)
            plan = [row[0] for row in run_sql(
                db, tx, "EXPLAIN " + sql, variables=variables).rows]
            return result.rows, result.rowcount, tx.predicate_reads, plan
        finally:
            db.apply_abort(tx, reason="test")

    @pytest.mark.parametrize("sql,name,rows,rowcount", [
        ("SELECT id FROM t WHERE x = y ORDER BY id", "y",
         [(0,), (1,), (2,)], 3),
        ("SELECT id FROM t JOIN u ON uid = id WHERE x = amount "
         "ORDER BY id", "amount", [(0,), (1,), (2,), (3,)], 4),
        ("UPDATE t SET y = y WHERE x = y", "y", [], 3),
    ], ids=["select", "join", "update"])
    def test_same_rows_and_reads_with_and_without_the_variable(
            self, shadow_db, sql, name, rows, rowcount):
        plain = self.run(shadow_db, sql, None)
        shadowed = self.run(shadow_db, sql, {name: 1})
        assert plain[:2] == (rows, rowcount)
        assert shadowed[:3] == plain[:3]
        for line in plain[3] + shadowed[3]:
            if "IndexScan" in line or "IndexProbe" in line:
                assert f"x = {name}" not in line, line

    @pytest.mark.parametrize("flow", [
        {}, {"require_index": True, "forbid_blind_updates": True}],
        ids=["order-execute", "execute-order"])
    def test_contract_parameter_named_after_a_column(self, shadow_db,
                                                     flow):
        from repro.contracts.procedure import Procedure, ProcedureRuntime

        stmt = parse_one("""
            CREATE FUNCTION touch_diagonal(y INT) RETURNS INT AS $$
            DECLARE n INT;
            BEGIN
                SELECT count(*) INTO n FROM t WHERE x = y AND id >= 0;
                UPDATE t SET y = y WHERE x = y AND id >= 0;
                RETURN n;
            END $$ LANGUAGE plpgsql""")
        procedure = Procedure.compile(stmt.name, stmt.params,
                                      stmt.returns, stmt.body)
        seen = []
        for argument in (1, 2, 99):
            tx = shadow_db.begin(**flow)
            count = ProcedureRuntime(shadow_db).invoke(tx, procedure,
                                                       (argument,))
            seen.append((count, len(tx.writes), tx.predicate_reads))
            shadow_db.apply_abort(tx, reason="test")
        # Rows 0, 1 and 2 have x = y, whatever the argument is.
        assert seen[0][:2] == (3, 3)
        assert seen[1] == seen[0] and seen[2] == seen[0]
