"""`AS OF BLOCK h` / `AS OF LATEST`: parser, validation, routing."""

import pytest

from repro.errors import ExecutionError, SQLSyntaxError
from repro.mvcc.database import Database
from repro.sql.ast_nodes import Literal, Param, Select
from repro.sql.executor import Executor, run_sql
from repro.sql.parser import parse_one
from tests.conftest import counter, row_store_as_of


def build_db():
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, """
        CREATE TABLE accounts (id INT PRIMARY KEY, org TEXT, v INT);
        CREATE TABLE orgs (org TEXT PRIMARY KEY, region TEXT);
    """)
    run_sql(db, tx, "INSERT INTO orgs (org, region) VALUES "
                    "('o1', 'eu'), ('o2', 'us')")
    db.apply_commit(tx, block_number=0)
    for height, value in ((1, 10), (2, 20), (3, 30)):
        tx = db.begin(allow_nondeterministic=True)
        if height == 1:
            run_sql(db, tx, "INSERT INTO accounts (id, org, v) VALUES "
                            "(1, 'o1', $1), (2, 'o2', $1)", params=(value,))
        else:
            run_sql(db, tx, "UPDATE accounts SET v = $1 WHERE id = 1",
                    params=(value,))
        db.apply_commit(tx, block_number=height)
        db.committed_height = height
        db.columnstore.on_block(db, height)
    return db


def query(db, sql, params=(), **tx_kwargs):
    tx_kwargs.setdefault("read_only", True)
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        return run_sql(db, tx, sql, params=params)
    finally:
        db.apply_abort(tx, reason="read-only")


class TestParser:
    def test_as_of_block_literal(self):
        stmt = parse_one("SELECT v FROM t AS OF BLOCK 5")
        assert isinstance(stmt, Select)
        assert not stmt.as_of.latest
        assert isinstance(stmt.as_of.block, Literal)
        assert stmt.as_of.block.value == 5

    def test_as_of_block_param(self):
        stmt = parse_one("SELECT v FROM t WHERE id = $1 AS OF BLOCK $2")
        assert isinstance(stmt.as_of.block, Param)
        assert stmt.as_of.block.name == "$2"

    def test_as_of_latest(self):
        stmt = parse_one("SELECT v FROM t AS OF LATEST")
        assert stmt.as_of.latest
        assert stmt.as_of.block is None

    def test_as_of_after_full_clause_chain(self):
        stmt = parse_one(
            "SELECT org, sum(v) AS total FROM t WHERE v > 0 GROUP BY org "
            "HAVING sum(v) > 1 ORDER BY total LIMIT 3 OFFSET 1 "
            "AS OF BLOCK 2")
        assert stmt.as_of.block.value == 2
        assert stmt.limit is not None

    def test_select_alias_not_confused_with_clause(self):
        stmt = parse_one("SELECT v AS value FROM t AS OF BLOCK 1")
        assert stmt.items[0].alias == "value"
        assert stmt.from_table.alias == "t"
        assert stmt.as_of.block.value == 1

    def test_table_alias_still_works(self):
        stmt = parse_one("SELECT a.v FROM t AS a AS OF BLOCK 1")
        assert stmt.from_table.alias == "a"
        assert stmt.as_of is not None

    def test_as_of_requires_block_or_latest(self):
        with pytest.raises(SQLSyntaxError):
            parse_one("SELECT v FROM t AS OF 3")

    def test_soft_keywords_remain_identifiers(self):
        stmt = parse_one("SELECT block, latest FROM t WHERE block = 1")
        names = [item.expr.name for item in stmt.items]
        assert names == ["block", "latest"]

    def test_of_block_latest_still_work_as_aliases(self):
        """Pre-existing SQL aliasing columns/tables as of/block/latest
        must keep parsing (the clause head is the full AS OF BLOCK /
        AS OF LATEST sequence)."""
        stmt = parse_one("SELECT v AS of FROM t")
        assert stmt.items[0].alias == "of"
        assert stmt.as_of is None
        stmt = parse_one("SELECT v of FROM t")
        assert stmt.items[0].alias == "of"
        stmt = parse_one("SELECT v AS block, k AS latest FROM t")
        assert [i.alias for i in stmt.items] == ["block", "latest"]
        stmt = parse_one("SELECT x.v FROM t AS of, u AS x")
        assert stmt.from_table.alias == "of"
        stmt = parse_one("SELECT latest.v FROM t latest")
        assert stmt.from_table.alias == "latest"
        # And the alias + clause combination still disambiguates:
        stmt = parse_one("SELECT v AS of FROM t AS OF BLOCK 1")
        assert stmt.items[0].alias == "of"
        assert stmt.as_of.block.value == 1

    def test_subquery_can_carry_its_own_pin(self):
        stmt = parse_one(
            "SELECT v FROM t WHERE v = (SELECT max(v) FROM t AS OF BLOCK 1)")
        sub = stmt.where.right.select
        assert sub.as_of.block.value == 1
        assert stmt.as_of is None


class TestValidation:
    def test_rejects_writable_session(self):
        db = build_db()
        tx = db.begin(allow_nondeterministic=True)
        with pytest.raises(ExecutionError, match="read-only"):
            run_sql(db, tx, "SELECT v FROM accounts AS OF BLOCK 1")
        db.apply_abort(tx, reason="test")

    def test_rejects_provenance_session(self):
        db = build_db()
        with pytest.raises(ExecutionError, match="PROVENANCE"):
            query(db, "SELECT v FROM accounts AS OF BLOCK 1",
                  provenance=True)

    def test_rejects_future_height(self):
        db = build_db()
        with pytest.raises(ExecutionError, match="future"):
            query(db, "SELECT v FROM accounts AS OF BLOCK 99")

    def test_rejects_negative_and_null(self):
        db = build_db()
        with pytest.raises(ExecutionError, match="negative"):
            query(db, "SELECT v FROM accounts AS OF BLOCK $1", params=(-1,))
        with pytest.raises(ExecutionError, match="NULL"):
            query(db, "SELECT v FROM accounts AS OF BLOCK $1",
                  params=(None,))

    def test_rejects_non_integer_heights(self):
        """A fractional height must raise, never silently truncate to
        the wrong historical state; strings and booleans are rejected
        too.  Integral floats (block arithmetic) are accepted."""
        db = build_db()
        with pytest.raises(ExecutionError, match="integer"):
            query(db, "SELECT v FROM accounts AS OF BLOCK 1.9")
        with pytest.raises(ExecutionError, match="integer"):
            query(db, "SELECT v FROM accounts AS OF BLOCK $1",
                  params=("1",))
        with pytest.raises(ExecutionError, match="integer"):
            query(db, "SELECT v FROM accounts AS OF BLOCK TRUE")
        assert query(db, "SELECT v FROM accounts WHERE id = 1 "
                         "AS OF BLOCK $1", params=(2.0,)).rows == [(20,)]

    def test_rejects_vacuumed_history(self):
        db = build_db()
        db.retained_height = 2
        with pytest.raises(ExecutionError, match="retention"):
            query(db, "SELECT v FROM accounts AS OF BLOCK 1")
        assert query(db, "SELECT v FROM accounts WHERE id = 1 "
                         "AS OF BLOCK 2").rows == [(20,)]


class TestSemantics:
    def test_time_travel_returns_each_height(self):
        db = build_db()
        for height, expected in ((1, 10), (2, 20), (3, 30)):
            rows = query(db, "SELECT v FROM accounts WHERE id = 1 "
                             "AS OF BLOCK $1", params=(height,)).rows
            assert rows == [(expected,)]

    def test_latest_is_committed_height(self):
        db = build_db()
        assert query(db, "SELECT v FROM accounts WHERE id = 1 "
                         "AS OF LATEST").rows == [(30,)]

    def test_session_pin_via_default_as_of(self):
        db = build_db()
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            executor = Executor(db, tx, default_as_of=1)
            result = executor.execute(
                parse_one("SELECT v FROM accounts WHERE id = 1"))
            assert result.rows == [(10,)]
            # Explicit clause overrides the session pin.
            result = executor.execute(parse_one(
                "SELECT v FROM accounts WHERE id = 1 AS OF BLOCK 2"))
            assert result.rows == [(20,)]
        finally:
            db.apply_abort(tx, reason="read-only")

    def test_subquery_inherits_outer_pin(self):
        db = build_db()
        rows = query(db, "SELECT id FROM accounts WHERE v = "
                         "(SELECT max(v) FROM accounts) AS OF BLOCK 1").rows
        # At height 1 both accounts hold 10 — the historical max.
        assert rows == [(1,), (2,)]

    def test_join_under_pin(self):
        db = build_db()
        rows = query(db, "SELECT o.region, a.v FROM accounts a "
                         "JOIN orgs o ON o.org = a.org WHERE a.id = 1 "
                         "AS OF BLOCK 2").rows
        assert rows == [("eu", 20)]

    def test_no_ssi_state_recorded(self):
        db = build_db()
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            run_sql(db, tx, "SELECT sum(v) FROM accounts AS OF BLOCK 2")
            run_sql(db, tx, "SELECT v FROM accounts WHERE id = 1 "
                            "AS OF BLOCK 1")
        finally:
            db.apply_abort(tx, reason="read-only")
        # The predicate reads are the whole SIREAD set.
        assert tx.predicate_reads == []


class TestExplainAndCache:
    def test_explain_shows_columnar_scan(self):
        db = build_db()
        lines = [row[0] for row in query(
            db, "EXPLAIN SELECT id, v FROM accounts WHERE id = 1 "
                "AS OF BLOCK 2").rows]
        assert any("ColumnarScan on accounts" in line for line in lines)
        assert lines[-1] == "Plan Cache: miss"

    def test_explain_shows_columnar_aggregate(self):
        db = build_db()
        lines = [row[0] for row in query(
            db, "EXPLAIN SELECT sum(v), count(*) FROM accounts "
                "AS OF BLOCK 2").rows]
        assert any("ColumnarAggregate" in line for line in lines)
        assert any("ColumnarScan" in line for line in lines)

    def test_plan_cache_hit_on_repeat(self):
        db = build_db()
        sql = "EXPLAIN SELECT v FROM accounts WHERE id = 1 AS OF BLOCK 2"
        assert query(db, sql).rows[-1][0] == "Plan Cache: miss"
        assert query(db, sql).rows[-1][0] == "Plan Cache: hit"

    def test_param_heights_share_one_template(self):
        """Templates are height-free: pinning the same statement to many
        heights reuses one cache entry (a polling dashboard must not
        re-plan — or evict hot templates — every block)."""
        db = build_db()
        sql = "SELECT v FROM accounts WHERE id = 1 AS OF BLOCK $1"
        assert query(db, sql, params=(1,)).rows == [(10,)]
        size_after_first = len(db.plan_cache)
        hits_before = counter(db.plan_cache, "plancache.hits")
        assert query(db, sql, params=(2,)).rows == [(20,)]
        assert query(db, sql, params=(3,)).rows == [(30,)]
        assert counter(db.plan_cache, "plancache.hits") == hits_before + 2
        assert len(db.plan_cache) == size_after_first

    def test_pinned_and_unpinned_plans_never_alias(self):
        db = build_db()
        plain = "EXPLAIN SELECT v FROM accounts WHERE id = 1"
        assert query(db, plain).rows[-1][0] == "Plan Cache: miss"
        pinned_lines = [r[0] for r in query(
            db, plain + " AS OF BLOCK 2").rows]
        # Same text shape, but the pinned variant is a separate template
        # with columnar routing (the clause changes the fingerprint AND
        # the pinned key component).
        assert any("ColumnarScan" in line for line in pinned_lines)
        unpinned_lines = [r[0] for r in query(db, plain).rows]
        assert not any("Columnar" in line for line in unpinned_lines)
        assert unpinned_lines[-1] == "Plan Cache: hit"

    def test_row_store_reference_takes_the_row_path(self):
        """``row_store_as_of`` — the reference leg of every replica
        equivalence test — really plans heap scans, and answers alike."""
        db = build_db()
        with row_store_as_of(db):
            lines = [row[0] for row in query(
                db, "EXPLAIN SELECT v FROM accounts WHERE id = 1 "
                    "AS OF BLOCK 2").rows]
            assert any("IndexScan on accounts" in line for line in lines)
            assert not any("Columnar" in line for line in lines)
            rows = query(db, "SELECT v FROM accounts WHERE id = 1 "
                             "AS OF BLOCK 2").rows
            assert rows == [(20,)]
