"""Planner & plan layer: EXPLAIN golden outputs, join-strategy choice,
ORDER BY alias resolution without AST mutation, catalog statistics."""

import re

import pytest

from repro.errors import MissingIndexError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.parser import parse_one
from repro.storage.vacuum import vacuum_database
from tests.conftest import structural_planning


APPENDIX_A_SCHEMA = """
    CREATE TABLE accounts (
        acc_id INT PRIMARY KEY,
        org TEXT NOT NULL,
        balance FLOAT NOT NULL
    );
    CREATE INDEX accounts_org_idx ON accounts(org);
    CREATE TABLE invoices (
        invoice_id INT PRIMARY KEY,
        acc_id INT NOT NULL,
        org TEXT NOT NULL,
        amount FLOAT NOT NULL,
        status TEXT NOT NULL
    );
    CREATE INDEX invoices_acc_idx ON invoices(acc_id);
    CREATE INDEX invoices_org_idx ON invoices(org);
"""


@pytest.fixture
def db():
    """The Appendix A order-processing shape, seeded like the fig6/fig7
    workloads."""
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx, APPENDIX_A_SCHEMA)
    for i in range(12):
        run_sql(database, tx,
                "INSERT INTO accounts (acc_id, org, balance) "
                "VALUES ($1, $2, 100.0)",
                params=(i + 1, f"org{i % 3 + 1}"))
    for i in range(36):
        run_sql(database, tx,
                "INSERT INTO invoices (invoice_id, acc_id, org, amount, "
                "status) VALUES ($1, $2, $3, $4, 'new')",
                params=(i + 1, i % 12 + 1, f"org{i % 3 + 1}",
                        float(10 + i)))
    database.apply_commit(tx, block_number=1)
    database.committed_height = 1
    return database


def q(db, sql, params=(), **tx_kwargs):
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        return run_sql(db, tx, sql, params=params)
    finally:
        if not tx.is_aborted and not tx.is_committed:
            db.apply_abort(tx, reason="test")


def explain(db, sql, params=(), **tx_kwargs):
    result = q(db, "EXPLAIN " + sql, params=params, **tx_kwargs)
    assert result.columns == ["QUERY PLAN"]
    return [row[0] for row in result.rows]


FIG6_SQL = ("SELECT sum(i.amount), count(*) FROM accounts a "
            "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = $1")

FIG7_SQL = ("SELECT sum(amount) FROM invoices WHERE org = $1 "
            "GROUP BY acc_id ORDER BY sum(amount) DESC, acc_id ASC LIMIT 1")


class TestExplainGolden:
    def test_fig6_skewed_join_uses_index_probes(self, db):
        """Cost-based choice for the fig6 shape: a 4-row outer probing a
        36-row inner through its index beats hashing the whole inner
        side per execution (the anchored NDV estimates make the outer's
        rows~4 = 12/ndv(org)=3 deterministic across nodes).  Nothing
        above the global sum/count can see row order, so neither scan
        sorts, and the index range enforces ``a.org = $1`` exactly, so
        no Filter repeats it."""
        assert explain(db, FIG6_SQL, params=("org1",)) == [
            "HashAggregate (global) (cost~64 rows~1)",
            "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
            "(cost~40 rows~12)",
            "    -> IndexScan on accounts as a using accounts_org_idx "
            "(a.org = $1) (any order) (cost~7 rows~4)",
            "    -> IndexProbe on invoices as i using invoices_acc_idx "
            "(i.acc_id = a.acc_id) (per outer row) (any order) "
            "(cost~8 rows~3)",
            "Plan Cache: miss",
        ]

    def test_fig7_group_uses_hash_aggregate(self, db):
        """The ORDER BY names the group key, so the groups are totally
        ordered whatever order the scan feeds them in."""
        assert explain(db, FIG7_SQL, params=("org1",)) == [
            "Limit (limit=1) (cost~84 rows~12)",
            "  -> Sort (sum(amount) DESC, acc_id ASC) (cost~84 rows~12)",
            "    -> HashAggregate (group by acc_id) (cost~41 rows~12)",
            "      -> IndexScan on invoices using invoices_org_idx "
            "(org = $1) (any order) (cost~17 rows~12)",
            "Plan Cache: miss",
        ]

    def test_no_equi_key_falls_back_to_nested_loop(self, db):
        lines = explain(db, "SELECT a.acc_id FROM accounts a "
                            "JOIN invoices i ON i.amount > a.balance")
        assert lines == [
            "Project (acc_id) (cost~3152 rows~432)",
            "  -> NestedLoopJoin INNER on (i.amount > a.balance) "
            "(cost~2720 rows~432)",
            "    -> SeqScan on accounts as a (cost~55 rows~12)",
            "    -> SeqScan on invoices as i (per outer row) "
            "(cost~222 rows~36)",
            "Plan Cache: miss",
        ]

    def test_hash_join_chosen_for_unindexed_equi_key(self, db):
        """Costing hashes when no index probe can serve the key: one
        build + stream beats per-outer-row sequential rescans."""
        lines = explain(db, "SELECT count(*) FROM invoices i "
                            "JOIN accounts a ON a.balance = i.amount")
        assert any("HashJoin INNER (a.balance = i.amount)" in line
                   for line in lines)

    def test_indexed_keys_both_sides_probe_instead_of_merge(self, db):
        """Both join columns carry ordering indexes.  This golden lost
        its SortMergeJoin (two IndexOrderScans, Sort elided) when that
        operator was retired: index probes and a Sort now answer it."""
        sql = ("SELECT a.acc_id, i.invoice_id FROM accounts a "
               "JOIN invoices i ON i.acc_id = a.acc_id "
               "ORDER BY a.acc_id")
        assert explain(db, sql) == [
            "Sort (a.acc_id ASC) (cost~432 rows~36)",
            "  -> Project (acc_id, invoice_id) (cost~246 rows~36)",
            "    -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
            "(cost~210 rows~36)",
            "      -> SeqScan on accounts as a (cost~55 rows~12)",
            "      -> IndexProbe on invoices as i using invoices_acc_idx "
            "(i.acc_id = a.acc_id) (per outer row) (cost~12 rows~3)",
            "Plan Cache: miss",
        ]
        rows = q(db, sql).rows
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)
        # Byte-identical to the hash+Sort pipeline.
        with structural_planning(db):
            assert q(db, sql).rows == rows

    def test_eo_flow_keeps_index_backed_nested_loop(self, db):
        """Under require_index a hash build's full scan would abort, so
        the planner keeps per-row index probes (narrow predicate reads)."""
        lines = explain(db, FIG6_SQL, params=("org1",), require_index=True)
        assert any(l.startswith(
            "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id)")
            for l in lines)
        assert any(l.startswith(
            "    -> IndexProbe on invoices as i using "
            "invoices_acc_idx (i.acc_id = a.acc_id) (per outer row)")
            for l in lines)
        assert not any("HashJoin" in line for line in lines)

    def test_point_lookup_join_prefers_index_probes(self, db):
        """A unique-key outer (1 row) probing an indexed inner is cheaper
        than building a hash over the whole inner table."""
        lines = explain(db, "SELECT i.amount FROM accounts a "
                            "JOIN invoices i ON i.acc_id = a.acc_id "
                            "WHERE a.acc_id = 7")
        assert any("NestedLoopJoin" in line for line in lines)
        assert any("IndexProbe" in line for line in lines)

    def test_explain_update_and_delete(self, db):
        assert explain(db, "UPDATE accounts SET balance = 0 "
                           "WHERE acc_id = 3") == [
            "Update on accounts",
            "  -> IndexScan on accounts using accounts_pkey "
            "(acc_id = 3) (cost~5 rows~1)",
            "Plan Cache: miss",
        ]
        assert explain(db, "DELETE FROM invoices WHERE org = 'org2'") == [
            "Delete on invoices",
            "  -> IndexScan on invoices using invoices_org_idx "
            "(org = 'org2') (cost~60 rows~12)",
            "Plan Cache: miss",
        ]

    def test_explain_insert_values(self, db):
        assert explain(db, "INSERT INTO accounts (acc_id, org, balance) "
                           "VALUES (99, 'org9', 1.0)") == [
            "Insert on accounts",
            "  -> Values (1 row)",
            "Plan Cache: bypass",
        ]

    def test_explain_does_not_execute(self, db):
        before = q(db, "SELECT count(*) FROM accounts").scalar()
        explain(db, "DELETE FROM accounts WHERE acc_id = 1")
        assert q(db, "SELECT count(*) FROM accounts").scalar() == before


_ANALYZE_TIME = re.compile(r"time=\d+\.\d{3}ms")
_SUMMARY_TIME = re.compile(r"Time: \d+\.\d{3} ms")


def explain_analyze(db, sql, params=(), **tx_kwargs):
    result = q(db, "EXPLAIN ANALYZE " + sql, params=params, **tx_kwargs)
    assert result.columns == ["QUERY PLAN"]
    return [row[0] for row in result.rows]


def masked(lines):
    """Wall-clock varies run to run; rows/loops are exact."""
    return [_SUMMARY_TIME.sub("Time: <t> ms",
                              _ANALYZE_TIME.sub("time=<t>", line))
            for line in lines]


class TestExplainAnalyzeGolden:
    def test_fig6_actual_rows_per_operator(self, db):
        """Every operator reports its exact actuals: 4 org1 accounts
        drive 4 index probes yielding 3 invoices each."""
        assert masked(explain_analyze(db, FIG6_SQL, params=("org1",))) == [
            "HashAggregate (global) (cost~64 rows~1) "
            "(actual rows=1 loops=1 time=<t>)",
            "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
            "(cost~40 rows~12) (actual rows=12 loops=1 time=<t>)",
            "    -> IndexScan on accounts as a using accounts_org_idx "
            "(a.org = $1) (any order) (cost~7 rows~4) "
            "(actual rows=4 loops=1 time=<t>)",
            "    -> IndexProbe on invoices as i using invoices_acc_idx "
            "(i.acc_id = a.acc_id) (per outer row) (any order) "
            "(cost~8 rows~3) (actual rows=12 loops=4 time=<t>)",
            "Plan Cache: miss",
            "Planning Time: <t> ms",
            "Execution Time: <t> ms",
        ]

    def test_fig7_limit_truncates_sorted_groups(self, db):
        """The Sort under LIMIT 1 keeps one of the 4 groups."""
        assert masked(explain_analyze(db, FIG7_SQL, params=("org1",))) == [
            "Limit (limit=1) (cost~84 rows~12) "
            "(actual rows=1 loops=1 time=<t>)",
            "  -> Sort (sum(amount) DESC, acc_id ASC) (cost~84 rows~12) "
            "(actual rows=1 loops=1 time=<t>)",
            "    -> HashAggregate (group by acc_id) (cost~41 rows~12) "
            "(actual rows=4 loops=1 time=<t>)",
            "      -> IndexScan on invoices using invoices_org_idx "
            "(org = $1) (any order) (cost~17 rows~12) "
            "(actual rows=12 loops=1 time=<t>)",
            "Plan Cache: miss",
            "Planning Time: <t> ms",
            "Execution Time: <t> ms",
        ]

    def test_root_actual_rows_match_returned_rowcount(self, db):
        """Acceptance criterion: the root operator's actual row count
        equals the row count the plain SELECT returns."""
        for sql, params in ((FIG6_SQL, ("org1",)), (FIG7_SQL, ("org1",)),
                            ("SELECT * FROM invoices WHERE org = $1 "
                             "ORDER BY invoice_id", ("org2",))):
            returned = q(db, sql, params=params).rowcount
            root = explain_analyze(db, sql, params=params)[0]
            assert f"actual rows={returned} loops=1" in root, root

    def test_plan_cache_hit_line_renders(self, db):
        first = explain_analyze(db, FIG6_SQL, params=("org1",))
        second = explain_analyze(db, FIG6_SQL, params=("org1",))
        assert "Plan Cache: miss" in first
        assert "Plan Cache: hit" in second
        # The cached template must come back unwrapped: actuals reset
        # per run instead of accumulating.
        assert masked(first)[:-3] == masked(second)[:-3]

    def test_analyze_executes_but_leaves_no_writes(self, db):
        before = q(db, "SELECT count(*) FROM accounts").scalar()
        explain_analyze(db, "SELECT count(*) FROM accounts")
        assert q(db, "SELECT count(*) FROM accounts").scalar() == before

    def test_analyze_rejects_dml(self, db):
        from repro.errors import ExecutionError

        tx = db.begin(allow_nondeterministic=True)
        with pytest.raises(ExecutionError, match="only SELECT"):
            run_sql(db, tx, "EXPLAIN ANALYZE DELETE FROM accounts")
        db.apply_abort(tx, reason="test")
        assert q(db, "SELECT count(*) FROM accounts").scalar() == 12

    def test_plain_explain_unchanged_after_analyze(self, db):
        """ANALYZE instrumentation must not leak into the cached plan:
        a later plain EXPLAIN renders the original golden."""
        explain_analyze(db, FIG6_SQL, params=("org1",))
        assert explain(db, FIG6_SQL, params=("org1",)) == [
            "HashAggregate (global) (cost~64 rows~1)",
            "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
            "(cost~40 rows~12)",
            "    -> IndexScan on accounts as a using accounts_org_idx "
            "(a.org = $1) (any order) (cost~7 rows~4)",
            "    -> IndexProbe on invoices as i using invoices_acc_idx "
            "(i.acc_id = a.acc_id) (per outer row) (any order) "
            "(cost~8 rows~3)",
            "Plan Cache: hit",
        ]


class TestJoinStrategies:
    def test_hash_join_matches_nested_loop_results(self, db):
        """Force both strategies over the same query; identical rows in
        identical order."""
        sql = ("SELECT a.acc_id, i.invoice_id, i.amount FROM accounts a "
               "JOIN invoices i ON i.acc_id = a.acc_id "
               "WHERE a.org = 'org1' ORDER BY i.invoice_id")
        hash_rows = q(db, sql).rows
        nlj_rows = q(db, sql, require_index=True).rows  # forces probes
        assert hash_rows == nlj_rows
        assert len(hash_rows) == 12

    def test_left_join_emits_null_rows(self, db):
        """Both LEFT strategies emit null-extended rows for unmatched
        outers: the cost-based choice (index probes here; a SortMergeJoin
        LEFT until that operator was retired) and the hash path."""
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO accounts (acc_id, org, balance) "
                        "VALUES (50, 'lonely', 0.0)")
        sql = ("SELECT a.acc_id, i.invoice_id FROM accounts a "
               "LEFT JOIN invoices i ON i.acc_id = a.acc_id "
               "ORDER BY a.acc_id")
        lines = [row[0] for row in run_sql(db, tx, "EXPLAIN " + sql).rows]
        assert any("NestedLoopJoin LEFT" in line for line in lines)
        result = run_sql(db, tx, sql)
        assert result.rows[-1] == (50, None)
        with structural_planning(db):
            lines = [row[0] for row in
                     run_sql(db, tx, "EXPLAIN " + sql).rows]
            assert any("HashJoin LEFT" in line for line in lines)
            assert run_sql(db, tx, sql).rows == result.rows
        db.apply_abort(tx, reason="test")

    def test_predicate_reads_cover_both_tables(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "SELECT a.acc_id, i.invoice_id FROM accounts a "
                        "JOIN invoices i ON i.acc_id = a.acc_id "
                        "ORDER BY a.acc_id")
        tables = {p.table for p in tx.predicate_reads}
        assert {"accounts", "invoices"} <= tables
        db.apply_abort(tx, reason="test")

    def test_sees_own_uncommitted_writes(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, org, "
                        "amount, status) VALUES (900, 3, 'org3', 1.0, "
                        "'mine')")
        rows = run_sql(db, tx, "SELECT a.acc_id, i.invoice_id, i.amount "
                               "FROM accounts a JOIN invoices i "
                               "ON i.acc_id = a.acc_id "
                               "ORDER BY a.acc_id").rows
        assert (3, 900, 1.0) in rows
        db.apply_abort(tx, reason="test")

    def test_eo_flow_unindexed_join_still_aborts(self, db):
        tx = db.begin(allow_nondeterministic=True, require_index=True)
        with pytest.raises(MissingIndexError):
            run_sql(db, tx, "SELECT count(*) FROM accounts a "
                            "JOIN invoices i ON i.status = a.org")
        db.apply_abort(tx, reason="test")

    def test_cross_join_with_where_equi_key(self, db):
        result = q(db, "SELECT count(*) FROM accounts a, invoices i "
                       "WHERE i.acc_id = a.acc_id")
        assert result.scalar() == 36

    def test_hash_join_matches_boolean_to_integer_keys(self, db):
        """'=' treats TRUE = 1; hash bucketing must agree with the
        comparator, not with index key ranking."""
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, """
            CREATE TABLE flags (id INT PRIMARY KEY, f BOOLEAN);
            CREATE TABLE nums (id INT PRIMARY KEY, n INT);
            INSERT INTO flags (id, f) VALUES (1, TRUE), (2, FALSE);
            INSERT INTO nums (id, n) VALUES (10, 1), (11, 0), (12, 5);
        """)
        result = run_sql(db, tx, "SELECT flags.id, nums.id FROM flags "
                                 "JOIN nums ON nums.n = flags.f "
                                 "ORDER BY flags.id")
        assert result.rows == [(1, 10), (2, 11)]
        db.apply_abort(tx, reason="test")


class TestOrderByAliasPlanning:
    def test_order_by_alias_does_not_mutate_ast(self, db):
        """Re-executing a cached statement (stored procedures keep the
        parsed tree) must not see a rewritten ORDER BY."""
        stmt = parse_one("SELECT org, sum(amount) AS total FROM invoices "
                         "GROUP BY org ORDER BY total DESC")
        from repro.sql.ast_nodes import ColumnRef
        from repro.sql.executor import Executor

        for _ in range(2):
            tx = db.begin(allow_nondeterministic=True)
            result = Executor(db, tx).execute(stmt)
            assert [r[0] for r in result.rows] == ["org3", "org2", "org1"]
            db.apply_abort(tx, reason="test")
            order_expr = stmt.order_by[0].expr
            assert isinstance(order_expr, ColumnRef)
            assert order_expr.name == "total"

    def test_real_column_shadows_alias(self, db):
        result = q(db, "SELECT acc_id, amount AS org FROM invoices "
                       "WHERE acc_id = 1 ORDER BY org")
        # "org" is a real column: sorts by invoices.org, not the alias.
        assert [r[0] for r in result.rows] == [1, 1, 1]


class TestCatalogStatistics:
    def test_live_rows_track_insert_commit_delete(self, db):
        assert db.catalog.stats_of("accounts").live_rows == 12
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO accounts (acc_id, org, balance) "
                        "VALUES (90, 'orgX', 1.0)")
        assert db.catalog.stats_of("accounts").live_rows == 13
        db.apply_abort(tx, reason="test")
        assert db.catalog.stats_of("accounts").live_rows == 12

        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM accounts WHERE acc_id = 1")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        assert db.catalog.stats_of("accounts").live_rows == 11

    def test_update_keeps_live_count_stable(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "UPDATE accounts SET balance = 1.0 "
                        "WHERE acc_id = 2")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        stats = db.catalog.stats_of("accounts")
        assert stats.live_rows == 12
        assert stats.total_versions == 13  # old + new version retained

    def test_vacuum_updates_version_stats(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM invoices WHERE org = 'org3'")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 10
        report = vacuum_database(db, retain_height=5)
        assert report.removed_versions == 12
        stats = db.catalog.stats_of("invoices")
        assert stats.vacuumed_versions == 12
        assert stats.total_versions == 24
        assert stats.live_rows == 24

    def test_rollback_committed_restores_counts(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM accounts WHERE acc_id = 3; "
                        "INSERT INTO accounts (acc_id, org, balance) "
                        "VALUES (91, 'orgY', 1.0)")
        db.apply_commit(tx, block_number=2)
        assert db.catalog.stats_of("accounts").live_rows == 12
        db.rollback_committed(tx)
        assert db.catalog.stats_of("accounts").live_rows == 12
        # Aborting the rolled-back tx must not double-discount the insert
        # whose version recovery already removed.
        db.apply_abort(tx, reason="test")
        assert db.catalog.stats_of("accounts").live_rows == 12


class TestRangeCosting:
    """A range predicate costs at the classic fixed 1/3 of the anchored
    committed row count, whatever its bound value; an equality prefix
    divides by the anchored distinct-key count first."""

    @pytest.fixture
    def range_db(self):
        database = Database()
        tx = database.begin(allow_nondeterministic=True)
        run_sql(database, tx, """
            CREATE TABLE m (id INT PRIMARY KEY, g INT, v INT);
            CREATE INDEX m_v_idx ON m(v);
            CREATE INDEX m_gv_idx ON m(g, v);
        """)
        for i in range(99):
            run_sql(database, tx,
                    "INSERT INTO m (id, g, v) VALUES ($1, $2, $3)",
                    params=(i, i % 3, i))
        database.apply_commit(tx, block_number=1)
        database.committed_height = 1
        database.columnstore.on_block(database, 1)
        return database

    @staticmethod
    def scan_rows(lines):
        """The ``rows~`` estimate of the plan's single index scan."""
        found = [re.search(r"IndexScan .*rows~(\d+)\)$", line)
                 for line in lines]
        found = [m for m in found if m]
        assert len(found) == 1, lines
        return int(found[0].group(1))

    def test_range_estimate_ignores_the_bound_value(self, range_db):
        narrow = explain(range_db, "SELECT id, v FROM m WHERE v >= 90")
        wide = explain(range_db, "SELECT id, v FROM m WHERE v >= 10")
        assert self.scan_rows(narrow) == self.scan_rows(wide) == 33

    def test_range_estimate_follows_committed_rows_only(self, range_db):
        """Uncommitted inserts leave the estimate alone; a committed
        block moves it to a third of the new anchored count."""
        sql = "SELECT id, v FROM m WHERE v >= 10"
        tx = range_db.begin(allow_nondeterministic=True)
        for i in range(99, 150):
            run_sql(range_db, tx,
                    "INSERT INTO m (id, g, v) VALUES ($1, $2, $3)",
                    params=(i, i % 3, i))
        assert self.scan_rows(explain(range_db, sql)) == 33
        range_db.apply_commit(tx, block_number=2)
        range_db.committed_height = 2
        range_db.columnstore.on_block(range_db, 2)
        assert self.scan_rows(explain(range_db, sql)) == 50

    def test_equality_prefix_then_range_divides_by_ndv(self, range_db):
        """``g = 1 AND v >= 10`` on (g, v): 99 rows / 3 distinct g / 3."""
        lines = explain(range_db,
                        "SELECT id FROM m WHERE g = 1 AND v >= 10")
        assert any("m_gv_idx" in line for line in lines), lines
        assert self.scan_rows(lines) == 11

    def test_warm_plan_hit_reads_the_new_bound(self, range_db):
        """A plan cached under one bound serves another with the same
        estimate and the rows of the new bound."""
        sql = "SELECT id, v FROM m WHERE v >= $1"
        first = [r[0] for r in q(range_db, "EXPLAIN " + sql,
                                 params=(90,)).rows]
        assert "Plan Cache: miss" in first
        second = [r[0] for r in q(range_db, "EXPLAIN " + sql,
                                  params=(10,)).rows]
        assert "Plan Cache: hit" in second
        assert self.scan_rows(first) == self.scan_rows(second) == 33
        assert len(q(range_db, sql, params=(90,)).rows) == 9
        assert len(q(range_db, sql, params=(10,)).rows) == 89


class TestPlannedSemanticsUnchanged:
    def test_ssi_predicate_reads_still_recorded_through_plans(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "SELECT * FROM invoices WHERE org = 'org1'")
        predicates = [p for p in tx.predicate_reads
                      if p.table == "invoices" and p.columns]
        assert predicates and predicates[0].matches_values({"org": "org1"})
        assert not predicates[0].matches_values({"org": "org2"})
        db.apply_abort(tx, reason="test")

    def test_hash_join_build_records_predicate_read(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, FIG6_SQL.replace("$1", "'org1'"))
        tables = {p.table for p in tx.predicate_reads}
        assert {"accounts", "invoices"} <= tables
        db.apply_abort(tx, reason="test")

    def test_limit_offset_slicing(self, db):
        result = q(db, "SELECT invoice_id FROM invoices "
                       "ORDER BY invoice_id LIMIT 3 OFFSET 1")
        assert result.rows == [(2,), (3,), (4,)]

    def test_limit_zero_still_records_reads(self, db):
        """LIMIT 0 must not skip the scan: the predicate read (and ACL /
        EO-abort behaviour) has to happen exactly as without the LIMIT,
        or SSI would miss rw-antidependencies."""
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "SELECT * FROM invoices WHERE org = 'org1' LIMIT 0")
        predicates = [p for p in tx.predicate_reads
                      if p.table == "invoices" and p.columns]
        assert predicates and predicates[0].matches_values({"org": "org1"})
        db.apply_abort(tx, reason="test")
        # Every row the LIMIT dropped is inside that read.
        rows = q(db, "SELECT * FROM invoices WHERE org = 'org1'")
        assert rows.rows
        for row in rows.rows:
            assert predicates[0].matches_values(dict(zip(rows.columns, row)))

    def test_query_timings_recorded(self, db):
        plan, execute = db.sql_plan_seconds, db.sql_exec_seconds
        before = (plan.count, execute.count, execute.sum)
        q(db, "SELECT count(*) FROM invoices")
        assert (plan.count, execute.count) == (before[0] + 1, before[1] + 1)
        assert plan.sum >= 0.0
        assert execute.sum > before[2]

    def test_correlated_subqueries_count_as_one_statement(self, db):
        execute = db.sql_exec_seconds
        before = execute.count
        q(db, "SELECT acc_id FROM accounts a WHERE EXISTS "
              "(SELECT 1 FROM invoices i WHERE i.acc_id = a.acc_id)")
        assert execute.count == before + 1

    def test_insert_and_ddl_count_as_statements(self, db):
        """Statements with no plan observe execution time only."""
        plan, execute = db.sql_plan_seconds, db.sql_exec_seconds
        before = (plan.count, execute.count)
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE timed_t (a INT PRIMARY KEY)")
        run_sql(db, tx, "INSERT INTO timed_t (a) VALUES (1), (2)")
        run_sql(db, tx, "INSERT INTO timed_t (a) "
                        "SELECT a + 10 FROM timed_t")
        db.apply_abort(tx, reason="test")
        assert (plan.count, execute.count) == (before[0], before[1] + 3)

    def test_negative_limit_and_offset_rejected(self, db):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            q(db, "SELECT acc_id FROM accounts LIMIT $1", params=(-1,))
        with pytest.raises(ExecutionError):
            q(db, "SELECT acc_id FROM accounts LIMIT 1 OFFSET $1",
              params=(-2,))

    @pytest.mark.parametrize("clause, message", [
        ("LIMIT 'x'", "LIMIT must be an integer, got str"),
        ("LIMIT 1 OFFSET 'x'", "OFFSET must be an integer, got str"),
        ("LIMIT 1.5", "LIMIT must be an integer, got float"),
        ("ORDER BY acc_id LIMIT TRUE",
         "LIMIT must be an integer, got bool"),
    ])
    def test_non_integer_limit_and_offset_rejected(self, db, clause,
                                                   message):
        """Used to escape as ValueError, or truncate 1.5 to 1; the
        streaming Limit shares the check."""
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError) as caught:
            q(db, "SELECT acc_id FROM accounts " + clause)
        assert str(caught.value) == message
        assert q(db, "SELECT acc_id FROM accounts LIMIT NULL").rowcount \
            == q(db, "SELECT acc_id FROM accounts").rowcount

    def test_explain_enforces_read_acl(self, db):
        from repro.errors import AccessDenied
        from repro.sql.executor import AccessChecker, Executor
        from repro.sql.parser import parse_one

        class DenyInvoices(AccessChecker):
            def check_read(self, username, table):
                if table == "invoices":
                    raise AccessDenied(f"{table} is off limits")

        tx = db.begin(allow_nondeterministic=True)
        executor = Executor(db, tx, acl=DenyInvoices())
        executor.execute(parse_one("EXPLAIN SELECT * FROM accounts"))
        with pytest.raises(AccessDenied):
            executor.execute(parse_one(
                "EXPLAIN SELECT * FROM accounts a WHERE EXISTS "
                "(SELECT 1 FROM invoices i WHERE i.acc_id = a.acc_id)"))
        db.apply_abort(tx, reason="test")


class TestComplexJoinAtBenchmarkSize:
    """The end-to-end benchmark's ``complex_join`` at its own seed shape
    (accounts dealt round-robin to 3 orgs, 20 invoices each).  The old
    cost model flipped from index probes to a SortMergeJoin over two
    whole-index walks between 250 and 300 accounts — a merge that threw
    the ``a.org`` bound away and left it to a Filter over 3x the rows —
    because nobody charged it for that Filter."""

    SQL = ("SELECT sum(i.amount), count(*) FROM accounts a "
           "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = org_name")

    @staticmethod
    def seeded(accounts):
        database = Database()
        tx = database.begin(allow_nondeterministic=True)
        run_sql(database, tx, APPENDIX_A_SCHEMA)
        acc_rows, inv_rows = [], []
        for acc in range(1, accounts + 1):
            org = f"org{(acc - 1) % 3 + 1}"
            acc_rows.append(f"({acc}, '{org}', 100.0)")
            for _ in range(20):
                inv_rows.append(f"({len(inv_rows) + 1}, {acc}, '{org}', "
                                f"{10 + len(inv_rows) % 7}.5, 'new')")
        run_sql(database, tx, "INSERT INTO accounts (acc_id, org, balance) "
                              "VALUES " + ", ".join(acc_rows))
        run_sql(database, tx, "INSERT INTO invoices (invoice_id, acc_id, "
                              "org, amount, status) VALUES "
                              + ", ".join(inv_rows))
        database.apply_commit(tx, block_number=1)
        database.committed_height = 1
        return database

    @pytest.mark.parametrize("accounts, golden", [
        (250, ["HashAggregate (global) (cost~6115 rows~1)",
               "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
               "(cost~2781 rows~1666)",
               "    -> IndexScan on accounts as a using accounts_org_idx "
               "(a.org = org_name) (any order) (cost~91 rows~83)",
               "    -> IndexProbe on invoices as i using invoices_acc_idx "
               "(i.acc_id = a.acc_id) (per outer row) (any order) "
               "(cost~32 rows~20)"]),
        (300, ["HashAggregate (global) (cost~7363 rows~1)",
               "  -> NestedLoopJoin INNER on (i.acc_id = a.acc_id) "
               "(cost~3363 rows~2000)",
               "    -> IndexScan on accounts as a using accounts_org_idx "
               "(a.org = org_name) (any order) (cost~108 rows~100)",
               "    -> IndexProbe on invoices as i using invoices_acc_idx "
               "(i.acc_id = a.acc_id) (per outer row) (any order) "
               "(cost~32 rows~20)"]),
    ])
    def test_index_probes_without_a_residual_filter(self, accounts, golden):
        database = self.seeded(accounts)
        tx = database.begin(allow_nondeterministic=True)
        lines = [row[0] for row in run_sql(
            database, tx, "EXPLAIN " + self.SQL,
            variables={"org_name": "org1"}).rows]
        assert lines[:-1] == golden
        result = run_sql(database, tx, self.SQL,
                         variables={"org_name": "org1"})
        database.apply_abort(tx, reason="test")
        assert result.rows[0][1] == 20 * len(range(1, accounts + 1, 3))

    @pytest.mark.parametrize("accounts", [250, 300])
    def test_ordered_variant_is_charged_for_the_discarded_bound(
            self, accounts):
        """Where row order is observable (a projection) the scans pay
        their sorts; the index probes still win on both sides of the old
        flip, and no Filter repeats the bound they enforce."""
        database = self.seeded(accounts)
        tx = database.begin(allow_nondeterministic=True)
        lines = [row[0] for row in run_sql(
            database, tx,
            "EXPLAIN SELECT i.amount FROM accounts a "
            "JOIN invoices i ON i.acc_id = a.acc_id "
            "WHERE a.org = org_name",
            variables={"org_name": "org1"}).rows]
        database.apply_abort(tx, reason="test")
        assert any("NestedLoopJoin" in line for line in lines), lines
        assert any("accounts_org_idx" in line for line in lines)
        assert not any("Filter" in line for line in lines)
