"""Statement fast path: parse/plan caching and its invalidation rules.

The determinism contract under test: a plan-cache hit may never change
the chosen plan, the result rows, or the SIREAD set — replicas that
disagree on any of those diverge on SSI abort decisions.  DDL and
vacuum-driven stats drift must bump the catalog version and evict stale
templates.
"""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.columnstore import ColumnStore
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.parser import (
    PARSE_CACHE_CHARS,
    clear_parse_cache,
    parse_one,
    parse_sql,
)
from repro.sql.plancache import (
    PlanCache,
    PlanEntry,
    statement_fingerprint,
)
from repro.storage.vacuum import vacuum_database
from tests.conftest import counter


def build_db():
    """The Appendix A order-processing shape (same as test_planner)."""
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx, """
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
    """)
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


@pytest.fixture
def db():
    return build_db()


def run_tx(db, sql, params=(), **tx_kwargs):
    """Run ``sql`` in its own transaction; returns (result, tx) with the
    transaction aborted afterwards (reads only — SIREAD state kept)."""
    tx = db.begin(allow_nondeterministic=True, **tx_kwargs)
    try:
        result = run_sql(db, tx, sql, params=params)
    finally:
        if not tx.is_aborted and not tx.is_committed:
            db.apply_abort(tx, reason="test")
    return result, tx


def explain_lines(db, sql, params=()):
    result, _ = run_tx(db, "EXPLAIN " + sql, params=params)
    return [row[0] for row in result.rows]


FIG6_SQL = ("SELECT sum(i.amount), count(*) FROM accounts a "
            "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = $1")


class TestCatalogVersion:
    def test_ddl_bumps_version(self, db):
        v0 = db.catalog.version
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE t1 (id INT PRIMARY KEY)")
        assert db.catalog.version > v0
        v1 = db.catalog.version
        run_sql(db, tx, "CREATE INDEX t1_idx ON t1(id)")
        assert db.catalog.version > v1
        v2 = db.catalog.version
        run_sql(db, tx, "DROP TABLE t1")
        assert db.catalog.version > v2
        db.apply_abort(tx, reason="test")

    def test_vacuum_drift_bumps_version(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM invoices WHERE org = 'org3'")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 10
        v0 = db.catalog.version
        report = vacuum_database(db, retain_height=5)
        assert report.removed_versions > 0
        assert db.catalog.version > v0
        # A no-op vacuum must NOT churn the cache.
        v1 = db.catalog.version
        vacuum_database(db, retain_height=5)
        assert db.catalog.version == v1


class TestPlanCacheHits:
    def test_repeat_execution_hits(self, db):
        run_tx(db, FIG6_SQL, params=("org1",))
        run_tx(db, FIG6_SQL, params=("org1",))
        assert counter(db.plan_cache, "plancache.misses") == 1
        assert counter(db.plan_cache, "plancache.hits") == 1

    def test_different_param_values_share_template(self, db):
        """The key uses parameter *shapes*, not values."""
        run_tx(db, FIG6_SQL, params=("org1",))
        before = counter(db.plan_cache, "plancache.hits")
        result, _ = run_tx(db, FIG6_SQL, params=("org2",))
        assert counter(db.plan_cache, "plancache.hits") == before + 1
        assert result.rows[0][1] == 12  # still correct for the new value

    def test_dml_scan_plans_cached(self, db):
        sql = "UPDATE accounts SET balance = $1 WHERE acc_id = $2"
        run_tx(db, sql, params=(1.0, 3))
        before = counter(db.plan_cache, "plancache.hits")
        run_tx(db, sql, params=(2.0, 3))
        assert counter(db.plan_cache, "plancache.hits") == before + 1

    def test_explain_annotates_hit_and_miss(self, db):
        sql = "SELECT acc_id FROM accounts WHERE org = $1"
        assert explain_lines(db, sql, params=("org1",))[-1] == \
            "Plan Cache: miss"
        assert explain_lines(db, sql, params=("org1",))[-1] == \
            "Plan Cache: hit"

    def test_correlated_subquery_plans_cached_per_outer_row(self, db):
        """The subquery re-plans per outer row without the cache; with it,
        rows after the first hit the template."""
        run_tx(db, "SELECT acc_id FROM accounts a WHERE EXISTS "
                   "(SELECT 1 FROM invoices i WHERE i.acc_id = a.acc_id)")
        # 12 outer rows, first probe misses
        assert counter(db.plan_cache, "plancache.hits") >= 10


class TestRowEstimateRefresh:
    """``cost~``/``rows~`` EXPLAIN annotations are snapshot-anchored and
    refresh on every cache hit: committed-at-anchor drift (an
    out-of-band commit stamped at or below the current height) shows up
    without a catalog-version bump, while a height advance re-anchors —
    the stats anchor is part of the cache key, so the statement simply
    re-plans at the new height."""

    SEQ_SQL = "SELECT status FROM invoices"
    IDX_SQL = "SELECT balance FROM accounts WHERE org = $1"

    @staticmethod
    def _rows_annotation(lines, node):
        for line in lines:
            if node in line:
                return int(line.split("rows~")[1].split(")")[0])
        raise AssertionError(f"no {node} line in {lines}")

    @staticmethod
    def _cost_annotation(lines, node):
        for line in lines:
            if node in line:
                return int(line.split("cost~")[1].split(" ")[0])
        raise AssertionError(f"no {node} line in {lines}")

    def test_hit_refreshes_rows_and_cost_at_same_anchor(self, db):
        first = explain_lines(db, self.SEQ_SQL)
        assert first[-1] == "Plan Cache: miss"
        assert self._rows_annotation(first, "SeqScan") == 36
        cost_before = self._cost_annotation(first, "SeqScan")
        # Commit stamped at the *current* anchor (block 1): same cache
        # key, but the committed-at-anchor state changed — the validated
        # hit must refresh both annotations.
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, org, "
                        "amount, status) VALUES (99, 1, 'org1', 5.0, 'new')")
        db.apply_commit(tx, block_number=1)
        hit = explain_lines(db, self.SEQ_SQL)
        assert hit[-1] == "Plan Cache: hit"     # DML does not bump version
        assert self._rows_annotation(hit, "SeqScan") == 37
        assert self._cost_annotation(hit, "SeqScan") > cost_before

    def test_height_advance_reanchors_estimates(self, db):
        first = explain_lines(db, self.IDX_SQL, params=("org1",))
        baseline = self._rows_annotation(first, "IndexScan")
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM accounts WHERE acc_id > 4")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        # New anchor → new cache key → fresh plan with fresh estimates.
        fresh = explain_lines(db, self.IDX_SQL, params=("org1",))
        assert fresh[-1] == "Plan Cache: miss"
        assert self._rows_annotation(fresh, "IndexScan") < baseline

    def test_uncommitted_writes_never_move_estimates(self, db):
        """Anchored statistics ignore in-flight transactions — the whole
        point: estimates (and plans) cannot depend on commit
        interleavings other nodes do not observe."""
        first = explain_lines(db, self.SEQ_SQL)
        tx = db.begin(allow_nondeterministic=True)
        for i in range(5):
            run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, "
                            "org, amount, status) "
                            "VALUES ($1, 1, 'org1', 5.0, 'new')",
                    params=(200 + i,))
        during = explain_lines(db, self.SEQ_SQL)
        db.apply_abort(tx, reason="test")
        assert during[:-1] == first[:-1]
        assert self._rows_annotation(during, "SeqScan") == 36

    def test_hit_refresh_matches_fresh_plan(self, db):
        """A cache hit and a cold re-plan must render identical EXPLAIN
        output even after same-anchor stats drift."""
        explain_lines(db, self.SEQ_SQL)         # prime
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, org, "
                        "amount, status) VALUES (98, 2, 'org2', 6.0, 'new')")
        db.apply_commit(tx, block_number=1)
        hit = explain_lines(db, self.SEQ_SQL)
        assert hit[-1] == "Plan Cache: hit"
        db.plan_cache.clear()
        cold = explain_lines(db, self.SEQ_SQL)
        assert hit[:-1] == cold[:-1]            # all but hit/miss line


class TestHitExecutesOnly:
    """A plan-cache hit costs what execution costs: it never consults
    the planner statistics, whatever the block's uncommitted writes do
    to the heap (EXPLAIN is where estimate freshness is paid)."""

    SELECT = "SELECT balance FROM accounts WHERE acc_id = $1"
    SELECT_ORG = "SELECT count(*) FROM accounts WHERE org = $1"
    UPDATE = "UPDATE accounts SET balance = balance + $1 WHERE acc_id = $2"

    def test_a_block_of_cached_statements_leaves_statistics_alone(
            self, db, monkeypatch):
        ndv_scans = []
        original = ColumnStore.distinct_count

        def counting(store, *args, **kwargs):
            ndv_scans.append(args[1])
            return original(store, *args, **kwargs)

        monkeypatch.setattr(ColumnStore, "distinct_count", counting)
        run_tx(db, self.SELECT, params=(1,))         # plan all three
        run_tx(db, self.SELECT_ORG, params=("org1",))
        run_tx(db, self.UPDATE, params=(1.0, 1))
        computations = counter(db, "stats.computations")
        hits = counter(db.plan_cache, "plancache.hits")
        del ndv_scans[:]
        block = []
        for i in range(100):
            # Each transaction stays uncommitted, as in a block's
            # execution phase: every later statement runs over the
            # earlier ones' new versions and delete marks.
            tx = db.begin(allow_nondeterministic=True)
            acc_id = i % 12 + 1
            if i % 2:
                run_sql(db, tx, self.SELECT, params=(acc_id,))
            else:
                run_sql(db, tx, self.SELECT_ORG, params=(f"org{i % 3 + 1}",))
            run_sql(db, tx, self.UPDATE, params=(1.0, acc_id))
            block.append(tx)
        assert counter(db.plan_cache, "plancache.hits") == hits + 200
        assert counter(db, "stats.computations") == computations
        assert ndv_scans == []
        for tx in block:
            db.apply_abort(tx, reason="test")

    def test_explain_pays_for_freshness_instead(self, db):
        """The same churn, then a same-anchor commit: execution hits
        stay blind to it, EXPLAIN of the cached template sees it."""
        first = explain_lines(db, self.SELECT_ORG, params=("org1",))
        assert "rows~4)" in first[-2]
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM accounts WHERE acc_id > 6")
        db.apply_commit(tx, block_number=1)
        computations = counter(db, "stats.computations")
        run_tx(db, self.SELECT_ORG, params=("org1",))
        assert counter(db, "stats.computations") == computations
        hit = explain_lines(db, self.SELECT_ORG, params=("org1",))
        assert hit[-1] == "Plan Cache: hit"
        assert "rows~2)" in hit[-2]
        assert counter(db, "stats.computations") > computations


class TestInvalidation:
    def test_create_index_mid_chain_evicts_and_replans(self, db):
        sql = "SELECT invoice_id FROM invoices WHERE status = $1"
        lines = explain_lines(db, sql, params=("new",))
        assert any("SeqScan on invoices" in l for l in lines)
        explain_lines(db, sql, params=("new",))  # warm the cache

        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE INDEX invoices_status_idx "
                        "ON invoices(status)")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2

        lines = explain_lines(db, sql, params=("new",))
        assert lines[-1] == "Plan Cache: miss"
        assert any("IndexScan on invoices using invoices_status_idx" in l
                   for l in lines)

    def test_create_table_purges_stale_entries(self, db):
        run_tx(db, FIG6_SQL, params=("org1",))
        assert len(db.plan_cache) > 0
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE other (id INT PRIMARY KEY)")
        db.apply_abort(tx, reason="test")
        assert counter(db.plan_cache, "plancache.invalidations") > 0
        assert len(db.plan_cache) == 0

    def test_vacuum_drift_purges_stale_entries(self, db):
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DELETE FROM invoices WHERE org = 'org3'")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 10
        run_tx(db, FIG6_SQL, params=("org1",))
        assert len(db.plan_cache) > 0
        vacuum_database(db, retain_height=5)
        assert len(db.plan_cache) == 0

    def test_null_param_changes_shape_not_correctness(self, db):
        sql = "SELECT acc_id FROM accounts WHERE acc_id = $1"
        result, _ = run_tx(db, sql, params=(3,))
        assert result.rows == [(3,)]
        result, _ = run_tx(db, sql, params=(None,))
        assert result.rows == []  # NULL never equals anything
        result, _ = run_tx(db, sql, params=(5,))
        assert result.rows == [(5,)]

    def test_guard_failure_forces_replan(self, db):
        """Same shape key, structurally different bounds (the CASE folds
        to NULL for some inputs): the guards must catch it and re-plan —
        never execute the stale template."""
        sql = ("SELECT acc_id FROM accounts WHERE acc_id = "
               "CASE WHEN $1 > 5 THEN 1 ELSE NULL END")
        result, _ = run_tx(db, sql, params=(7,))
        assert result.rows == [(1,)]
        lines = explain_lines(db, sql, params=(7,))
        assert any("IndexScan" in l for l in lines)

        result, _ = run_tx(db, sql, params=(3,))   # CASE -> NULL
        assert result.rows == []
        lines = explain_lines(db, sql, params=(3,))
        assert any("SeqScan" in l for l in lines)
        assert counter(db.plan_cache, "plancache.guard_failures") > 0


class TestPlanCacheUnit:
    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for i in range(3):
            cache.store(("k", i), PlanEntry(plan=i, catalog_version=0))
        assert len(cache) == 2
        assert counter(cache, "plancache.evictions") == 1

    def test_fingerprint_memoized_and_stable(self):
        stmt = parse_one("SELECT acc_id FROM accounts WHERE org = $1")
        fp1 = statement_fingerprint(stmt)
        fp2 = statement_fingerprint(stmt)
        assert fp1 is fp2
        # The memo attribute must not leak into the repr-based identity.
        other = parse_sql("SELECT acc_id FROM accounts WHERE org = $1",
                          use_cache=False)[0]
        assert statement_fingerprint(other) == fp1

    def test_parse_cache_returns_shared_tree(self):
        text = "SELECT balance FROM accounts WHERE acc_id = $1"
        first = parse_sql(text)[0]
        second = parse_sql(text)[0]
        assert first is second


class TestGenesisSeedFootprint:
    """A network's nodes share one parse of their multi-row genesis
    seed, and what stays cached is the tree alone: no token list, no
    closure per literal, and not the previous network's tree."""

    ROWS = 6000

    @pytest.fixture(autouse=True)
    def fresh_parse_cache(self):
        clear_parse_cache()
        yield
        clear_parse_cache()

    def seed_sql(self, seed):
        rows = ", ".join(
            f"({i}, {i % 300 + 1}, 'org{i % 3 + 1}', {seed + i}.5, 'new')"
            for i in range(1, self.ROWS + 1))
        return ("CREATE TABLE invoices (invoice_id INT PRIMARY KEY, "
                "acc_id INT NOT NULL, org TEXT NOT NULL, "
                "amount FLOAT NOT NULL, status TEXT NOT NULL); "
                "INSERT INTO invoices (invoice_id, acc_id, org, amount, "
                f"status) VALUES {rows};")

    @staticmethod
    def apply_genesis(text):
        database = Database()
        tx = database.begin(allow_nondeterministic=True)
        run_sql(database, tx, text)
        database.apply_commit(tx, block_number=0)
        return database

    def test_applied_seed_retains_the_tree_only(self):
        text = self.seed_sql(1)
        tracemalloc.start()
        try:
            database = self.apply_genesis(text)
            gc.collect()
            by_file = tracemalloc.take_snapshot().statistics("filename")
        finally:
            tracemalloc.stop()
        assert len(database.catalog.heap_of("invoices")) == self.ROWS
        lexer_bytes = sum(
            stat.size for stat in by_file
            if stat.traceback[0].filename.endswith("sql/lexer.py"))
        assert lexer_bytes < 1 << 20
        insert = parse_sql(text)[1]                  # the cached tree
        literals = [expr for row in insert.rows for expr in row]
        assert len(literals) == 5 * self.ROWS
        assert not any("_compiled" in expr.__dict__ for expr in literals)

    def test_nodes_share_one_parse_and_the_next_network_evicts_it(self):
        text = self.seed_sql(1)
        assert PARSE_CACHE_CHARS / 2 < len(text) < PARSE_CACHE_CHARS
        tree = parse_sql(text)
        for contract in ("SELECT 1", "SELECT 2", "SELECT 3"):
            parse_sql(contract)
        assert parse_sql(text)[1] is tree[1]         # the second node
        assert parse_sql(text)[1] is tree[1]         # the third
        parse_sql(self.seed_sql(2))                  # the next network
        assert parse_sql(text)[1] is not tree[1]

    def test_an_oversized_text_is_still_shared_while_newest(self):
        text = "SELECT 1 /* " + "x" * PARSE_CACHE_CHARS + " */"
        tree = parse_sql(text)
        assert parse_sql(text)[0] is tree[0]
        parse_sql("SELECT 2")
        assert parse_sql(text)[0] is not tree[0]


# ---------------------------------------------------------------------------
# Property: cached and uncached execution are byte-identical
# ---------------------------------------------------------------------------

PROPERTY_QUERIES = [
    "SELECT acc_id, balance FROM accounts WHERE org = $1 ORDER BY acc_id",
    "SELECT acc_id FROM accounts WHERE acc_id = $2",
    FIG6_SQL,
    ("SELECT org, sum(amount) AS total FROM invoices WHERE amount > $2 "
     "GROUP BY org ORDER BY total DESC"),
    ("SELECT a.acc_id FROM accounts a WHERE EXISTS (SELECT 1 FROM "
     "invoices i WHERE i.acc_id = a.acc_id AND i.org = $1)"),
    ("SELECT invoice_id FROM invoices WHERE acc_id BETWEEN $2 AND 9 "
     "ORDER BY invoice_id LIMIT 4"),
    "SELECT count(*) FROM invoices WHERE org = $1 AND amount > $2",
]


def siread_state(tx):
    """The SIREAD set: the predicate reads, in recording order."""
    return [(p.table, tuple(p.columns), p.low_key, p.high_key,
             p.low_inclusive, p.high_inclusive)
            for p in tx.predicate_reads]


class TestCachedVsUncachedProperty:
    @settings(max_examples=40, deadline=None)
    @given(query=st.sampled_from(PROPERTY_QUERIES),
           org=st.sampled_from(["org1", "org2", "org9", None]),
           number=st.sampled_from([0, 3, 7, 25, None]))
    def test_rows_siread_and_explain_identical(self, query, org, number):
        db = getattr(self, "_db", None)
        if db is None:
            db = self._db = build_db()
        params = (org, number)
        first, tx1 = run_tx(db, query, params=params)    # miss (or guard)
        second, tx2 = run_tx(db, query, params=params)   # warm
        assert first.rows == second.rows
        assert first.columns == second.columns
        assert siread_state(tx1) == siread_state(tx2)
        # EXPLAIN output (minus the cache annotation) is plan-identical.
        explain1 = explain_lines(db, query, params=params)[:-1]
        explain2 = explain_lines(db, query, params=params)[:-1]
        assert explain1 == explain2

    @settings(max_examples=20, deadline=None)
    @given(query=st.sampled_from(PROPERTY_QUERIES),
           org=st.sampled_from(["org1", "org3", None]),
           number=st.sampled_from([1, 11, None]))
    def test_warm_cache_matches_fresh_database(self, query, org, number):
        """A warm-cache run on one node equals a cold run on an identical
        replica — the cross-node determinism requirement."""
        warm = getattr(self, "_warm_db", None)
        if warm is None:
            warm = self._warm_db = build_db()
        cold = build_db()
        params = (org, number)
        run_tx(warm, query, params=params)               # prime
        warm_result, warm_tx = run_tx(warm, query, params=params)
        cold_result, cold_tx = run_tx(cold, query, params=params)
        assert warm_result.rows == cold_result.rows
        assert siread_state(warm_tx) == siread_state(cold_tx)
        assert explain_lines(warm, query, params=params)[:-1] == \
            explain_lines(cold, query, params=params)[:-1]
