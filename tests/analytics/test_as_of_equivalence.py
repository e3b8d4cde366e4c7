"""Property tests: AS OF columnar execution ≡ row-store execution.

The acceptance bar for the analytics subsystem: a `SELECT ... AS OF
BLOCK h` served by the columnar replica returns byte-identical results
to the same statement executed against the row store with
``BlockSnapshot(h)`` visibility (the columnstore-disabled fallback runs
exactly that path).  This includes float ``sum``/``avg``: both paths
share the order-independent ``fold_sum`` (``math.fsum`` for floats), so
totals cannot depend on which store served the read.

Also pinned here: AS OF executions record *no* SSI state (no SIREAD
rows, no predicate reads) on either path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import row_store_as_of, same_outcome

KEYS = list(range(6))
GROUPS = ["g1", "g2", "g3"]

operations = st.lists(                       # blocks
    st.lists(                                # operations per block
        st.tuples(st.sampled_from(["upsert", "delete"]),
                  st.sampled_from(KEYS),
                  st.integers(min_value=-50, max_value=50)),
        min_size=1, max_size=4),
    min_size=1, max_size=5)

QUERIES = [
    "SELECT id, grp, v FROM t AS OF BLOCK $1",
    "SELECT id, v FROM t WHERE v > 0 AS OF BLOCK $1",
    "SELECT id FROM t WHERE id BETWEEN 1 AND 4 AS OF BLOCK $1",
    "SELECT sum(v), count(*), min(v), max(v) FROM t AS OF BLOCK $1",
    "SELECT sum(v), count(v) FROM t WHERE v >= -10 AS OF BLOCK $1",
    "SELECT grp, sum(v), count(*) FROM t GROUP BY grp ORDER BY grp "
    "AS OF BLOCK $1",
    "SELECT grp, max(v) FROM t WHERE id <= 3 GROUP BY grp "
    "ORDER BY grp DESC AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE grp = 'g1' AS OF BLOCK $1",
    # IN-list and LIKE / NOT LIKE vector predicates (aggregate fast
    # path) must match the row store's three-valued logic exactly.
    "SELECT count(*), sum(v) FROM t WHERE grp IN ('g1', 'g3') "
    "AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE id IN (0, 2, 4) AS OF BLOCK $1",
    "SELECT count(*), min(v) FROM t WHERE grp LIKE 'g_' AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE grp LIKE 'g1%' AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE grp NOT LIKE 'g2%' AS OF BLOCK $1",
]


def build_history(blocks):
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup,
            "CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, v INT)")
    db.apply_commit(setup, block_number=0)
    height = 0
    for ops in blocks:
        height += 1
        tx = db.begin(allow_nondeterministic=True)
        for action, key, value in ops:
            exists = run_sql(
                db, tx, "SELECT id FROM t WHERE id = $1",
                params=(key,)).rows
            if action == "delete":
                run_sql(db, tx, "DELETE FROM t WHERE id = $1",
                        params=(key,))
            elif exists:
                run_sql(db, tx,
                        "UPDATE t SET v = $2, grp = $3 WHERE id = $1",
                        params=(key, value, GROUPS[abs(value) % 3]))
            else:
                run_sql(db, tx,
                        "INSERT INTO t (id, grp, v) VALUES ($1, $2, $3)",
                        params=(key, GROUPS[abs(value) % 3], value))
        db.apply_commit(tx, block_number=height)
        db.committed_height = height
        db.columnstore.on_block(db, height)
    return db, height


def run_as_of(db, sql, height):
    tx = db.begin(allow_nondeterministic=True, read_only=True)
    try:
        result = run_sql(db, tx, sql, params=(height,))
        ssi_state = tuple(tx.predicate_reads)
        return result, ssi_state
    finally:
        db.apply_abort(tx, reason="read-only")


def outcome(db, sql, height):
    """What a reader sees: the rows, or the engine's error (a float sum
    can be out of range)."""
    try:
        return run_as_of(db, sql, height)[0].rows
    except ExecutionError as exc:
        return str(exc)


class TestAsOfEquivalence:
    @given(operations, st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_columnar_matches_rowstore_at_every_height(
            self, blocks, height_pick, query_pick):
        db, committed = build_history(blocks)
        height = min(height_pick, committed)
        sql = QUERIES[query_pick]

        columnar, columnar_ssi = run_as_of(db, sql, height)
        with row_store_as_of(db):
            rowstore, rowstore_ssi = run_as_of(db, sql, height)

        assert columnar.columns == rowstore.columns
        assert columnar.rows == rowstore.rows
        # Time travel reads immutable state: no SSI bookkeeping on
        # either path.
        assert columnar_ssi == ()
        assert rowstore_ssi == ()

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_float_aggregates_bit_identical_across_stores(self, values):
        """Float sums fold with math.fsum on both paths — exactly
        rounded, so the bytes match no matter which store (or which
        physical ingest order) served the read; min / max fold under
        one total order (NaN above every number), so neither do they."""
        db = Database()
        setup = db.begin(allow_nondeterministic=True)
        run_sql(db, setup,
                "CREATE TABLE f (id INT PRIMARY KEY, v FLOAT)")
        for i, value in enumerate(values):
            run_sql(db, setup,
                    "INSERT INTO f (id, v) VALUES ($1, $2)",
                    params=(i, value))
        db.apply_commit(setup, block_number=1)
        db.committed_height = 1
        db.columnstore.on_block(db, 1)
        sql = "SELECT sum(v), avg(v), min(v), max(v) FROM f AS OF BLOCK $1"
        columnar = outcome(db, sql, 1)
        with row_store_as_of(db):
            rowstore = outcome(db, sql, 1)
        assert same_outcome(columnar, rowstore)  # exact, not approx

    @given(operations)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_as_of_latest_matches_plain_select(self, blocks):
        db, committed = build_history(blocks)
        pinned, _ = run_as_of(
            db, "SELECT id, grp, v FROM t AS OF LATEST", committed)
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            plain = run_sql(db, tx, "SELECT id, grp, v FROM t")
        finally:
            db.apply_abort(tx, reason="read-only")
        assert pinned.rows == plain.rows

    @given(operations, st.integers(min_value=0, max_value=5))
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_cached_as_of_template_is_height_free(self, blocks, height_pick):
        """One cached template serves every height (the height is NOT in
        the cache key): a warm hit at height h-1, right after executing
        at h, must return exactly what an uncached row-store execution
        at h-1 returns — never h's rows."""
        db, committed = build_history(blocks)
        height = min(height_pick, committed)
        lower = max(0, height - 1)
        sql = "SELECT grp, sum(v), count(*) FROM t GROUP BY grp " \
              "ORDER BY grp AS OF BLOCK $1"
        first, _ = run_as_of(db, sql, height)     # plants the template
        again, _ = run_as_of(db, sql, height)     # warm hit, same height
        assert first.rows == again.rows
        cached_lower, _ = run_as_of(db, sql, lower)  # warm hit, h-1
        with row_store_as_of(db):
            reference_lower, _ = run_as_of(db, sql, lower)
        assert cached_lower.rows == reference_lower.rows
