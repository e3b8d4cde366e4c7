"""Property tests: the encoded replica ≡ the row store, byte for byte.

The encoding contract (docs/analytics.md): dictionary / RLE / typed
vectors are invisible above the store.  Every sealed chunk encodes, so
the reference is the row store itself (``row_store_as_of``): the same
``AS OF`` statement served by the replica and by heap scans must give

* byte-identical query results at every height (floats included),
* identical SSI state (empty — AS OF reads record nothing), and
* the same ``EXPLAIN ANALYZE`` actual row count at the plan root,

across the full chunk lifecycle: seal → late deleter stamps on sealed
chunks → compaction of encoded chunks → crash-style ``mark_stale()``
rebuild.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.errors import ExecutionError
from tests.conftest import counter, row_store_as_of, same_outcome

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
    "SELECT sum(v), count(*), min(v), max(v) FROM t AS OF BLOCK $1",
    "SELECT grp, sum(v), count(*) FROM t GROUP BY grp ORDER BY grp "
    "AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE grp = 'g1' AS OF BLOCK $1",
    "SELECT count(*), sum(v) FROM t WHERE grp IN ('g1', 'g3') "
    "AS OF BLOCK $1",
    "SELECT count(*), min(v) FROM t WHERE grp LIKE 'g_' AS OF BLOCK $1",
    "SELECT count(*) FROM t WHERE grp NOT LIKE 'g2%' AS OF BLOCK $1",
    "SELECT grp, max(v) FROM t WHERE id <= 3 GROUP BY grp "
    "ORDER BY grp DESC AS OF BLOCK $1",
]

# The plan root's actual row count in EXPLAIN ANALYZE output.
_ROOT_ROWS = re.compile(r"\(actual rows=(\d+) ")


def root_rows(result):
    return int(_ROOT_ROWS.search(result.rows[0][0]).group(1))


def build_history(blocks, compact_every=None):
    """One database fed ``blocks``; ``compact_every`` lowers the
    compaction cadence so short histories compact sealed (encoded)
    chunks."""
    db = Database()
    if compact_every is not None:
        db.columnstore.compact_every = compact_every
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


_PRUNING_KEYS = ("chunks_pruned", "chunks_scanned", "zone_only_chunks")


def pruning_counters(db):
    return {k: counter(db.columnstore, "columnstore." + k)
            for k in _PRUNING_KEYS}


def row_store_as_of_run(db, sql, height):
    """The reference leg: ``sql`` at ``height`` through heap scans."""
    with row_store_as_of(db):
        return run_as_of(db, sql, height)


class TestEncodingEquivalence:
    @given(operations, st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_encoded_replica_matches_row_store_at_every_height(
            self, blocks, height_pick, query_pick):
        db, committed = build_history(blocks)
        height = min(height_pick, committed)
        sql = QUERIES[query_pick]

        enc, enc_ssi = run_as_of(db, sql, height)
        scanned = pruning_counters(db)
        ref, ref_ssi = row_store_as_of_run(db, sql, height)

        assert enc.columns == ref.columns
        assert enc.rows == ref.rows
        assert enc_ssi == ()
        assert ref_ssi == ()
        # The reference leg really is the row store: it reads no chunk.
        assert pruning_counters(db) == scanned

    @given(operations, st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_explain_analyze_rows_match_row_store(self, blocks,
                                                  query_pick):
        """EXPLAIN ANALYZE over encoded chunks counts, at the plan root,
        the rows the row store returns — and its own plan agrees."""
        db, committed = build_history(blocks)
        sql = QUERIES[query_pick]
        expected = len(row_store_as_of_run(db, sql, committed)[0].rows)

        enc, _ = run_as_of(db, "EXPLAIN ANALYZE " + sql, committed)
        assert "Columnar" in "".join(row[0] for row in enc.rows)
        assert root_rows(enc) == expected
        ref, _ = row_store_as_of_run(db, "EXPLAIN ANALYZE " + sql,
                                     committed)
        assert root_rows(ref) == expected

    @given(operations, st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lifecycle_compact_and_rebuild(self, blocks, query_pick):
        """seal → late deleter stamps → compaction (cadence 2, so short
        histories hit it) → crash-style mark_stale() rebuild: every
        stage preserves byte identity with the row store."""
        db, committed = build_history(blocks, compact_every=2)
        sql = QUERIES[query_pick]
        reference = [row_store_as_of_run(db, sql, height)[0].rows
                     for height in range(committed + 1)]

        for height in range(committed + 1):
            enc, enc_ssi = run_as_of(db, sql, height)
            assert enc.rows == reference[height]
            assert enc_ssi == ()

        # Crash-style recovery: the replica drops its chunks and
        # rebuilds from the heap; chunks re-encode on seal.
        db.columnstore.mark_stale()
        for height in range(committed + 1):
            enc, _ = run_as_of(db, sql, height)
            assert enc.rows == reference[height]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=25))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_float_payloads_bit_identical(self, values):
        """Typed float arrays round-trip exactly: sums/avgs over an
        encoded chunk are the same bytes the row store produces."""
        db = Database()
        setup = db.begin(allow_nondeterministic=True)
        run_sql(db, setup, "CREATE TABLE f (id INT PRIMARY KEY, v FLOAT)")
        for i, value in enumerate(values):
            run_sql(db, setup, "INSERT INTO f (id, v) VALUES ($1, $2)",
                    params=(i, value))
        db.apply_commit(setup, block_number=1)
        db.committed_height = 1
        db.columnstore.on_block(db, 1)
        sql = ("SELECT sum(v), avg(v), min(v), max(v), v FROM f "
               "GROUP BY v ORDER BY v AS OF BLOCK $1")
        results = []
        for run in (run_as_of, row_store_as_of_run):
            try:
                results.append(run(db, sql, 1)[0].rows)
            except ExecutionError as exc:   # a sum out of float range
                results.append(str(exc))
        assert same_outcome(*results)
