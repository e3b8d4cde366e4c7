"""Property tests: encoded chunks ≡ plain chunks, byte for byte.

The encoding contract (docs/analytics.md): dictionary / RLE / typed
vectors are invisible above the store.  The same block history ingested
into an encoding replica and an encoding-disabled replica must produce

* byte-identical query results at every height (floats included),
* identical SSI state (empty — AS OF reads record nothing),
* identical zone-map pruning decisions (the pruned/scanned/zone-only
  counters move by the same deltas — zones stay in value space), and
* identical ``EXPLAIN`` / ``EXPLAIN ANALYZE`` output (wall-clock
  fields masked, row counts exact),

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
from tests.conftest import counter, same_outcome

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

# Wall-clock fields of EXPLAIN ANALYZE output; everything else —
# operator tree, cost~/rows~ annotations, actual row counts, loop
# counts, cache-hit lines — must match exactly.
_TIME_FIELDS = re.compile(
    r"time=[0-9.]+ms|(Planning|Execution) Time: [0-9.]+ ms")


def masked(rows):
    return [tuple(_TIME_FIELDS.sub("time=<t>", cell) for cell in row)
            for row in rows]


def build_history(blocks, encode, compact_every=None):
    """One replica fed ``blocks``; ``encode`` toggles chunk encoding,
    ``compact_every`` lowers the compaction cadence so short histories
    compact sealed (encoded) chunks."""
    db = Database()
    db.columnstore.encode = encode
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


def pruning_deltas(db, sql, height):
    """The query's result plus how far each pruning counter moved."""
    before = pruning_counters(db)
    result, ssi = run_as_of(db, sql, height)
    after = pruning_counters(db)
    return result, ssi, {k: after[k] - before[k] for k in _PRUNING_KEYS}


class TestEncodingEquivalence:
    @given(operations, st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_encoded_matches_plain_at_every_height(
            self, blocks, height_pick, query_pick):
        encoded_db, committed = build_history(blocks, encode=True)
        plain_db, _ = build_history(blocks, encode=False)
        height = min(height_pick, committed)
        sql = QUERIES[query_pick]

        enc, enc_ssi, enc_prune = pruning_deltas(encoded_db, sql, height)
        pla, pla_ssi, pla_prune = pruning_deltas(plain_db, sql, height)

        assert enc.columns == pla.columns
        assert enc.rows == pla.rows
        assert enc_ssi == ()
        assert pla_ssi == ()
        # Zone maps stay in value space, so both replicas prune (and
        # zone-answer) exactly the same chunks.
        assert enc_prune == pla_prune

    @given(operations, st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_explain_identical_across_encodings(self, blocks, query_pick):
        """Encoding is invisible to the planner's rendered output: both
        EXPLAIN and EXPLAIN ANALYZE (times masked) match line for line,
        including actual row counts."""
        encoded_db, committed = build_history(blocks, encode=True)
        plain_db, _ = build_history(blocks, encode=False)
        sql = QUERIES[query_pick]

        for prefix in ("EXPLAIN ", "EXPLAIN ANALYZE "):
            enc, _ = run_as_of(encoded_db, prefix + sql, committed)
            pla, _ = run_as_of(plain_db, prefix + sql, committed)
            assert masked(enc.rows) == masked(pla.rows)

    @given(operations, st.integers(min_value=0, max_value=len(QUERIES) - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_lifecycle_compact_and_rebuild(self, blocks, query_pick):
        """seal → late deleter stamps → compaction (cadence 2, so short
        histories hit it) → crash-style mark_stale() rebuild: every
        stage preserves byte identity with the plain replica."""
        encoded_db, committed = build_history(blocks, encode=True,
                                              compact_every=2)
        plain_db, _ = build_history(blocks, encode=False,
                                    compact_every=2)
        sql = QUERIES[query_pick]

        for height in range(committed + 1):
            enc, enc_ssi = run_as_of(encoded_db, sql, height)
            pla, _ = run_as_of(plain_db, sql, height)
            assert enc.rows == pla.rows
            assert enc_ssi == ()

        # Crash-style recovery: both replicas drop their chunks and
        # rebuild from the heap; encoded chunks re-encode on seal.
        encoded_db.columnstore.mark_stale()
        plain_db.columnstore.mark_stale()
        for height in range(committed + 1):
            enc, _ = run_as_of(encoded_db, sql, height)
            pla, _ = run_as_of(plain_db, sql, height)
            assert enc.rows == pla.rows

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=25))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_float_payloads_bit_identical(self, values):
        """Typed float arrays round-trip exactly: sums/avgs over an
        encoded chunk are the same bytes the plain list produces."""
        results = []
        for encode in (True, False):
            db = Database()
            db.columnstore.encode = encode
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
            try:
                results.append(run_as_of(
                    db, "SELECT sum(v), avg(v), min(v), max(v), v FROM f "
                        "GROUP BY v ORDER BY v AS OF BLOCK $1", 1)[0].rows)
            except ExecutionError as exc:   # a sum out of float range
                results.append(str(exc))
        assert same_outcome(*results)
