"""The row store's batch read path (docs/sql_engine.md, "The read path").

* HashAggregate folds with the kernels ``ColumnarAggregate`` uses: over
  row-store input it must return what
  ``tests/analytics/test_aggregate_kernels.py``'s ``LoopAggregate`` — the
  per-offset interpreter — returns over the replica of the same rows,
  and its two ways of gathering a column (one lookup per row, or the
  compiled closures) must agree;
* a nested-loop join pays the probe prologue once but still records one
  predicate read per outer row, in outer order, and a concurrent insert
  into one probed range still aborts the reader;
* a Sort under ``LIMIT k`` keeps the first ``k`` rows of the full sort,
  ties, NULLs and NaN included, and under LIMIT 0 still runs the scans
  beneath it.
"""

from math import inf, nan

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.sql.plan as plan_module
from repro.errors import (MissingIndexError, ReproError,
                          SerializationFailure)
from repro.mvcc.database import Database
from repro.mvcc.ssi import AbortDuringCommitSSI
from repro.mvcc.transaction import PredicateRead, WriteSetEntry
from repro.sql.executor import run_sql
from tests.analytics.test_aggregate_kernels import CountedLoop, loop_oracle
from tests.sql.test_planner import APPENDIX_A_SCHEMA, FIG6_SQL


# ---------------------------------------------------------------------------
# HashAggregate against the LoopAggregate oracle, on row-store input
# ---------------------------------------------------------------------------

COLUMNS = ("id", "g", "n", "f")
#: ``n`` is declared INT and ``f`` FLOAT, but the heap is fed directly,
#: so ``n`` mixes ints, floats (``1`` next to ``1.0``) and booleans.
N_POOL = [None, -1, 0, 1, 1.0, 2, 2.5, -0.5, True, False]
F_POOL = [None, 0.0, -0.0, 1.5, -2.5, 2.0, inf, -inf, nan, 1e-300]
G_POOL = [None, "g1", "g2", "g3"]


@st.composite
def histories(draw):
    row = st.tuples(st.just("row"), st.sampled_from(G_POOL),
                    st.sampled_from(N_POOL), st.sampled_from(F_POOL))
    delete = st.tuples(st.just("delete"), st.integers(1, 40))
    return draw(st.lists(st.lists(st.one_of(row, row, row, delete),
                                  max_size=8),
                         min_size=1, max_size=4))


def build(history) -> Database:
    """A database whose heap holds ``history``, one block per entry;
    the replica ingests the same versions from the commits."""
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, "CREATE TABLE k (id INT PRIMARY KEY, g TEXT, "
                       "n INT, f FLOAT)")
    db.apply_commit(setup, block_number=0)
    heap = db.catalog.heap_of("k")
    next_id = 1
    for height, ops in enumerate(history, 1):
        tx = db.begin(allow_nondeterministic=True)
        for op in ops:
            if op[0] == "delete":
                run_sql(db, tx, "DELETE FROM k WHERE id = $1",
                        params=(op[1],))
                continue
            g, n, f = op[1:]
            # A NaN of its own per row, as arithmetic makes them.
            f = f * 1.0 if type(f) is float else f
            version = heap.insert_version(
                dict(zip(COLUMNS, (next_id, g, n, f))), tx.xid)
            tx.record_write(WriteSetEntry(table="k", kind="insert",
                                          new_version=version))
            next_id += 1
        db.apply_commit(tx, block_number=height)
        db.committed_height = height
        db.columnstore.on_block(db, height)
    return db


AGGREGATES = ["count(*)", "count(n)", "sum(n)", "avg(n)", "min(n)",
              "max(n)", "sum(f)", "avg(f)", "min(f)", "max(f)",
              "count(g)", "min(g)", "max(g)"]
GROUPS = [(), ("g",), ("n",), ("f",), ("g", "n")]
PREDICATES = ["n > 0", "n <= 1", "f BETWEEN -3 AND 2", "f < 1",
              "g IN ('g1', 'g3')", "g LIKE 'g%'", "g >= 'g2'"]


@st.composite
def queries(draw):
    """``(group columns, aggregates, WHERE conjuncts)``."""
    return (draw(st.sampled_from(GROUPS)),
            draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                          max_size=4, unique=True)),
            draw(st.lists(st.sampled_from(PREDICATES), max_size=2,
                          unique=True)))


def select(group, aggregates, where, tail=""):
    sql = "SELECT " + ", ".join(group + tuple(aggregates)) + " FROM k"
    if where:
        sql += " WHERE " + " AND ".join(where)
    if group:
        sql += " GROUP BY " + ", ".join(group)
    sql += tail
    if group:
        sql += " ORDER BY " + ", ".join(group)
    return sql


def same(value):
    """What a value is compared as: ``=``'s equal (``1`` is ``1.0`` and
    ``TRUE``; ``-0.0`` is ``0.0``), NaN equal to itself."""
    return ("NaN",) if value != value else value


def answer(db, sql, params=()):
    """The rows of one read-only execution, or the error it raised."""
    tx = db.begin(allow_nondeterministic=True, read_only=True)
    try:
        rows = run_sql(db, tx, sql, params=params).rows
        return [tuple(map(same, row)) for row in rows]
    except ReproError as exc:
        return type(exc).__name__
    finally:
        db.apply_abort(tx, reason="read-only")


def oracle(db, sql):
    """``sql`` over the replica at the top height, planned as the loop."""
    with loop_oracle(db):
        before = CountedLoop.executions
        rows = answer(db, sql + " AS OF BLOCK $1", (db.committed_height,))
        assert CountedLoop.executions > before
    return rows


#: NaN twice (two objects), ``1`` / ``1.0`` / ``TRUE`` in one group,
#: ``0.0`` next to ``-0.0``, NULLs in every column.
MIXED = [[("row", "g1", 1, nan), ("row", "g2", 1.0, nan),
          ("row", None, True, 0.0), ("row", "g1", 2.5, -0.0),
          ("row", "g2", None, None), ("row", "g3", 0, 1.5)]]


class TestHashAggregateAgainstTheLoop:
    @given(histories(), queries())
    @example(MIXED, (("f",), ["count(*)", "sum(n)", "min(g)"], []))
    @example(MIXED, (("n",), ["count(f)", "max(f)", "avg(n)"], []))
    @example(MIXED, (("g", "n"), ["max(g)", "sum(f)"], ["n <= 1"]))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_rows_as_the_loop(self, history, query):
        db = build(history)
        group, aggregates, where = query
        sql = select(group, aggregates, where)
        db.plan_cache.clear()
        assert answer(db, sql) == oracle(db, sql)

    @given(histories(), queries())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_having_keeps_the_loops_groups_it_passes(self, history, query):
        db = build(history)
        group, aggregates, where = query
        having = select(group, aggregates, where,
                        tail=" HAVING count(*) > 1")
        counted = oracle(db, select(group, aggregates + ["count(*)"],
                                    where))
        assert answer(db, having) == [row[:-1] for row in counted
                                      if row[-1] > 1]

    @given(histories(), st.sampled_from(GROUPS[:3]),
           st.sampled_from(["n", "f", "g"]))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_count_distinct_counts_the_loops_groups(self, history, group,
                                                    column):
        """``count(DISTINCT x)`` per group is the number of non-NULL
        ``x`` groups under it: ``1`` and ``1.0`` one value, NaN one."""
        db = build(history)
        got = answer(db, select(group, [f"count(DISTINCT {column})"], []))
        sub = oracle(db, select(group + (column,), ["count(*)"], []))
        expected = {}
        for row in sub:
            key = row[:len(group)]
            expected.setdefault(key, 0)
            expected[key] += row[len(group)] is not None
        if not group and not expected:
            expected[()] = 0        # a global aggregate over no row
        assert got == [key + (count,) for key, count in expected.items()]

    @given(histories(), queries())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_both_gathers_agree(self, history, query):
        """A bound column read by lookup and by its compiled closure
        gives the same rows (or the same error)."""
        db = build(history)
        sql = select(*query)
        db.plan_cache.clear()
        by_lookup = answer(db, sql)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(plan_module, "_bound_ref",
                          lambda expr, binder: None)
            db.plan_cache.clear()
            by_closure = answer(db, sql)
        db.plan_cache.clear()
        assert by_lookup == by_closure

    def test_empty_input(self):
        db = build([[]])
        assert answer(db, "SELECT count(*), sum(n), min(g) FROM k") == \
            [(0, None, None)]
        assert answer(db, "SELECT g, count(*) FROM k GROUP BY g") == []


# ---------------------------------------------------------------------------
# The nested-loop probe: one prologue, one predicate read per outer row
# ---------------------------------------------------------------------------

@pytest.fixture
def appendix_a_db():
    """tests/sql/test_planner.py's seed: 12 accounts over 3 orgs, 36
    invoices, 3 per account."""
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, APPENDIX_A_SCHEMA)
    for i in range(12):
        run_sql(db, tx, "INSERT INTO accounts (acc_id, org, balance) "
                        "VALUES ($1, $2, 100.0)",
                params=(i + 1, f"org{i % 3 + 1}"))
    for i in range(36):
        run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, org, "
                        "amount, status) VALUES ($1, $2, $3, $4, 'new')",
                params=(i + 1, i % 12 + 1, f"org{i % 3 + 1}",
                        float(10 + i)))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


def fig6(db, tx, org="org1"):
    return run_sql(db, tx, FIG6_SQL, params=(org,)).rows


class TestProbe:
    def test_predicate_reads_of_the_complex_join(self, appendix_a_db):
        db = appendix_a_db
        tx = db.begin(allow_nondeterministic=True)
        assert fig6(db, tx) == [(sum(10.0 + i for i in range(36)
                                     if i % 12 % 3 == 0), 12)]
        db.apply_abort(tx, reason="test")
        org1 = (3, "org1")
        assert tx.predicate_reads == [
            PredicateRead("accounts", ("org",), org1, org1, True, True),
        ] + [PredicateRead("invoices", ("acc_id",), (1, acc), (1, acc),
                           True, True) for acc in (1, 4, 7, 10)]

    @pytest.mark.parametrize("acc_id, aborts", [(4, True), (2, False)])
    def test_a_committed_insert_in_a_probed_range_is_a_phantom(
            self, appendix_a_db, acc_id, aborts):
        """Below the committed height, the probe's window check sees a
        row created in one probed ``acc_id`` range (account 4 is org1's,
        account 2 is not)."""
        db = appendix_a_db
        reader = db.begin_at_height(1, allow_nondeterministic=True)
        writer = db.begin(allow_nondeterministic=True)
        run_sql(db, writer, "INSERT INTO invoices (invoice_id, acc_id, "
                            "org, amount, status) VALUES (99, $1, 'org1', "
                            "1.0, 'new')", params=(acc_id,))
        db.apply_commit(writer, block_number=2)
        db.committed_height = 2
        if not aborts:
            assert fig6(db, reader)[0][1] == 12
            return
        with pytest.raises(SerializationFailure) as caught:
            fig6(db, reader)
        assert caught.value.reason == "phantom-read"

    def test_a_committed_insert_in_a_probed_range_aborts_the_pivot(
            self, appendix_a_db):
        """Figure 2(c) with the complex join as the read: T reads
        account 4's invoices through a probe and writes account 2; O
        inserts an invoice of account 4 and commits; N reads account
        2.  T is a pivot with a committed out-conflict."""
        db = appendix_a_db
        t = db.begin(allow_nondeterministic=True)
        fig6(db, t)
        run_sql(db, t, "UPDATE accounts SET balance = 1.0 "
                       "WHERE acc_id = 2")
        o = db.begin(allow_nondeterministic=True)
        run_sql(db, o, "INSERT INTO invoices (invoice_id, acc_id, org, "
                       "amount, status) VALUES (99, 4, 'org1', 1.0, 'new')")
        n = db.begin(allow_nondeterministic=True)
        run_sql(db, n, "SELECT balance FROM accounts WHERE acc_id = 2; "
                       "UPDATE accounts SET balance = 2.0 "
                       "WHERE acc_id = 3")
        validator = AbortDuringCommitSSI(db)
        validator.validate(o, candidates=[t, n])
        db.apply_commit(o, block_number=2)
        with pytest.raises(SerializationFailure) as caught:
            validator.validate(t, candidates=[o, n])
        assert caught.value.reason == "pivot-committed-out"


# ---------------------------------------------------------------------------
# Sort under LIMIT k
# ---------------------------------------------------------------------------

@pytest.fixture
def sort_db():
    """Ties on ``x`` (and on ``x, t``), NULLs, NaN and infinities."""
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, "CREATE TABLE s (id INT PRIMARY KEY, x FLOAT, t TEXT)")
    xs = [1.0, None, nan, 1.0, -inf, 2.0, nan, None, 1.0, inf, 0.0, -0.0]
    for i, x in enumerate(xs, 1):
        run_sql(db, tx, "INSERT INTO s (id, x, t) VALUES ($1, $2, $3)",
                params=(i, x, "ab"[i % 2]))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    return db


def shown(rows):
    return [tuple(repr(v) for v in row) for row in rows]


def sort_rows(db, sql, params=()):
    """(rows, the Sort's actual row count) of one execution."""
    tx = db.begin(allow_nondeterministic=True)
    rows = run_sql(db, tx, sql, params=params).rows
    lines = [r[0] for r in run_sql(db, tx, "EXPLAIN ANALYZE " + sql,
                                   params=params).rows]
    db.apply_abort(tx, reason="test")
    sort_line, = [line for line in lines
                  if line.lstrip(" ->").startswith("Sort (")]
    return shown(rows), int(sort_line.split("actual rows=")[1].split()[0])


class TestSortUnderLimit:
    ORDERS = ["x", "x DESC", "x, t", "x DESC, t DESC", "t, x"]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("limit, offset", [(0, 0), (1, 0), (3, 0),
                                               (3, 2), (5, 7), (20, 0),
                                               (2, 20)])
    def test_first_rows_of_the_full_sort(self, sort_db, order, limit,
                                         offset):
        base = f"SELECT id, x, t FROM s ORDER BY {order}"
        full, full_kept = sort_rows(sort_db, base)
        assert full_kept == len(full) == 12
        rows, kept = sort_rows(sort_db, f"{base} LIMIT {limit} "
                                        f"OFFSET {offset}")
        assert rows == full[offset:offset + limit]
        assert kept == (min(offset + limit, 12) if limit else 12)

    @pytest.mark.parametrize("tail, params", [(" LIMIT 0", ()),
                                              (" LIMIT $1", (0,))])
    def test_limit_zero_still_runs_the_scan(self, appendix_a_db, tail,
                                            params):
        """A Sort under LIMIT 0 keeps no row but drains its input: the
        scan beneath still records its predicate read, and under
        ``require_index`` an unindexed predicate still aborts."""
        db = appendix_a_db
        tx = db.begin(allow_nondeterministic=True)
        sql = "SELECT * FROM invoices WHERE org = 'org1' ORDER BY amount"
        assert run_sql(db, tx, sql + tail, params=params).rows == []
        db.apply_abort(tx, reason="test")
        org1 = (3, "org1")
        assert tx.predicate_reads == [
            PredicateRead("invoices", ("org",), org1, org1, True, True)]
        tx = db.begin(allow_nondeterministic=True, require_index=True)
        with pytest.raises(MissingIndexError):
            run_sql(db, tx, "SELECT * FROM invoices WHERE amount > 5.0 "
                            "ORDER BY amount" + tail, params=params)
        db.apply_abort(tx, reason="test")

    def test_a_parameter_limit_keeps_k_rows(self, sort_db):
        base = "SELECT id FROM s ORDER BY x"
        full, _ = sort_rows(sort_db, base)
        rows, kept = sort_rows(sort_db, base + " LIMIT $1", params=(4,))
        assert (rows, kept) == (full[:4], 4)

    @pytest.mark.parametrize("tail", [" LIMIT 1 + 1", " LIMIT NULL",
                                      " OFFSET 2"])
    def test_other_limits_sort_everything(self, sort_db, tail):
        base = "SELECT id FROM s ORDER BY x"
        full, _ = sort_rows(sort_db, base)
        rows, kept = sort_rows(sort_db, base + tail)
        assert kept == 12
        assert rows == {" LIMIT 1 + 1": full[:2], " LIMIT NULL": full,
                        " OFFSET 2": full[2:]}[tail]

    def test_distinct_sorts_everything(self, sort_db):
        """DISTINCT runs between the Sort and the Limit: the Sort
        cannot know how many rows the Limit will see."""
        rows, kept = sort_rows(sort_db, "SELECT DISTINCT t FROM s "
                                        "ORDER BY t LIMIT 1")
        assert (rows, kept) == ([("'a'",)], 12)
