"""Cost-based optimizer: skewed-join and Limit-streaming speedups.

Two real-engine microbenchmarks compare the cost-based planner against
the legacy structural rules (``tests.conftest.structural_planning`` —
the pre-optimizer behaviour, which always hashed equi-joins and always
materialized-and-sorted ORDER BY ... LIMIT pipelines; ``src/`` runs
those rules only under ``tx.require_index`` and has no switch):

* **skewed-build-side join** — a small filtered outer (one region of
  orgs) joining a large events table.  The structural planner builds a
  hash over all N event rows per execution (its only exception was
  unique point lookups); the cost model sees the anchored NDV estimates
  (outer ~orgs/regions rows, ~N/ndv(org_id) rows per probe) and picks
  per-outer-row index probes instead.
* **Limit-over-index pipeline** — ``ORDER BY pk LIMIT k`` over the same
  table.  The structural pipeline scans, content-sorts, Sort-sorts and
  then slices; the cost-based pipeline streams an IndexOrderScan into a
  StreamingLimit and reads only the k rows it emits.

Acceptance gate: the cost-based plan must be at least 1.5x faster on
both shapes.  The measured ratios are committed to
``BENCH_join_costing.json`` and CI fails when a live ratio regresses
more than 2x against the committed one (ratios are same-machine A/B
comparisons, so they port across CI hardware where absolute ms do not).
Each leg is timed as the fastest of ``BLOCKS`` blocks of ``ITERATIONS``
statements, the two modes alternating: the cost-based LIMIT leg is
~15 ms a block, short enough for one slow stretch of a shared host to
halve its ratio.
"""

import time

from benchmarks.conftest import (
    JOIN_COSTING_BASELINE_PATH,
    print_banner,
    record_baseline,
)
from repro.bench.harness import format_table, registry_counter_snapshot
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import structural_planning

EVENTS = 4000
ORGS = 64
REGIONS = 8
ITERATIONS = 60
BLOCKS = 5

JOIN_SQL = ("SELECT sum(e.weight), count(*) FROM orgs o "
            "JOIN events e ON e.org_id = o.org_id WHERE o.region = $1")
LIMIT_SQL = ("SELECT event_id, weight FROM events "
             "ORDER BY event_id LIMIT 10")


def build_db() -> Database:
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, """
        CREATE TABLE orgs (
            org_id INT PRIMARY KEY,
            region TEXT NOT NULL
        );
        CREATE INDEX orgs_region_idx ON orgs(region);
        CREATE TABLE events (
            event_id INT PRIMARY KEY,
            org_id INT NOT NULL,
            weight FLOAT NOT NULL
        );
        CREATE INDEX events_org_idx ON events(org_id);
    """)
    for i in range(ORGS):
        run_sql(db, tx,
                "INSERT INTO orgs (org_id, region) VALUES ($1, $2)",
                params=(i, f"region{i % REGIONS}"))
    for i in range(EVENTS):
        run_sql(db, tx,
                "INSERT INTO events (event_id, org_id, weight) "
                "VALUES ($1, $2, $3)",
                params=(i, i % (ORGS + 16), float(i % 13)))
    db.apply_commit(tx, block_number=1)
    db.committed_height = 1
    db.columnstore.on_block(db, 1)
    return db


def execute(db: Database, sql: str, params=()) -> list:
    tx = db.begin(allow_nondeterministic=True)
    try:
        return run_sql(db, tx, sql, params=params).rows
    finally:
        db.apply_abort(tx, reason="bench")


def timed_block(db: Database, sql: str, params=()):
    """(rows, wall seconds of ``ITERATIONS`` executions).  The rows come
    from one untimed execution first, which plans: switching the
    planning mode empties the plan cache."""
    rows = execute(db, sql, params)
    started = time.perf_counter()
    for _ in range(ITERATIONS):
        execute(db, sql, params)
    return rows, time.perf_counter() - started


def explain_lines(db, sql, params=()):
    return [r[0] for r in execute(db, "EXPLAIN " + sql, params)]


def ab_compare(db, sql, params=()):
    """(cost-based wall, structural wall), each the fastest of
    ``BLOCKS`` blocks, with identical results verified.  The modes
    alternate block by block, so a slow stretch of the host costs a
    block of each, not every block of the short cost-based leg."""
    cost_wall = legacy_wall = float("inf")
    for _ in range(BLOCKS):
        cost_rows, wall = timed_block(db, sql, params)
        cost_wall = min(cost_wall, wall)
        with structural_planning(db):
            legacy_rows, wall = timed_block(db, sql, params)
        legacy_wall = min(legacy_wall, wall)
        assert cost_rows == legacy_rows
    return cost_wall, legacy_wall


def test_join_costing_speedup(benchmark):
    db = build_db()

    # Plan-shape sanity: the cost model must actually change the plans.
    join_plan = explain_lines(db, JOIN_SQL, params=("region1",))
    assert any("NestedLoopJoin" in line for line in join_plan)
    assert any("IndexProbe" in line for line in join_plan)
    limit_plan = explain_lines(db, LIMIT_SQL)
    assert any("Limit (streaming" in line for line in limit_plan)
    assert any("IndexOrderScan" in line for line in limit_plan)
    with structural_planning(db):
        assert any("HashJoin" in line for line in
                   explain_lines(db, JOIN_SQL, params=("region1",)))
        assert any(line.lstrip(" ->").startswith("Sort ") for line in
                   explain_lines(db, LIMIT_SQL))

    def measure():
        join = ab_compare(db, JOIN_SQL, params=("region1",))
        limit = ab_compare(db, LIMIT_SQL)
        return join, limit

    (join_cost, join_legacy), (limit_cost, limit_legacy) = \
        benchmark.pedantic(measure, rounds=1, iterations=1)
    join_speedup = join_legacy / max(join_cost, 1e-9)
    limit_speedup = limit_legacy / max(limit_cost, 1e-9)

    print_banner(
        f"Cost-based optimizer — skewed join + streaming Limit "
        f"({EVENTS} events, {ITERATIONS} iterations per mode)")
    print(format_table(
        ["shape", "cost_ms", "structural_ms", "speedup"],
        [["skewed join", round(join_cost * 1e3, 1),
          round(join_legacy * 1e3, 1), f"{join_speedup:.1f}x"],
         ["limit stream", round(limit_cost * 1e3, 1),
          round(limit_legacy * 1e3, 1), f"{limit_speedup:.1f}x"]]))

    # Acceptance: >=1.5x on both microbenchmarks.
    assert join_speedup >= 1.5, \
        f"skewed join only {join_speedup:.2f}x faster cost-based"
    assert limit_speedup >= 1.5, \
        f"limit streaming only {limit_speedup:.2f}x faster cost-based"

    canonical = record_baseline("join_costing", {
        "events": EVENTS,
        "iterations": ITERATIONS,
        "join_cost_stmt_ms": round(join_cost * 1e3 / ITERATIONS, 4),
        "join_structural_stmt_ms":
            round(join_legacy * 1e3 / ITERATIONS, 4),
        "join_speedup_x": round(join_speedup, 1),
        "limit_cost_stmt_ms": round(limit_cost * 1e3 / ITERATIONS, 4),
        "limit_structural_stmt_ms":
            round(limit_legacy * 1e3 / ITERATIONS, 4),
        "limit_speedup_x": round(limit_speedup, 1),
    }, path=JOIN_COSTING_BASELINE_PATH,
        registry=registry_counter_snapshot(db.metrics))
    # CI regression gate: >2x ratio regression vs committed baseline.
    assert join_speedup >= canonical["join_speedup_x"] / 2, \
        (f"skewed-join speedup {join_speedup:.1f}x regressed >2x vs "
         f"committed baseline {canonical['join_speedup_x']}x")
    assert limit_speedup >= canonical["limit_speedup_x"] / 2, \
        (f"limit-streaming speedup {limit_speedup:.1f}x regressed >2x "
         f"vs committed baseline {canonical['limit_speedup_x']}x")
