"""Where a row-engine statement spends its time, operator by operator.

    python3 benchmarks/row_pipeline.py [--accounts N] [--seed S]
        [--repeats R]

Runs the two Appendix-A queries (the SELECTs inside ``complex_join`` and
``complex_group``) under ``EXPLAIN ANALYZE`` on the ``oe-complex``
workload's own genesis seed and prints, for every operator of each
plan, its actual rows and loops, its inclusive time, its self time
(inclusive minus its children) and self microseconds per row it
emitted — so a change to the SQL layer can be sized from this table
instead of from a cProfile run.  Each query runs ``--repeats`` times
after one warm-up and the fastest execution is the one reported.

It also prints, and asserts, three counts no host can move: the SIREAD
ranges one execution records (its predicate reads — one per scan, so
``complex_join`` records one for the accounts scan plus one per
invoices probe, ``complex_group`` one); ``sql.probe_fallbacks``, which
must stay 0: every probe keeps the index it was planned with; and
``stats.computations`` across ``--blocks`` blocks that write only
``summaries``, replanning both queries at each height, which must not
grow: no block wrote the tables the queries read, so no statistic of
theirs is recounted.

It imports the seed from ``benchmarks/e2e/workloads.py`` and the engine
from ``src/`` of this checkout, builds one plain ``Database`` (no
network, no consensus) and changes nothing.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads   # noqa: E402

from repro.mvcc.database import Database   # noqa: E402
from repro.sql.executor import run_sql     # noqa: E402

#: The SELECTs of the benchmark's contracts, minus their INTO lists.
QUERIES = (
    ("complex_join",
     "SELECT sum(i.amount), count(*) "
     "FROM accounts a JOIN invoices i ON i.acc_id = a.acc_id "
     "WHERE a.org = org_name"),
    ("complex_group",
     "SELECT sum(amount) FROM invoices WHERE org = org_name "
     "GROUP BY acc_id ORDER BY sum(amount) DESC, acc_id ASC LIMIT 1"),
)

_ACTUAL = re.compile(
    r"^(?P<indent> *)(?:-> )?(?P<what>.*?) \(cost~\d+ rows~\d+\) "
    r"\(actual rows=(?P<rows>\d+) loops=(?P<loops>\d+) "
    r"time=(?P<ms>[0-9.]+)ms\)$")
_EXECUTION = re.compile(r"^Execution Time: ([0-9.]+) ms$")


def seeded_database(accounts: int, seed: int) -> Database:
    """One database holding the ``oe-complex`` genesis rows, committed
    as block 1 the way a node's genesis does (index tails folded)."""
    w = replace(workloads.WORKLOADS["oe-complex"], accounts=accounts)
    sql, _counts = workloads.genesis_sql(w, seed)
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, sql)
    db.apply_commit(tx, block_number=1)
    for table in tx.tables_written:
        db.catalog.heap_of(table).merge_pending_indexes()
    db.committed_height = 1
    db.columnstore.on_block(db, 1)
    return db


def analyze(db: Database, sql: str, org: str) -> Tuple[List[str], int]:
    """The EXPLAIN ANALYZE lines of one execution and the number of
    predicate reads (SIREAD ranges) it recorded."""
    tx = db.begin(allow_nondeterministic=True)
    try:
        result = run_sql(db, tx, "EXPLAIN ANALYZE " + sql,
                         variables={"org_name": org})
    finally:
        db.apply_abort(tx, reason="row_pipeline")
    return [row[0] for row in result.rows], len(tx.predicate_reads)


def check_recounts(db: Database, blocks: int) -> None:
    """Commit ``blocks`` blocks that write only ``summaries`` the way
    the block processor does, replanning both queries at each height
    (the plan cache keys on it); fail if any statistic was recounted."""
    computations = db.metrics.counter("stats.computations")
    before = computations.value
    for k in range(blocks):
        height = db.committed_height + 1
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO summaries (summary_id, org, total, "
                        "cnt) VALUES ($1, 'org1', 1.0, 1)",
                params=(f"row_pipeline-{k}",))
        batch = db.begin_block_apply(height)
        db.apply_commit(tx, block_number=height, batch=batch)
        db.apply_block(batch)
        db.committed_height = height
        db.columnstore.on_block(db, height)
        for _name, sql in QUERIES:
            analyze(db, sql, "org1")
    grown = computations.value - before
    print(f"stats.computations over {blocks} summaries-only blocks: "
          f"+{grown:g}")
    if grown:
        raise SystemExit("a block that wrote neither accounts nor "
                         "invoices recounted their statistics")


def execution_ms(lines: List[str]) -> float:
    for line in lines:
        match = _EXECUTION.match(line)
        if match:
            return float(match.group(1))
    raise ValueError("EXPLAIN ANALYZE printed no Execution Time line")


def operators(lines: List[str]) -> List[Tuple[int, str, int, int, float]]:
    """``(depth, operator, rows, loops, inclusive ms)`` per plan line."""
    out = []
    for line in lines:
        match = _ACTUAL.match(line)
        if match:
            out.append((len(match.group("indent")) // 2,
                        match.group("what"), int(match.group("rows")),
                        int(match.group("loops")),
                        float(match.group("ms"))))
    return out


def check_siread(name: str, lines: List[str], sireads: int) -> None:
    """One SIREAD range per scan: the FROM scan's, plus one per probe."""
    probes = sum(loops for _d, what, _r, loops, _ms in operators(lines)
                 if "(per outer row)" in what)
    print(f"{name}: {sireads} SIREAD ranges per execution "
          f"(1 + {probes} probes)")
    if sireads != 1 + probes:
        raise SystemExit(f"{name}: {sireads} predicate reads, expected "
                         f"{1 + probes}")


def report(name: str, lines: List[str]) -> None:
    ops = operators(lines)
    print(f"{name}: execution {execution_ms(lines):.3f} ms")
    print(f"  {'rows':>7} {'loops':>6} {'incl ms':>9} {'self ms':>9} "
          f"{'us/row':>8}  operator")
    for pos, (depth, what, rows, loops, ms) in enumerate(ops):
        children = 0.0
        for later_depth, _w, _r, _l, later_ms in ops[pos + 1:]:
            if later_depth <= depth:
                break
            if later_depth == depth + 1:
                children += later_ms
        self_ms = max(0.0, ms - children)
        per_row = f"{self_ms * 1e3 / rows:8.2f}" if rows else f"{'-':>8}"
        print(f"  {rows:>7} {loops:>6} {ms:>9.3f} {self_ms:>9.3f} "
              f"{per_row}  {'  ' * depth}{what}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--accounts", type=int,
                        default=workloads.WORKLOADS["oe-complex"].accounts,
                        help="accounts in the seed (x 20 invoices each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--blocks", type=int, default=5,
                        help="summaries-only blocks of the statistics "
                             "check")
    args = parser.parse_args(argv)

    db = seeded_database(args.accounts, args.seed)
    print(f"seed {args.seed}: {args.accounts} accounts, "
          f"{args.accounts * 20} invoices, 3 orgs")
    for name, sql in QUERIES:
        analyze(db, sql, "org1")    # plan, compile, fill the caches
        best, sireads = min((analyze(db, sql, "org1")
                             for _ in range(max(1, args.repeats))),
                            key=lambda run: execution_ms(run[0]))
        report(name, best)
        check_siread(name, best, sireads)
    fallbacks = db.sql_probe_fallbacks.value
    print(f"sql.probe_fallbacks: {fallbacks:g}")
    if fallbacks:
        raise SystemExit("a probe left its planned index")
    check_recounts(db, args.blocks)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
