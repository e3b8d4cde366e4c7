"""Block commit phase: what ``process_block`` costs per committed
transaction, and that it is a function of its input.

Write-heavy blocks (simple insert/update contracts, one row each — the
paper's "simple contract" shape) run through the execute-order-in-parallel
flow, where execution and the client-signature check happen at submission
time; ``process_block`` then performs exactly the commit pipeline
(pgLedger record, serial SSI commit over the per-block ``ConflictIndex``,
block apply pass, status record, checkpoint fold, columnar ingest, three
WAL flushes) and nothing of it is left for later — the whole of it is on
the clock (docs/commit_pipeline.md).

**Scope: commit phase only.**  Execution and signature checks are off the
clock, so ``commit_phase_tps`` is not a throughput anyone can observe; on
the real path P-256 verification dominates and the engine commits a few
hundred transactions per second (``benchmarks/e2e``, which is the
performance gate).  This file has no absolute-speed gate.  It records the
number in ``BENCH_block_commit.json`` for the next reader and asserts that
two runs of the same blocks agree byte for byte — WAL records, pgLedger
rows, heap versions, checkpoint digests and every registry counter.
"""

import gc
import time

from benchmarks.conftest import (
    BLOCK_COMMIT_BASELINE_PATH,
    print_banner,
    record_baseline,
)
from repro.bench.harness import format_table, registry_counter_snapshot
from repro.chain.block import Block
from repro.chain.transaction import ProcedureCall, Transaction
from repro.core.network import BlockchainNetwork
from repro.storage.snapshot import SeqSnapshot
from repro.storage.visibility import visible_versions

SCHEMA = """
CREATE TABLE readings (
    sensor INT PRIMARY KEY,
    region TEXT NOT NULL,
    amount FLOAT NOT NULL
);
CREATE INDEX readings_region_idx ON readings (region);
CREATE INDEX readings_amount_idx ON readings (amount);
"""

CONTRACTS = [
    """CREATE FUNCTION add_reading(id INT, region TEXT, amount FLOAT)
    RETURNS VOID AS $$
    BEGIN
        INSERT INTO readings (sensor, region, amount)
        VALUES (id, region, amount);
    END $$ LANGUAGE plpgsql""",
    """CREATE FUNCTION bump_reading(id INT, delta FLOAT)
    RETURNS VOID AS $$
    BEGIN
        UPDATE readings SET amount = amount + delta WHERE sensor = id;
    END $$ LANGUAGE plpgsql""",
]

WARMUP_BLOCKS = 2
MEASURED_BLOCKS = 10
TXS_PER_BLOCK = 60


def build_node():
    net = BlockchainNetwork(
        organizations=["org1"], flow="execute-order",
        schema_sql=SCHEMA, contracts=CONTRACTS)
    client = net.register_client("bench", "org1")
    node = net.primary_node
    node.ledger._clock = lambda: 1000.0   # pin committime across runs
    return net, node, client.identity


def block_calls(number: int, sensor_base: int):
    """Deterministic write-heavy block: ~3/4 inserts, ~1/4 updates of rows
    inserted by earlier blocks (each update hits a distinct row, so every
    transaction commits)."""
    calls = []
    sensor = sensor_base
    for i in range(TXS_PER_BLOCK):
        if number > WARMUP_BLOCKS and i % 4 == 3:
            calls.append(ProcedureCall(
                "bump_reading", ((number * 7 + i) % sensor_base, 1.5)))
        else:
            calls.append(ProcedureCall(
                "add_reading",
                (sensor, f"r{sensor % 8}", float(sensor % 97))))
            sensor += 1
    return calls, sensor


def run_pipeline():
    """Submit + execute each block's transactions (the EO flow's
    client-side phase, untimed), then time ``process_block`` — the commit
    pipeline, all of it.  Returns (net, node, committed count, elapsed
    seconds over the measured blocks).

    The cyclic collector is paused around the loop (after a full
    collect): with a large heap left by earlier tests, a single gen-2
    pause is tens of milliseconds — longer than a whole block.
    """
    net, node, identity = build_node()
    committed = 0
    elapsed = 0.0
    sensor = 0
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for number in range(1, WARMUP_BLOCKS + MEASURED_BLOCKS + 1):
            calls, sensor = block_calls(number, sensor)
            height = node.db.committed_height
            txs = [Transaction.create(identity, call, snapshot_height=height)
                   for call in calls]
            for tx in txs:
                node.submit_transaction(tx)   # executes now, at the snapshot
            block = Block(number=number, transactions=txs).seal()
            if number <= WARMUP_BLOCKS:
                node.processor.process_block(block)
                continue
            started = time.perf_counter()
            metrics = node.processor.process_block(block)
            elapsed += time.perf_counter() - started
            committed += metrics.committed
            assert metrics.missing_txs == 0   # execution stays off the clock
    finally:
        if gc_was_enabled:
            gc.enable()
    return net, node, committed, elapsed


def artifacts(net, node):
    """Everything the run left behind that another run must reproduce."""
    db = node.db

    def versions(table):
        heap = db.catalog.heap_of(table).all_versions()
        if table == "pgledger":     # the latest committed state
            heap = visible_versions(
                heap, SeqSnapshot(db.statuses.current_commit_seq),
                db.statuses, None)
        return [(v.version_id, v.row_id, v.xmin, v.xmax_winner,
                 v.creator_block, v.deleter_block, sorted(v.values.items()))
                for v in heap]

    return {
        "wal": [(r.lsn, r.kind, r.payload) for r in db.wal._records],
        "readings": versions("readings"),
        "pgledger": versions("pgledger"),
        "digests": [node.checkpoints.local_digest(height) for height in
                    range(1, WARMUP_BLOCKS + MEASURED_BLOCKS + 1)],
        "height": db.committed_height,
        "counters": registry_counter_snapshot(net.metrics),
    }


def test_block_commit_phase(benchmark):
    def measure():
        return run_pipeline(), run_pipeline()

    (a_net, a_node, a_committed, a_wall), \
        (b_net, b_node, b_committed, b_wall) = benchmark.pedantic(
            measure, rounds=1, iterations=1)

    assert a_committed == b_committed == MEASURED_BLOCKS * TXS_PER_BLOCK
    first, second = artifacts(a_net, a_node), artifacts(b_net, b_node)
    for name in first:
        assert first[name] == second[name], name

    # The quieter of the two identical runs.
    wall = min(a_wall, b_wall)
    tps = a_committed / max(wall, 1e-9)
    print_banner(
        f"Block commit phase — execution and signature checks off the "
        f"clock ({MEASURED_BLOCKS} measured blocks x {TXS_PER_BLOCK} txs)")
    print(format_table(
        ["run", "commit_ms", "committed", "commit_phase_tps"],
        [["first", round(a_wall * 1e3, 1), a_committed,
          round(a_committed / max(a_wall, 1e-9), 1)],
         ["second", round(b_wall * 1e3, 1), b_committed,
          round(b_committed / max(b_wall, 1e-9), 1)]]))

    record_baseline("block_commit", {
        "scope": "commit phase only: execution and signature checks "
                 "off the clock",
        "blocks": MEASURED_BLOCKS,
        "txs_per_block": TXS_PER_BLOCK,
        "commit_phase_tps": round(tps, 1),
    }, path=BLOCK_COMMIT_BASELINE_PATH, registry=first["counters"])
