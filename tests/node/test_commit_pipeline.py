"""Block-granular commit pipeline: oracles and crash-recovery suite.

The block processor has one commit path (docs/commit_pipeline.md); the
per-transaction forms it replaced survive here, as oracles:

1. **Block apply ≡ one-by-one apply** — the same executed contexts
   committed through a ``BlockApplyBatch`` + ``Database.apply_block`` and
   one by one through ``Database.apply_commit()`` without a batch must
   leave identical version stamps, ``live_rows``, index contents, WAL
   records and column chunks.

2. **Bulk pgLedger writes ≡ the SQL statements** — ``Ledger.record_block``
   / ``record_statuses`` write the heap directly; the rows (and WAL
   records, xids included) must be the ones the SELECT + INSERT and
   UPDATE statements leave, which live in this file.

3. **Crash at every commit boundary** — the WAL flush horizons are the
   pipeline's stage boundaries (after the ledger record, after the
   serial commit, after the status record), and records between flushes
   are lost atomically on crash; crashing at each stage boundary plus
   *before every commit position* (``mid_commit:<k>``) therefore covers
   every durable WAL prefix the pipeline can leave behind.  After
   section 3.6 recovery the node must converge with the rest of the
   network.
"""

import pytest

from repro.chain.block import Block
from repro.chain.transaction import ProcedureCall, Transaction
from repro.core.network import BlockchainNetwork
from repro.mvcc.database import Database
from repro.node.block_processor import SimulatedCrash
from repro.node.ledger import (
    LEDGER_TABLE,
    STATUS_PENDING,
    Ledger,
    create_ledger_table,
)
from repro.sql.executor import Executor, run_sql
from repro.sql.parser import parse_one
from repro.storage.snapshot import SeqSnapshot
from repro.storage.visibility import visible_versions
from tests.conftest import (
    KV_CONTRACTS,
    KV_SCHEMA,
    counter,
    gauge,
    make_kv_network,
)

N_BLOCKS = 3


# ----------------------------------------------------------------------
# Workload: blocks exercising inserts, updates, deletes, intra-block
# ww conflicts, duplicate tx ids (within a block and across blocks) and,
# in the EO flow, a missing transaction executed at process time.
# ----------------------------------------------------------------------

def build_blocks(node, identity, flow):
    """Drive N_BLOCKS identical blocks through ``node``; returns the
    blocks for reuse/verification."""
    nonce = [0]

    def make_tx(call):
        if flow == "execute-order":
            return Transaction.create(
                identity, call, snapshot_height=node.db.committed_height)
        tx_id = Transaction.derive_tx_id(f"alice#{nonce[0]}", call, None)
        nonce[0] += 1
        return Transaction.create(identity, call, tx_id=tx_id)

    blocks = []
    dup_across = None
    for number in range(1, N_BLOCKS + 1):
        if number == 1:
            txs = [make_tx(ProcedureCall("set_kv", (f"k{i}", i)))
                   for i in range(6)]
            dup_across = txs[0]
        elif number == 2:
            txs = [make_tx(ProcedureCall("bump_kv", (f"k{i}", 10)))
                   for i in range(3)]
            txs.append(make_tx(ProcedureCall("del_kv", ("k5",))))
            txs.append(make_tx(ProcedureCall("set_kv", ("k6", 6))))
            # Same tx id twice within one block: second occurrence aborts.
            txs.append(txs[-1])
        else:
            # Two transactions updating the same key: the later one must
            # abort (ww first-committer-wins) — the order-sensitive part
            # of apply_commit that may not batch.
            txs = [make_tx(ProcedureCall("bump_kv", ("k0", 1))),
                   make_tx(ProcedureCall("bump_kv", ("k0", 2))),
                   make_tx(ProcedureCall("set_kv", ("k7", 7))),
                   dup_across]   # recorded by block 1: prior duplicate
        if flow == "execute-order":
            skip = txs[-1].tx_id if number == 1 else None
            seen = set()
            for tx in txs:
                # One tx stays "missing" (malicious peer never forwarded
                # it): the block processor executes it during step 2.
                if tx.tx_id == skip or tx.tx_id in seen:
                    continue
                seen.add(tx.tx_id)
                node.submit_transaction(tx)
        block = Block(number=number, transactions=txs).seal()
        node.processor.process_block(block)
        blocks.append(block)
    return blocks


def drive(flow):
    """One node, N_BLOCKS blocks; returns ``(node, blocks)``."""
    net = BlockchainNetwork(
        organizations=["org1"], flow=flow,
        schema_sql=KV_SCHEMA, contracts=KV_CONTRACTS)
    node = net.primary_node
    node.ledger._clock = lambda: 1000.0   # pin committime across runs
    client = net.register_client("alice", "org1")
    return node, build_blocks(node, client.identity, flow)


# ----------------------------------------------------------------------
# Dumps compared byte-for-byte against the oracles
# ----------------------------------------------------------------------

def wal_dump(db):
    return [(r.lsn, r.kind, r.payload) for r in db.wal._records]


def ledger_dump(node):
    statuses = node.db.statuses
    rows = [dict(v.values) for v in visible_versions(
        node.db.catalog.heap_of("pgledger").all_versions(),
        SeqSnapshot(statuses.current_commit_seq), statuses, None)]
    rows.sort(key=lambda r: (r["blocknumber"], r["blockposition"]))
    return rows


def heap_dump(db, table):
    """Every version with its MVCC header; values carry their type names
    (``1 == 1.0``, and a coercion that differs is what oracle 2 is for)."""
    heap = db.catalog.heap_of(table)
    return [(v.version_id, v.row_id, v.xmin, v.xmax_winner,
             v.creator_block, v.deleter_block,
             {name: (type(value).__name__, value)
              for name, value in v.values.items()})
            for v in heap.all_versions()]


def chunk_dump(db):
    db.columnstore.ensure_synced(db)
    out = {}
    for name, tcols in sorted(db.columnstore.tables.items()):
        out[name] = [(chunk.data, chunk.creators, chunk.deleters,
                      chunk.row_ids, chunk.version_ids, chunk.xmins,
                      chunk.xmaxs, chunk.sealed, chunk.zones)
                     for chunk in tcols.chunks]
    return out


# ----------------------------------------------------------------------
# Oracle 1: BlockApplyBatch against apply_commit() without a batch
# ----------------------------------------------------------------------

APPLY_SCHEMA = """
CREATE TABLE t (id INT PRIMARY KEY, grp TEXT, v INT);
CREATE INDEX t_grp_idx ON t (grp);
CREATE TABLE u (id INT PRIMARY KEY, v INT);
"""

# One block's transactions, all concurrent, none in conflict: insert,
# update, delete, a write to two tables, an insert deleted again by its
# own transaction, and a reader that commits with an empty write set.
APPLY_BLOCK = [
    "INSERT INTO t (id, grp, v) VALUES (10, 'g0', 1)",
    "UPDATE t SET v = v + 1 WHERE id = 1",
    "DELETE FROM t WHERE id = 2",
    "UPDATE t SET grp = 'g9' WHERE id = 3; "
    "INSERT INTO u (id, v) VALUES (1, 1)",
    "INSERT INTO t (id, grp, v) VALUES (11, 'g1', 2); "
    "DELETE FROM t WHERE id = 11",
    "SELECT v FROM t WHERE id = 4",
]


def executed_block():
    """A database at height 1 (six seeded rows, replica synced) plus the
    contexts of ``APPLY_BLOCK`` run to their commit point."""
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, APPLY_SCHEMA)
    for i in range(1, 7):
        run_sql(db, setup, "INSERT INTO t (id, grp, v) VALUES ($1, $2, 0)",
                params=(i, f"g{i % 2}"))
    db.apply_commit(setup, block_number=1)
    db.committed_height = 1
    db.columnstore.on_block(db, 1)
    txs = []
    for sql in APPLY_BLOCK:
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, sql)
        txs.append(tx)
    return db, txs


def test_block_apply_matches_one_by_one_apply_commit():
    batched, txs = executed_block()
    batch = batched.begin_block_apply(2)
    for tx in txs:
        batched.apply_commit(tx, block_number=2, batch=batch)
    # The per-row work really is deferred: decided, not yet stamped.
    assert all(tx.is_committed for tx in txs)
    assert all(entry.new_version.creator_block is None
               for tx in txs for entry in tx.writes
               if entry.new_version is not None)
    batched.apply_block(batch)
    batched.apply_block(batch)   # idempotent: the finally may re-run it

    single, txs = executed_block()
    for tx in txs:
        single.apply_commit(tx, block_number=2)

    for db in (batched, single):
        db.committed_height = 2
        db.columnstore.on_block(db, 2)
    for table in ("t", "u"):
        ours = batched.catalog.heap_of(table)
        theirs = single.catalog.heap_of(table)
        assert heap_dump(batched, table) == heap_dump(single, table)
        assert ours.live_rows == theirs.live_rows
        for name, index in ours.indexes.items():
            # apply_block folded the tails; the other side merges on
            # demand (scan_all) — same entries, same order.
            assert index.pending_count == 0
            assert index.scan_all() == theirs.indexes[name].scan_all()
    assert batched.catalog.heap_of("t").live_rows == 6   # +1 insert -1 delete
    assert wal_dump(batched) == wal_dump(single)
    assert chunk_dump(batched) == chunk_dump(single)
    query = "SELECT id, grp, v FROM t ORDER BY id"
    for height in (1, 2):
        rows = []
        for db in (batched, single):
            tx = db.begin(allow_nondeterministic=True, read_only=True)
            rows.append(run_sql(db, tx, f"{query} AS OF BLOCK {height}").rows)
            db.apply_abort(tx, reason="read-only")
        assert rows[0] == rows[1] and rows[0]


# ----------------------------------------------------------------------
# Oracle 2: bulk pgLedger writes against the SQL statements
# ----------------------------------------------------------------------

def sql_system_transaction(db, fn):
    tx = db.begin(allow_nondeterministic=True, username="@system")
    fn(Executor(db, tx))
    db.apply_commit(tx, block_number=db.committed_height)


def sql_record_block(db, block):
    """Step 1 through the SQL engine: one SELECT + one INSERT per
    transaction, rows already present left alone."""
    def write(executor):
        for position, tx in enumerate(block.transactions):
            existing = executor.execute(parse_one(
                f"SELECT tx_id FROM {LEDGER_TABLE} WHERE tx_id = $1"),
                params=(tx.tx_id,))
            if existing.rows:
                continue
            executor.execute(parse_one(
                f"INSERT INTO {LEDGER_TABLE} (tx_id, blocknumber, "
                f"blockposition, txid, username, procedure, args_text, "
                f"status, reason, committime) VALUES "
                f"($1, $2, $3, NULL, $4, $5, $6, $7, NULL, NULL)"),
                params=(tx.tx_id, block.number, position, tx.username,
                        tx.call.procedure, repr(list(tx.call.args)),
                        STATUS_PENDING))
    sql_system_transaction(db, write)


def sql_record_statuses(db, block, outcomes, now):
    """Step 2 through the SQL engine: one UPDATE per transaction."""
    def write(executor):
        for tx in block.transactions:
            status, reason, local_xid = outcomes[tx.tx_id]
            executor.execute(parse_one(
                f"UPDATE {LEDGER_TABLE} SET status = $2, reason = $3, "
                f"txid = $4, committime = $5 WHERE tx_id = $1"),
                params=(tx.tx_id, status, reason, local_xid, now))
    sql_system_transaction(db, write)


@pytest.mark.parametrize("flow", ["order-execute", "execute-order"])
def test_bulk_ledger_writes_match_the_sql_statements(flow):
    """The blocks and statuses of a real run (commits, ww and duplicate
    aborts with their reasons, a tx id twice in one block, one recorded
    by an earlier block) written twice: by the ledger's direct heap
    operations and by the statements above."""
    node, blocks = drive(flow)
    assert node.db.committed_height == N_BLOCKS
    bulk = Ledger(Database(), clock=lambda: 1000.0)
    sql_db = Database()
    create_ledger_table(sql_db.catalog)

    for block in blocks:
        entries = [node.ledger.entry(tx.tx_id) for tx in block.transactions]
        outcomes = {entry["tx_id"]: (entry["status"], entry["reason"],
                                     entry["txid"]) for entry in entries}
        for _ in range(2):   # recording a block twice changes nothing
            bulk.record_block(block)
            sql_record_block(sql_db, block)
            assert heap_dump(bulk.db, LEDGER_TABLE) == \
                heap_dump(sql_db, LEDGER_TABLE)
        bulk.record_statuses(block, outcomes)
        sql_record_statuses(sql_db, block, outcomes, 1000.0)
        assert heap_dump(bulk.db, LEDGER_TABLE) == \
            heap_dump(sql_db, LEDGER_TABLE)
    assert wal_dump(bulk.db) == wal_dump(sql_db)
    statuses = {values["status"][1]
                for *_, values in heap_dump(bulk.db, LEDGER_TABLE)}
    assert statuses == {"pending", "committed", "aborted"}


def test_batched_pipeline_defers_and_applies_per_block_work():
    """The batching actually happens: indexes bulk-merge and the WAL
    group-flushes multi-record batches."""
    node, _ = drive("order-execute")
    kv_pk = node.db.catalog.heap_of("kv").indexes["kv_pkey"]
    assert kv_pk.bulk_merges > 0 and kv_pk.merged_entries > 0
    assert kv_pk.pending_count == 0   # block end folded the tail
    assert counter(node.db.wal, "wal.flush_count") > 0
    assert counter(node.db.wal, "wal.records_flushed") > \
        counter(node.db.wal, "wal.flush_count")


def test_nothing_is_left_to_do_when_process_block_returns():
    """``bct`` / ``bpt`` are honest: a block's whole cost — index folds,
    replica ingest, digest fold, WAL flushes — falls inside
    ``process_block``, so ``BlockMetrics.block_processing_time`` covers
    it and no later call has to wait for it."""
    net = BlockchainNetwork(
        organizations=["org1"], flow="order-execute",
        schema_sql=KV_SCHEMA, contracts=KV_CONTRACTS, checkpoint_interval=2)
    node = net.primary_node
    node.tracer.enabled = True
    identity = net.register_client("alice", "org1").identity
    for number in (1, 2):
        calls = [ProcedureCall("set_kv", (f"k{number}-{i}", i))
                 for i in range(8)]
        if number == 2:
            calls += [ProcedureCall("bump_kv", ("k1-0", 1)),
                      ProcedureCall("del_kv", ("k1-1",))]
        txs = [Transaction.create(identity, call, tx_id=f"tx{number}-{i}")
               for i, call in enumerate(calls)]
        metrics = node.processor.process_block(
            Block(number=number, transactions=txs).seal())
        assert metrics.committed == len(txs) >= 8

        db = node.db
        assert db.columnstore.synced_height == number
        assert gauge(db, "columnstore.pending_commits") == 0
        for index in db.catalog.heap_of("kv").indexes.values():
            assert index.pending_count == 0, index.name
        assert db.wal.flushed_lsn == db.wal.mark()
        # interval 2: height 1 folds into the checkpoint of height 2.
        assert (node.checkpoints.local_digest(number) is not None) == \
            (number == 2)

        spans = [span for span in node.tracer.snapshot()["spans"]
                 if span.get("height") == number]
        inner = [span["ms"] for span in spans
                 if span["name"].startswith("finalize.")]
        assert {span["name"] for span in spans} >= {
            "finalize.apply", "finalize.columnstore_ingest",
            "finalize.digest_fold", "finalize.wal_flush"}
        assert metrics.block_processing_time * 1e3 >= sum(inner)
        assert metrics.block_commit_time <= metrics.block_processing_time


# ----------------------------------------------------------------------
# Crash-at-every-boundary recovery property
# ----------------------------------------------------------------------

CRASH_TXS = 4
CRASH_POINTS = (["after_ledger_record"]
                + [f"mid_commit:{k}" for k in range(CRASH_TXS)]
                + ["before_status_record"])


def test_recovery_at_every_commit_boundary():
    for crash_point in CRASH_POINTS:
        net = make_kv_network("order-execute", orgs=["org1", "org2"])
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "base", 1)

        victim = net.nodes[1]
        original = victim.processor.process_block
        victim.processor.process_block = (
            lambda block: original(block, crash_point=crash_point))
        ids = [client.invoke("set_kv", f"{crash_point}-{i}", i)
               for i in range(CRASH_TXS)]
        with pytest.raises(SimulatedCrash):
            net.settle(timeout=30.0)
        victim.processor.process_block = original
        victim.crash()
        net.settle(timeout=30.0)

        victim.restart()
        net.settle(timeout=30.0)
        net.assert_consistent()
        for tx_id in ids:
            entry = victim.ledger.entry(tx_id)
            assert entry is not None and entry["status"] == "committed", \
                f"{crash_point}: {tx_id} not recovered"
        # Post-recovery checkpoint digests match the healthy replica.
        healthy = net.nodes[0]
        for height in range(1, victim.db.committed_height + 1):
            ours = victim.checkpoints.local_digest(height)
            theirs = healthy.checkpoints.local_digest(height)
            if ours is not None and theirs is not None:
                assert ours == theirs, f"{crash_point}: digest @{height}"
