"""The per-block ``ConflictIndex``: edge verdicts against the row-level
reference, and whole-pipeline byte-identity against it.

The block processor hands every validator one ``ConflictIndex`` per
block, warmed with the in-block edges (docs/commit_pipeline.md, "The
edge index").  The rw-edge test has one implementation,
``ConflictIndex._compute_edge`` over ``PredicateRead.matches_key``
(``has_rw_edge`` is one un-cached verdict of it; tests/mvcc/test_ssi.py
pins its semantics case by case).  It reads predicate reads only: the
per-row read set and its direct-rw branch ("the writer replaced or
deleted a version the reader read") left ``src/`` because every row a
scan returns is a candidate its predicate read covers, so the old image
the writer leaves is inside that range.  That branch lives here, as the
reference (:func:`reference_edge`), over a row-read set recorded from
outside (:class:`RowReads`), and three derivations must agree with it:

1. ``ConflictIndex.has_edge``, lazy — the first computation and the
   memoized hit;
2. the verdicts ``warm_block`` enumerates in bulk from inverted maps;
3. whole-pipeline runs over randomized conflicting workloads leave
   byte-identical WAL sequences, pgLedger rows, checkpoint digests,
   heap versions and column chunks when ``ConflictIndex.has_edge`` is
   patched to the reference, computed fresh for every question.

The generated in-block workloads read by point, range, secondary-index
range, IN list, full-table scan and index-order ``LIMIT`` stream, and
write by value update, by updates that move a row out of a range (a
secondary key or the primary key), by DELETE and by INSERT.
"""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.transaction import ProcedureCall, Transaction
from repro.core.network import BlockchainNetwork
from repro.mvcc.conflicts import ConflictIndex, has_rw_edge
from repro.mvcc.database import Database
from repro.sql import plan as plan_module
from repro.sql.executor import run_sql
from tests.conftest import KV_CONTRACTS, KV_SCHEMA
from tests.node.test_commit_pipeline import (
    chunk_dump,
    heap_dump,
    ledger_dump,
    wal_dump,
)


class RowReads:
    """The per-row read set ``src/`` no longer keeps: every version a
    scan's visibility pass returned, per reader xid (a superset of the
    rows a LIMIT stream consumed — a stricter reference)."""

    def __init__(self):
        self.by_xid = {}

    @contextmanager
    def recording(self):
        real = plan_module.visible_versions

        def recorded(candidates, snapshot, statuses, own_xid):
            visible = real(candidates, snapshot, statuses, own_xid)
            if own_xid is not None:
                reads = self.by_xid.setdefault(own_xid, {})
                for version in visible:
                    reads[id(version)] = version
            return visible

        plan_module.visible_versions = recorded
        try:
            yield self
        finally:
            plan_module.visible_versions = real

    def direct_rw(self, reader, writer) -> bool:
        """The deleted branch: ``writer`` replaced or deleted a version
        ``reader`` read."""
        read = self.by_xid.get(reader.xid, {})
        return reader.xid != writer.xid and any(
            id(entry.old_version) in read for entry in writer.writes
            if entry.old_version is not None)


def reference_edge(reads: RowReads, reader, writer) -> bool:
    """The rw-edge test as it was: direct row reads, or a written image
    inside a predicate-read range."""
    return reads.direct_rw(reader, writer) or \
        ConflictIndex()._compute_edge(reader, writer)


# ----------------------------------------------------------------------
# Synthetic in-block workloads with real read/write sets over a 6-row
# table t (id, g indexed, v): each op is (read kind, key, write kind,
# key), all transactions concurrent, nothing decided.
# ----------------------------------------------------------------------

READS = {
    "point": "SELECT v FROM t WHERE id = $1",
    "range": "SELECT v FROM t WHERE id >= $1",
    "secondary": "SELECT id FROM t WHERE g BETWEEN $1 AND $1 + 1",
    "in": "SELECT v FROM t WHERE id IN ($1, $1 + 2)",
    "full": "SELECT count(*) FROM t WHERE v >= 0",
    "stream": "SELECT id FROM t WHERE id >= $1 ORDER BY id LIMIT 1",
}
WRITES = {
    "bump": "UPDATE t SET v = v + 1 WHERE id = $1",
    "move": "UPDATE t SET g = g + 10 WHERE id = $1",
    "rekey": "UPDATE t SET id = id + 100 WHERE id = $1",
    "delete": "DELETE FROM t WHERE id = $1",
    "insert": "INSERT INTO t (id, g, v) VALUES ($1 + 200, $1, 0)",
}

keys = st.integers(min_value=1, max_value=6)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(sorted(READS)), keys,
              st.sampled_from(sorted(WRITES)), keys),
    min_size=1, max_size=8)


def _executed_block(ops, reads: RowReads):
    """Execute ``ops`` as concurrent transactions; returns the active
    contexts in block order (frozen read/write sets, nothing decided)."""
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, "CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT);"
                       "CREATE INDEX t_g ON t(g)")
    for key in range(1, 7):
        run_sql(db, setup, "INSERT INTO t (id, g, v) VALUES ($1, $1, 0)",
                params=(key,))
    db.apply_commit(setup, block_number=1)

    txs = []
    with reads.recording():
        for position, (read, read_key, write, write_key) in enumerate(ops):
            tx = db.begin(allow_nondeterministic=True)
            run_sql(db, tx, READS[read], params=(read_key,))
            key = write_key + 10 * position if write == "insert" \
                else write_key
            run_sql(db, tx, WRITES[write], params=(key,))
            txs.append(tx)
    return txs


class TestConflictIndexProperties:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_lazy_verdicts_match_the_row_level_reference(self, ops):
        reads = RowReads()
        txs = _executed_block(ops, reads)
        index = ConflictIndex()
        for a in txs:
            for b in txs:
                expect = reference_edge(reads, a, b)
                assert has_rw_edge(a, b) == expect
                assert index.has_edge(a, b) == expect   # first computation
                assert index.has_edge(a, b) == expect   # memoized hit

    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_warm_block_verdicts_match_the_row_level_reference(self, ops):
        """The bulk inverted-map derivation (``warm_block``) fills the
        edge cache with exactly the reference verdicts — point, range,
        IN-list, full-table and streamed reads alike."""
        reads = RowReads()
        txs = _executed_block(ops, reads)
        index = ConflictIndex()
        index.warm_block(txs)
        index._compute_edge = None   # every verdict must come from warm
        for a in txs:
            for b in txs:
                if a.xid != b.xid:
                    assert index.has_edge(a, b) == \
                        reference_edge(reads, a, b)

    @pytest.mark.parametrize("read", sorted(READS))
    @pytest.mark.parametrize("write", ["bump", "move", "rekey", "delete"])
    def test_every_read_shape_meets_every_replacement(self, read, write):
        """Each read shape, against a writer replacing or deleting a row
        it read: the reference sees the direct rw edge, and the
        predicate read alone reaches the same verdict."""
        reads = RowReads()
        reader, writer = _executed_block(
            [(read, 1, "insert", 1), ("point", 6, write, 1)], reads)
        assert reads.direct_rw(reader, writer)
        assert has_rw_edge(reader, writer)


# ----------------------------------------------------------------------
# End-to-end: randomized conflicting workloads, index vs reference
# ----------------------------------------------------------------------

N_BLOCKS = 4
TXS_PER_BLOCK = 12
HOT_KEYS = [f"h{i}" for i in range(4)]


def _random_plan(rng):
    """Per-block contract calls: unique-key inserts (low conflict),
    hot-key bumps (ww conflicts), occasional deletes."""
    plan = []
    cold = 0
    live_cold = []
    seed_calls = [ProcedureCall("set_kv", (k, 0)) for k in HOT_KEYS]
    plan.append(seed_calls)
    for _ in range(N_BLOCKS - 1):
        calls = []
        for _ in range(TXS_PER_BLOCK):
            roll = rng.random()
            if roll < 0.45:
                calls.append(ProcedureCall("set_kv", (f"c{cold}", cold)))
                live_cold.append(f"c{cold}")
                cold += 1
            elif roll < 0.8:
                calls.append(ProcedureCall(
                    "bump_kv", (rng.choice(HOT_KEYS), rng.randrange(9))))
            elif live_cold:
                calls.append(ProcedureCall(
                    "del_kv", (live_cold.pop(rng.randrange(len(live_cold))),)))
            else:
                calls.append(ProcedureCall(
                    "bump_kv", (rng.choice(HOT_KEYS), 1)))
        plan.append(calls)
    return plan


def _drive(plan):
    net = BlockchainNetwork(
        organizations=["org1"], flow="execute-order",
        schema_sql=KV_SCHEMA, contracts=KV_CONTRACTS)
    node = net.primary_node
    node.ledger._clock = lambda: 1000.0
    client = net.register_client("alice", "org1")
    for number, calls in enumerate(plan, start=1):
        height = node.db.committed_height
        txs = [Transaction.create(client.identity, call,
                                  snapshot_height=height)
               for call in calls]
        for tx in txs:
            node.submit_transaction(tx)
        node.processor.process_block(
            Block(number=number, transactions=txs).seal())
    return node


def _artifacts(node):
    return (wal_dump(node.db),
            ledger_dump(node),
            [node.checkpoints.local_digest(h)
             for h in range(1, N_BLOCKS + 1)],
            heap_dump(node.db, "kv"),
            chunk_dump(node.db),
            node.db.committed_height)


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_randomized_workload_byte_identity(seed, monkeypatch):
    plan = _random_plan(random.Random(seed))
    indexed = _drive(plan)

    asked = []
    reads = RowReads()

    def row_level_edge(self, reader, writer):
        asked.append((reader.xid, writer.xid))
        return reference_edge(reads, reader, writer)

    monkeypatch.setattr(ConflictIndex, "has_edge", row_level_edge)
    with reads.recording():
        reference = _drive(plan)

    # The index is what the validators ask, and the hot keys made them
    # ask about real conflicts: some transactions aborted.
    assert asked
    statuses = [row["status"] for row in ledger_dump(reference)]
    assert "aborted" in statuses and "committed" in statuses
    assert _artifacts(indexed) == _artifacts(reference)
