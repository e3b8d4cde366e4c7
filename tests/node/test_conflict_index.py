"""The per-block ``ConflictIndex``: memoized-edge equivalence, and
whole-pipeline byte-identity against the unindexed reference.

The block processor hands every validator one ``ConflictIndex`` per
block, warmed with the in-block edges (docs/commit_pipeline.md, "The
edge index").  The rw-edge test has one implementation,
``ConflictIndex._compute_edge`` over ``PredicateRead.matches_key``
(``has_rw_edge`` is one un-cached verdict of it; tests/mvcc/test_ssi.py
pins its semantics case by case), and two derivations whose verdicts
must agree:

1. ``ConflictIndex.has_edge`` returns the lazy per-pair verdict whether
   it is the first computation, a memoized hit, or was enumerated in
   bulk by ``warm_block`` from inverted maps — so the cache can never
   change a validator's verdict.
2. Whole-pipeline runs over randomized conflicting workloads leave
   byte-identical WAL sequences, pgLedger rows, checkpoint digests,
   heap versions and column chunks when ``ConflictIndex.has_edge`` is
   patched to compute every verdict lazily on a fresh index, ignoring
   what ``warm_block`` stored — the same plan, not a second pipeline.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block
from repro.chain.transaction import ProcedureCall, Transaction
from repro.core.network import BlockchainNetwork
from repro.mvcc.conflicts import ConflictIndex, has_rw_edge
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import KV_CONTRACTS, KV_SCHEMA
from tests.node.test_commit_pipeline import (
    chunk_dump,
    heap_dump,
    ledger_dump,
    wal_dump,
)

# ----------------------------------------------------------------------
# Synthetic in-block workloads with real read/write sets: each op is
# (range_read?, read key, write key) over a 5-row table — point and
# predicate reads, overlapping updates (rw edges + ww overlaps).
# ----------------------------------------------------------------------

ops_strategy = st.lists(
    st.tuples(st.booleans(),
              st.integers(min_value=1, max_value=5),
              st.integers(min_value=1, max_value=5)),
    min_size=1, max_size=8)


def _executed_block(ops):
    """Execute ``ops`` as concurrent transactions; returns the active
    contexts in block order (frozen read/write sets, nothing decided)."""
    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    for key in range(1, 6):
        run_sql(db, setup, "INSERT INTO t (id, v) VALUES ($1, 0)",
                params=(key,))
    db.apply_commit(setup, block_number=1)

    txs = []
    for range_read, read_key, write_key in ops:
        tx = db.begin(allow_nondeterministic=True)
        if range_read:
            run_sql(db, tx, "SELECT v FROM t WHERE id >= $1",
                    params=(read_key,))
        else:
            run_sql(db, tx, "SELECT v FROM t WHERE id = $1",
                    params=(read_key,))
        run_sql(db, tx, "UPDATE t SET v = v + 1 WHERE id = $1",
                params=(write_key,))
        txs.append(tx)
    return txs


class TestConflictIndexProperties:
    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_conflict_index_matches_has_rw_edge(self, ops):
        txs = _executed_block(ops)
        index = ConflictIndex()
        for a in txs:
            for b in txs:
                expect = has_rw_edge(a, b)
                assert index.has_edge(a, b) == expect   # first computation
                assert index.has_edge(a, b) == expect   # memoized hit

    @given(ops_strategy)
    @settings(max_examples=40, deadline=None)
    def test_warm_block_verdicts_match_has_rw_edge(self, ops):
        """The bulk inverted-map derivation (``warm_block``) fills the
        edge cache with exactly the verdicts lazy per-pair computation
        would produce — point *and* range predicates."""
        txs = _executed_block(ops)
        index = ConflictIndex()
        index.warm_block(txs)
        index._compute_edge = None   # every verdict must come from warm
        for a in txs:
            for b in txs:
                if a.xid != b.xid:
                    assert index.has_edge(a, b) == has_rw_edge(a, b)


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

    def reference_edge(self, reader, writer):
        asked.append((reader.xid, writer.xid))
        return ConflictIndex()._compute_edge(reader, writer)

    monkeypatch.setattr(ConflictIndex, "has_edge", reference_edge)
    reference = _drive(plan)

    # The index is what the validators ask, and the hot keys made them
    # ask about real conflicts: some transactions aborted.
    assert asked
    statuses = [row["status"] for row in ledger_dump(reference)]
    assert "aborted" in statuses and "committed" in statuses
    assert _artifacts(indexed) == _artifacts(reference)
