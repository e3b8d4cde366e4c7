"""What a committed transaction leaves behind does not grow per block.

The end-to-end benchmark charges throughput to memory through the bytes
every committed transaction retains (docs/crypto.md), so the storage
side of the retirement horizon is pinned here by *object counts* on a
three-organisation order-execute network, sampled from block 4 to block
24: the WAL holds a block or two of records, pgLedger holds one version
per recorded transaction plus the last block's superseded ``pending``
ones, every index holds exactly one entry per version it indexes, the
repeated index keys are shared tuples, and the comb cache holds the
network's handful of identities.

Counts, not ``tracemalloc``: bigint arithmetic under tracemalloc is ~20x
slower, and `benchmarks/retained_bytes.py` reports the bytes.
"""

from repro.common.crypto import KEY_TABLES_MAX, key_tables_cached
from tests.conftest import make_kv_network

BLOCK_SIZE = 5
FIRST, LAST = 4, 24


def _distinct(keys):
    return len({id(key) for key in keys})


def _sample(node, block_txs):
    db = node.db
    ledger = db.catalog.heap_of("pgledger")
    kv = db.catalog.heap_of("kv")
    block_index = ledger.indexes["pgledger_block_idx"]
    user_index = ledger.indexes["pgledger_user_idx"]
    return {
        "height": db.committed_height,
        "wal_records": len(db.wal),
        "wal_gauge": db.metrics.snapshot()["gauges"][
            f'wal.records_retained{{node="{node.name}"}}'],
        "reclaim_queue": len(db._reclaimable),
        # One version per recorded transaction, plus the last block's
        # pending ones.
        "ledger_extra_versions": len(ledger) - len(
            {v.values["tx_id"] for v in ledger.all_versions()}),
        "ledger_index_excess": sum(
            len(index) - len(ledger) for index in ledger.indexes.values()),
        "kv_index_excess": sum(
            len(index) - len(kv) for index in kv.indexes.values()),
        "kv_versions_per_tx": len(kv) / (db.committed_height * block_txs),
        # Shared key tuples: one per distinct block / user, not per row.
        "block_keys": _distinct(block_index._keys
                                + block_index._pending_keys),
        "user_keys": _distinct(user_index._keys + user_index._pending_keys),
        "key_tables": key_tables_cached(),
    }


def test_retained_objects_per_transaction_are_flat(key_combs):
    net = make_kv_network("order-execute", block_size=BLOCK_SIZE)
    clients = [net.register_client(f"user@{org}", org)
               for org in ("org1", "org2", "org3")]
    samples = {node.name: [] for node in net.nodes}
    for number in range(LAST):
        for i in range(BLOCK_SIZE):
            clients[i % 3].invoke("set_kv", f"k{number}-{i}", i)
        net.settle(timeout=30.0)
        for node in net.nodes:
            samples[node.name].append(_sample(node, BLOCK_SIZE))
    net.assert_consistent()

    for name, series in samples.items():
        assert [s["height"] for s in series] == list(range(1, LAST + 1))
        steady = series[FIRST - 1:]
        for s in steady:
            # Exact figures, the same at block 4 and block 24.
            assert s["ledger_extra_versions"] == BLOCK_SIZE, (name, s)
            assert s["ledger_index_excess"] == 0, (name, s)
            assert s["kv_index_excess"] == 0, (name, s)
            assert s["kv_versions_per_tx"] == 1.0, (name, s)
            assert s["reclaim_queue"] == 1, (name, s)
            assert s["wal_records"] == s["wal_gauge"]
            # A block is BLOCK_SIZE transactions and two ledger writes,
            # two records each; the log keeps the last block or two.
            assert s["wal_records"] <= 4 * (BLOCK_SIZE + 2), (name, s)
            assert s["block_keys"] == s["height"], (name, s)
            assert s["user_keys"] == len(clients), (name, s)
        for figure in ("wal_records", "key_tables"):
            values = [s[figure] for s in steady]
            assert max(values) == min(values), (name, figure, values)
        # Clients, peers, orderers and admins: a handful, far below the
        # bound at which the cache would start evicting.
        assert 0 < steady[-1]["key_tables"] < KEY_TABLES_MAX
