"""pgLedger: the append-only ledger table (sections 3.3.2, 4.2).

Every transaction of every block is recorded here — first when the block
is processed (step 1), then with its commit/abort status once the block
commits (step 2).  The two-step write is what the recovery protocol of
section 3.6 keys on.  The table is a real SQL table so provenance queries
can join against it (Table 3: ``invoices.xmax = pgLedger.txid``).

Ledger writes go through short-lived *system transactions* so they are
versioned like everything else, but they are excluded from checkpoint
write-set hashes (commit_time is node-local wall clock and would never
match across nodes).

The two write steps run as **bulk heap operations** — one system
transaction per step, primary-key point lookups and direct versioned
inserts/updates with the same schema coercions the SQL path applies —
instead of one SELECT + one INSERT/UPDATE through the full SQL engine per
transaction (``tests/node/test_commit_pipeline.py`` holds those
statements and pins the rows equal).  Read helpers (:meth:`entry`,
:meth:`block_statuses`, ...) read the heap directly under the latest
committed snapshot without starting a transaction at all, so lookups burn
no xids or WAL records.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional

from repro.chain.block import Block
from repro.mvcc.database import Database
from repro.mvcc.transaction import TransactionContext, WriteSetEntry
from repro.sql.catalog import ColumnDef, TableSchema, coerce_value
from repro.storage.snapshot import SeqSnapshot
from repro.storage.visibility import visible_versions

LEDGER_TABLE = "pgledger"

STATUS_PENDING = "pending"
STATUS_COMMITTED = "committed"
STATUS_ABORTED = "aborted"

_ENTRY_COLUMNS = ("tx_id", "blocknumber", "blockposition", "txid",
                  "username", "procedure", "status", "reason", "committime")
_STATUS_COLUMNS = ("tx_id", "blockposition", "status", "reason", "txid")


def create_ledger_table(catalog) -> None:
    catalog.create_table(TableSchema(
        name=LEDGER_TABLE,
        columns=[
            ColumnDef("tx_id", "TEXT", not_null=True),
            ColumnDef("blocknumber", "INT", not_null=True),
            ColumnDef("blockposition", "INT", not_null=True),
            ColumnDef("txid", "INT"),          # local xid (joins with xmax)
            ColumnDef("username", "TEXT", not_null=True),
            ColumnDef("procedure", "TEXT", not_null=True),
            ColumnDef("args_text", "TEXT"),
            ColumnDef("status", "TEXT", not_null=True),
            ColumnDef("reason", "TEXT"),
            ColumnDef("committime", "FLOAT"),
        ],
        primary_key=["tx_id"], system=True), if_not_exists=True)
    catalog.create_index(f"{LEDGER_TABLE}_block_idx", LEDGER_TABLE,
                         ["blocknumber"], if_not_exists=True)
    catalog.create_index(f"{LEDGER_TABLE}_txid_idx", LEDGER_TABLE,
                         ["txid"], if_not_exists=True)
    catalog.create_index(f"{LEDGER_TABLE}_user_idx", LEDGER_TABLE,
                         ["username"], if_not_exists=True)


class Ledger:
    """Node-local interface to the pgLedger table."""

    def __init__(self, db: Database, clock=None):
        self.db = db
        self._clock = clock or time.time
        create_ledger_table(db.catalog)

    def _system_transaction(self, fn) -> TransactionContext:
        """Run ``fn(tx)`` in one system transaction."""
        tx = self.db.begin(allow_nondeterministic=True, username="@system")
        try:
            fn(tx)
        except BaseException:
            self.db.apply_abort(tx, reason="ledger write failed")
            raise
        self.db.apply_commit(tx, block_number=self.db.committed_height)
        return tx

    # -- direct heap access (shared by the bulk writes and all reads) --------

    def _heap(self):
        return self.db.catalog.heap_of(LEDGER_TABLE)

    def _pk_index(self):
        return self._heap().indexes[f"{LEDGER_TABLE}_pkey"]

    def _visible_by_pk(self, tx_id: str, own_xid: Optional[int] = None,
                       snapshot: Optional[SeqSnapshot] = None):
        """Latest-committed-visible ledger version for ``tx_id`` (plus the
        running system transaction's own writes when ``own_xid`` is set).
        Batched probes pass one ``snapshot`` for the whole loop."""
        heap = self._heap()
        if snapshot is None:
            snapshot = SeqSnapshot(self.db.statuses.current_commit_seq)
        visible = visible_versions(
            heap.resolve(self._pk_index().scan_eq([tx_id])), snapshot,
            self.db.statuses, own_xid)
        return visible[0] if visible else None

    def _coerced(self, values: Dict[str, Any]) -> Dict[str, Any]:
        """Apply the same per-column type coercions the SQL INSERT/UPDATE
        path applies, so these rows are byte-identical to SQL-written ones."""
        schema = self.db.catalog.schema_of(LEDGER_TABLE)
        out: Dict[str, Any] = {}
        for col in schema.columns:
            value = values.get(col.name)
            out[col.name] = None if value is None else \
                coerce_value(value, col.type_name, col.name)
        return out

    # -- step 1: record the block's transactions ------------------------------

    def record_block(self, block: Block) -> None:
        """Atomically insert one row per transaction (status pending):
        one system transaction, primary-key existence probes and direct
        versioned inserts — no SQL engine in the loop.

        Idempotent: rows already present (a crash between the ledger write
        and the status write, section 3.6) are left untouched so recovery
        can re-run block processing."""
        def _write(tx) -> None:
            heap = self._heap()
            for position, btx in enumerate(block.transactions):
                if self._visible_by_pk(btx.tx_id, own_xid=tx.xid) is not None:
                    continue
                values = self._coerced({
                    "tx_id": btx.tx_id,
                    "blocknumber": block.number,
                    "blockposition": position,
                    "txid": None,
                    "username": btx.username,
                    "procedure": btx.call.procedure,
                    "args_text": repr(list(btx.call.args)),
                    "status": STATUS_PENDING,
                    "reason": None,
                    "committime": None,
                })
                version = heap.insert_version(values, tx.xid)
                tx.record_write(WriteSetEntry(
                    table=LEDGER_TABLE, kind="insert", new_version=version))
        self._system_transaction(_write)

    # -- step 2: record statuses -----------------------------------------------

    def record_statuses(self, block: Block,
                        outcomes: Dict[str, Any]) -> None:
        """Atomically set the status of every transaction of ``block``.
        ``outcomes[tx_id] = (status, reason, local_xid)``.  One system
        transaction, one point lookup + one versioned update per
        transaction of the block.

        Delta-encoded: the changed columns coerce once per distinct
        ``(status, reason)`` pair — for the common all-committed block
        that is a single shared delta dict reused by every row, with only
        ``txid`` coerced per row — and the unchanged columns copy
        straight from the old version, whose values were already coerced
        when written (coercion is idempotent, so the resulting rows are
        byte-identical to the full per-column re-coercion).

        The ``pending`` versions this supersedes were created and deleted
        at one block height, so no ``AS OF`` read can see them; they are
        handed to the retirement horizon for reclaim."""
        schema = self.db.catalog.schema_of(LEDGER_TABLE)
        types = {col.name: col.type_name for col in schema.columns}

        def _coerce_one(value: Any, column: str) -> Any:
            return None if value is None else \
                coerce_value(value, types[column], column)

        committime = _coerce_one(self._clock(), "committime")
        deltas: Dict[Any, Dict[str, Any]] = {}

        def _write(tx) -> None:
            heap = self._heap()
            for btx in block.transactions:
                status, reason, local_xid = outcomes[btx.tx_id]
                delta = deltas.get((status, reason))
                if delta is None:
                    delta = {"status": _coerce_one(status, "status"),
                             "reason": _coerce_one(reason, "reason"),
                             "committime": committime}
                    deltas[(status, reason)] = delta
                old = self._visible_by_pk(btx.tx_id, own_xid=tx.xid)
                if old is None:
                    continue  # like an UPDATE that matches no row
                new_values = dict(old.values)
                new_values.update(delta)
                new_values["txid"] = _coerce_one(local_xid, "txid")
                new_version = heap.update_version(old, new_values, tx.xid)
                tx.record_write(WriteSetEntry(
                    table=LEDGER_TABLE, kind="update",
                    old_version=old, new_version=new_version))
        tx = self._system_transaction(_write)
        self.db.reclaim_at_horizon(LEDGER_TABLE, block.number, [
            entry.old_version for entry in tx.writes
            if entry.old_version is not None
            and entry.old_version.values["status"] == STATUS_PENDING])

    # -- queries (transaction-free committed-snapshot reads) ------------------

    def entry(self, tx_id: str) -> Optional[Dict[str, Any]]:
        version = self._visible_by_pk(tx_id)
        if version is None:
            return None
        return {col: version.values.get(col) for col in _ENTRY_COLUMNS}

    def has_transaction(self, tx_id: str) -> bool:
        return self._visible_by_pk(tx_id) is not None

    def prior_block_numbers(self, tx_ids: Iterable[str]) -> Dict[str, int]:
        """Recorded block number per known tx id — the block processor's
        batched duplicate probe (one pass instead of one query per tx)."""
        out: Dict[str, int] = {}
        snapshot = SeqSnapshot(self.db.statuses.current_commit_seq)
        for tx_id in tx_ids:
            version = self._visible_by_pk(tx_id, snapshot=snapshot)
            if version is not None:
                out[tx_id] = version.values["blocknumber"]
        return out

    def block_statuses(self, block_number: int) -> List[Dict[str, Any]]:
        heap = self._heap()
        index = heap.indexes[f"{LEDGER_TABLE}_block_idx"]
        snapshot = SeqSnapshot(self.db.statuses.current_commit_seq)
        rows = [version.values for version in visible_versions(
            heap.resolve(index.scan_eq([block_number])), snapshot,
            self.db.statuses, None)]
        rows.sort(key=lambda values: values["blockposition"])
        return [{col: values.get(col) for col in _STATUS_COLUMNS}
                for values in rows]

    def last_recorded_block(self) -> Optional[int]:
        heap = self._heap()
        index = heap.indexes[f"{LEDGER_TABLE}_block_idx"]
        snapshot = SeqSnapshot(self.db.statuses.current_commit_seq)
        last: Optional[int] = None
        for version in reversed(heap.resolve(index.scan_all())):
            if visible_versions((version,), snapshot, self.db.statuses,
                                None):
                last = version.values["blocknumber"]
                break
        return last
