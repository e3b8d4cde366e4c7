"""MVCC storage engine: versioned heap tables, indexes, snapshots,
visibility, WAL and the block store."""

from repro.storage.blockstore import BlockStore
from repro.storage.index import Index, normalize_key, normalize_key_part
from repro.storage.row import RowVersion
from repro.storage.snapshot import (
    BlockSnapshot,
    SeqSnapshot,
    TxRecord,
    TxStatus,
    TxStatusTable,
)
from repro.storage.table import HeapTable
from repro.storage.visibility import (
    version_committed_in_window,
    version_deleted_in_window,
    visible_versions,
)
from repro.storage.wal import (
    WAL_ABORT,
    WAL_BEGIN,
    WAL_BLOCK_END,
    WAL_BLOCK_START,
    WAL_CHECKPOINT,
    WAL_COMMIT,
    WAL_DELETE,
    WAL_INSERT,
    WAL_UPDATE,
    WALRecord,
    WriteAheadLog,
)

__all__ = [
    "BlockStore", "Index", "normalize_key", "normalize_key_part",
    "RowVersion", "BlockSnapshot", "SeqSnapshot", "TxRecord", "TxStatus",
    "TxStatusTable", "HeapTable",
    "version_committed_in_window", "version_deleted_in_window",
    "visible_versions", "WALRecord", "WriteAheadLog",
    "WAL_ABORT", "WAL_BEGIN", "WAL_BLOCK_END", "WAL_BLOCK_START",
    "WAL_CHECKPOINT", "WAL_COMMIT", "WAL_DELETE", "WAL_INSERT", "WAL_UPDATE",
]
