"""Write-ahead log with block-granular group commit.

Section 3.6 relies on two logs for recovery: the default transaction log
(which transactions committed) and the ledger table.  This module provides
the transaction-log half: an append-only sequence of typed records with an
explicit flush boundary, so tests can crash a node at any record boundary
and exercise the recovery protocol.

Group commit: appends never serialize.  Records buffer in memory as plain
objects until :meth:`WriteAheadLog.flush` — the block processor's
durability boundaries (after the ledger record, after the serial commit,
after the status record) — which serializes each record exactly once and
writes the whole batch with a single file append.  ``WALRecord.to_json``
caches its result, so a record is never serialized twice (a re-flush, a
recovery scan, and an observability dump all reuse the first rendering).
Group commit changes when bytes reach the file, never which bytes.

Recycling: recovery only ever asks for the records of transactions above
the database's retirement horizon, so :meth:`WriteAheadLog.recycle`
drops the persisted records at or below it from memory (the file, when
there is one, keeps them).  What remains starts at ``_base_lsn + 1``.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from ..obs.metrics import MetricsScope, private_scope

WAL_BEGIN = "begin"
WAL_INSERT = "insert"
WAL_UPDATE = "update"
WAL_DELETE = "delete"
WAL_COMMIT = "commit"
WAL_ABORT = "abort"
WAL_BLOCK_START = "block_start"
WAL_BLOCK_END = "block_end"
WAL_CHECKPOINT = "checkpoint"


class WALRecord:
    """One log record.  Serialization is lazy and cached: the commit hot
    path only allocates the record object; JSON is rendered on the first
    ``to_json`` call (typically the group-commit flush) and reused after."""

    __slots__ = ("lsn", "kind", "payload", "_json")

    def __init__(self, lsn: int, kind: str,
                 payload: Optional[Dict[str, Any]] = None):
        self.lsn = lsn
        self.kind = kind
        self.payload = payload if payload is not None else {}
        self._json: Optional[str] = None

    def __repr__(self) -> str:
        return (f"WALRecord(lsn={self.lsn}, kind={self.kind!r}, "
                f"payload={self.payload!r})")

    def to_json(self) -> str:
        if self._json is None:
            self._json = json.dumps(
                {"lsn": self.lsn, "kind": self.kind,
                 "payload": self.payload}, sort_keys=True)
        return self._json

    @classmethod
    def from_json(cls, line: str) -> "WALRecord":
        data = json.loads(line)
        return cls(lsn=data["lsn"], kind=data["kind"],
                   payload=data["payload"])


class WriteAheadLog:
    """In-memory WAL with optional file persistence.

    ``flushed_lsn`` models the fsync horizon: records past it are lost on a
    simulated crash (:meth:`crash`).  File persistence is append-only:
    each flush serializes only the records appended since the previous
    flush and writes them in one call (group commit), instead of
    re-serializing and rewriting the whole log every time.
    """

    def __init__(self, path: Optional[str] = None,
                 metrics: Optional[MetricsScope] = None):
        # ``_records[i].lsn == _base_lsn + i + 1`` — true from birth
        # through crash, load and recycling.
        self._records: List[WALRecord] = []
        self._base_lsn = 0
        self._next_lsn = 1
        self._flushed_lsn = 0
        self._path = path
        # Records up to this lsn are already in the file; everything
        # past it is serialized + appended by the next flush.
        self._persisted_lsn = 0
        # Observability: group-commit batch sizes, on the unified
        # registry (a standalone WAL gets a private scope so counters
        # start at zero; a node-owned WAL shares the node's scope and so
        # survives crash/restart of the WAL object itself).
        self.metrics = metrics if metrics is not None else private_scope()
        self._flush_count = self.metrics.counter("wal.flush_count")
        self._records_flushed = self.metrics.counter("wal.records_flushed")
        self.metrics.gauge("wal.records_retained", fn=self.__len__)
        # Covers flush, group and recycle bookkeeping.
        self._flush_lock = threading.Lock()
        # Recovery group commit (``group()``): >0 suppresses file appends
        # so a whole replay batch serializes/writes once at group exit.
        self._group_depth = 0
        if path and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    record = WALRecord.from_json(line)
                    self._records.append(record)
                    self._next_lsn = record.lsn + 1
        self._flushed_lsn = self._persisted_lsn = self._next_lsn - 1

    def append(self, kind: str, **payload: Any) -> WALRecord:
        record = WALRecord(lsn=self._next_lsn, kind=kind, payload=payload)
        self._records.append(record)
        self._next_lsn += 1
        return record

    def flush(self) -> None:
        """Durably persist appended records (group commit: one
        serialization pass, one file append per batch)."""
        with self._flush_lock:
            self._flushed_lsn = self._next_lsn - 1
            if self._group_depth:
                return
            self._flush_file()

    def _flush_file(self) -> None:
        """Serialize + append the durable-but-unpersisted prefix (callers
        hold ``_flush_lock``): a plain slice, lsns being contiguous."""
        end = self._flushed_lsn
        base = self._base_lsn
        batch = self._records[self._persisted_lsn - base:end - base]
        if not batch:
            return
        self._flush_count.inc()
        self._records_flushed.inc(len(batch))
        if self._path:
            with open(self._path, "a", encoding="utf-8") as handle:
                handle.write("".join(record.to_json() + "\n"
                                     for record in batch))
        self._persisted_lsn = end

    def recycle(self, upto_lsn: int) -> int:
        """Forget the records at or below ``upto_lsn`` that are already
        persisted; returns how many went.  The caller (the retirement
        horizon, ``Database.retire_finished``) guarantees that recovery
        no longer asks for them."""
        with self._flush_lock:
            dropped = min(upto_lsn, self._persisted_lsn) - self._base_lsn
            if dropped <= 0:
                return 0
            del self._records[:dropped]
            self._base_lsn += dropped
            return dropped

    def mark(self) -> int:
        """Last allocated lsn."""
        return self._next_lsn - 1

    @contextmanager
    def group(self):
        """Recovery/catch-up group commit: flushes inside the block only
        advance the durability horizon; serialization and the file append
        happen once, at group exit.  Re-entrant (nested groups fold into
        the outermost)."""
        with self._flush_lock:
            self._group_depth += 1
        try:
            yield self
        finally:
            with self._flush_lock:
                self._group_depth -= 1
                if self._group_depth == 0:
                    self._flush_file()

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def crash(self) -> None:
        """Simulate a crash: drop unflushed records."""
        self._records = [r for r in self._records if r.lsn <= self._flushed_lsn]
        self._next_lsn = self._flushed_lsn + 1

    def records(self, kind: Optional[str] = None) -> Iterator[WALRecord]:
        for record in self._records:
            if record.lsn > self._flushed_lsn:
                continue
            if kind is None or record.kind == kind:
                yield record

    def committed_xids(self) -> List[int]:
        """All retained xids with a durable commit record (recovery
        step 3)."""
        return [r.payload["xid"] for r in self.records(WAL_COMMIT)]

    def __len__(self) -> int:
        """Records retained in memory."""
        return len(self._records)
