"""Transaction contexts and read/write-set tracking.

A :class:`TransactionContext` is the analogue of a PostgreSQL backend's
transaction state: an xid, a snapshot, and — because we run under SSI — the
SIREAD bookkeeping: which predicate (index range or whole-table) reads were
performed, and which versions were written.  The SSI validators
(:mod:`repro.mvcc.ssi`, :mod:`repro.mvcc.block_ssi`) derive
rw-antidependency edges from these sets.  There is no per-row read set:
docs/sql_engine.md, "Where the SSI hooks live", says why none is needed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.errors import TransactionAborted, TransactionNotActive
from repro.storage.index import normalize_key
from repro.storage.row import RowVersion
from repro.storage.snapshot import BlockSnapshot, SeqSnapshot

Snapshot = Union[SeqSnapshot, BlockSnapshot]


class TxState(Enum):
    ACTIVE = "active"
    PREPARED = "prepared"          # execution done, awaiting serial commit
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(unsafe_hash=True)
class PredicateRead:
    """An index-range (or whole-table) read — the SIREAD lock analogue.

    ``columns = ()`` denotes a full-table predicate (matches any write).
    ``low_key``/``high_key`` are normalized index keys or None for
    unbounded ends.  Never written once made (not frozen: a frozen
    ``__init__`` costs 4x, and a nested-loop join makes one per probe).
    """

    table: str
    columns: Tuple[str, ...]
    low_key: Optional[Tuple] = None
    high_key: Optional[Tuple] = None
    low_inclusive: bool = True
    high_inclusive: bool = True

    def matches_values(self, values: Dict[str, Any]) -> bool:
        """Does a row with ``values`` fall inside this predicate range?"""
        if not self.columns:
            return True
        try:
            key = normalize_key([values.get(c) for c in self.columns])
        except Exception:
            return True  # unindexable value: be conservative
        return self.matches_key(key)

    def matches_key(self, key: Tuple) -> bool:
        """The range test itself, over a row image's normalized
        ``columns``-key — its one implementation: :meth:`matches_values`
        normalizes and asks here, the commit path's ``ConflictIndex``
        normalizes each written image once and asks here per predicate."""
        if self.low_key is not None:
            prefix = key[:len(self.low_key)]
            if prefix < self.low_key:
                return False
            if prefix == self.low_key and not self.low_inclusive:
                return False
        if self.high_key is not None:
            prefix = key[:len(self.high_key)]
            if prefix > self.high_key:
                return False
            if prefix == self.high_key and not self.high_inclusive:
                return False
        return True


@dataclass
class WriteSetEntry:
    """One write: an insert, update (delete+insert) or delete."""

    table: str
    kind: str  # "insert" | "update" | "delete"
    old_version: Optional[RowVersion] = None
    new_version: Optional[RowVersion] = None

    def to_canonical(self) -> dict:
        """Canonical form used for the checkpoint write-set hash.

        Deliberately excludes physical row/version ids: those are per-node
        allocation artifacts (a node that executed-and-aborted an extra
        transaction burns ids), while the digest must be identical across
        honest nodes (section 3.3.4)."""
        payload: Dict[str, Any] = {"table": self.table, "kind": self.kind}
        if self.old_version is not None:
            payload["old_values"] = {
                k: self.old_version.values[k]
                for k in sorted(self.old_version.values)}
        if self.new_version is not None:
            payload["new_values"] = {
                k: self.new_version.values[k]
                for k in sorted(self.new_version.values)}
        return payload


class TransactionContext:
    """Execution state of one transaction on one node."""

    _xid_counter = itertools.count(1)

    def __init__(self, xid: int, snapshot: Snapshot, *,
                 tx_id: str = "", username: str = "",
                 begin_seq: int = 0,
                 block_number: Optional[int] = None,
                 allow_nondeterministic: bool = False,
                 require_index: bool = False,
                 forbid_blind_updates: bool = False,
                 read_only: bool = False,
                 provenance: bool = False):
        self.xid = xid
        self.snapshot = snapshot
        self.tx_id = tx_id
        self.username = username
        self.begin_seq = begin_seq
        # lsn of the WAL begin record: every record of this transaction
        # is at or above it (``Database.begin`` stamps it).
        self.begin_lsn = 0
        self.block_number = block_number     # block this tx commits in
        self.block_position: Optional[int] = None  # index within the block
        self.state = TxState.ACTIVE
        self.abort_reason: str = ""
        self.marked_for_abort: bool = False  # set by SSI on other backends

        # Execution policy flags
        self.allow_nondeterministic = allow_nondeterministic
        self.require_index = require_index
        self.forbid_blind_updates = forbid_blind_updates
        self.read_only = read_only
        self.provenance = provenance

        # SIREAD bookkeeping
        self.predicate_reads: List[PredicateRead] = []
        self.writes: List[WriteSetEntry] = []
        self.tables_written: Set[str] = set()

        # Result of contract execution (RETURN value, notices)
        self.return_value: Any = None
        self.notices: List[str] = []

        # Contract bookkeeping: which procedures (and versions) this tx
        # invoked — a contract replacement aborts in-flight transactions
        # that executed the old version (section 3.7) — and deferred
        # actions the node applies only once the tx commits (e.g. contract
        # registry mutations, certificate registration).
        self.contract_versions: Dict[str, int] = {}
        self.on_commit_actions: List[Any] = []

    # ------------------------------------------------------------------

    def check_active(self) -> None:
        if self.state is TxState.ABORTED:
            raise TransactionAborted(
                f"transaction {self.tx_id or self.xid} aborted: "
                f"{self.abort_reason}")
        if self.state not in (TxState.ACTIVE, TxState.PREPARED):
            raise TransactionNotActive(
                f"transaction {self.tx_id or self.xid} is "
                f"{self.state.value}")

    def record_predicate_read(self, predicate: PredicateRead) -> None:
        self.predicate_reads.append(predicate)

    def record_write(self, entry: WriteSetEntry) -> None:
        self.writes.append(entry)
        self.tables_written.add(entry.table)

    # ------------------------------------------------------------------

    @property
    def is_committed(self) -> bool:
        return self.state is TxState.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self.state is TxState.ABORTED

    @property
    def has_writes(self) -> bool:
        return bool(self.writes)

    def write_values_by_table(self) -> Dict[str, List[Dict[str, Any]]]:
        """All row images (old and new) this tx touched, for predicate-range
        conflict checks."""
        out: Dict[str, List[Dict[str, Any]]] = {}
        for entry in self.writes:
            bucket = out.setdefault(entry.table, [])
            if entry.new_version is not None:
                bucket.append(entry.new_version.values)
            if entry.old_version is not None:
                bucket.append(entry.old_version.values)
        return out

    def __repr__(self) -> str:
        return (f"<Tx xid={self.xid} id={self.tx_id[:8]} "
                f"state={self.state.value}>")
