"""Transaction status table and snapshot definitions.

Two snapshot flavours exist in the system:

* :class:`SeqSnapshot` — classic snapshot isolation: the transaction sees
  every commit with a commit sequence number at or below the snapshot's.
  Used by the order-then-execute flow, where every transaction of a block
  runs on the committed state of the previous block.

* :class:`BlockSnapshot` — the paper's *SSI based on block height*
  (section 3.4.1, Figure 3): the transaction sees exactly the database
  state as of a block height ``h`` — rows with ``creator <= h`` whose
  ``deleter`` is empty or ``> h`` — regardless of how far the node has
  committed beyond ``h``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional


class TxStatus(Enum):
    """Lifecycle states of a transaction id."""

    IN_PROGRESS = "in_progress"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxRecord:
    """Status entry for one transaction id (one per xid ever started,
    hence the hand-written slots)."""

    __slots__ = ("xid", "status", "commit_seq", "commit_block")

    def __init__(self, xid: int,
                 status: TxStatus = TxStatus.IN_PROGRESS,
                 commit_seq: Optional[int] = None,
                 commit_block: Optional[int] = None):
        self.xid = xid
        self.status = status
        self.commit_seq = commit_seq      # global serial commit order
        self.commit_block = commit_block  # block height at commit

    def __repr__(self) -> str:
        return (f"TxRecord(xid={self.xid}, status={self.status}, "
                f"commit_seq={self.commit_seq}, "
                f"commit_block={self.commit_block})")


class TxStatusTable:
    """The analogue of PostgreSQL's CLOG: xid -> status/commit position."""

    def __init__(self):
        self._records: Dict[int, TxRecord] = {}
        self._next_commit_seq = 1

    def begin(self, xid: int) -> TxRecord:
        if xid in self._records:
            raise ValueError(f"xid {xid} already exists")
        record = TxRecord(xid=xid)
        self._records[xid] = record
        return record

    def commit(self, xid: int, block_number: Optional[int] = None) -> TxRecord:
        record = self._records[xid]
        if record.status is not TxStatus.IN_PROGRESS:
            raise ValueError(f"xid {xid} is {record.status.value}, not in progress")
        record.status = TxStatus.COMMITTED
        record.commit_seq = self._next_commit_seq
        record.commit_block = block_number
        self._next_commit_seq += 1
        return record

    def abort(self, xid: int) -> TxRecord:
        record = self._records[xid]
        if record.status is not TxStatus.IN_PROGRESS:
            raise ValueError(f"xid {xid} is {record.status.value}, not in progress")
        record.status = TxStatus.ABORTED
        return record

    def get(self, xid: int) -> TxRecord:
        return self._records[xid]

    def status_of(self, xid: int) -> TxStatus:
        record = self._records.get(xid)
        return record.status if record else TxStatus.ABORTED

    def is_committed(self, xid: int) -> bool:
        return self.status_of(xid) is TxStatus.COMMITTED

    def is_aborted(self, xid: int) -> bool:
        record = self._records.get(xid)
        return record is None or record.status is TxStatus.ABORTED

    def commit_seq(self, xid: int) -> Optional[int]:
        record = self._records.get(xid)
        return record.commit_seq if record else None

    @property
    def current_commit_seq(self) -> int:
        """Sequence number that the *next* commit will receive minus one —
        i.e. the high-water mark of committed work."""
        return self._next_commit_seq - 1

    def rollback_commit(self, xid: int) -> None:
        """Recovery support (section 3.6): demote a committed transaction
        back to in-progress so the block can be re-executed."""
        record = self._records[xid]
        record.status = TxStatus.IN_PROGRESS
        record.commit_seq = None
        record.commit_block = None


@dataclass(frozen=True)
class SeqSnapshot:
    """Sees all commits with ``commit_seq <= seq``."""

    seq: int

    def includes_commit(self, commit_seq: Optional[int]) -> bool:
        return commit_seq is not None and commit_seq <= self.seq


@dataclass(frozen=True)
class BlockSnapshot:
    """Sees the committed state as of block ``height`` (inclusive)."""

    height: int

    def includes_block(self, block_number: Optional[int]) -> bool:
        return block_number is not None and block_number <= self.height
