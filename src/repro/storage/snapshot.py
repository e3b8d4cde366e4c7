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

from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class TxStatus(Enum):
    """Lifecycle states of a transaction id."""

    IN_PROGRESS = "in_progress"
    COMMITTED = "committed"
    ABORTED = "aborted"


class TxRecord:
    """Status of one transaction id, as :class:`TxStatusTable` reports
    it: a value, not the stored form."""

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


# ``TxStatusTable._seqs`` values that are not a commit sequence number.
_NEVER_BEGUN = 0
_IN_PROGRESS = -1
_ABORTED = -2


class TxStatusTable:
    """The analogue of PostgreSQL's CLOG: xid -> status/commit position.

    Like the CLOG it is an array, not a map: a database numbers its
    transactions densely from 1 and every one of them keeps its status
    for as long as a row version names it, so the table is two 8-byte
    slots per xid — ``_seqs[xid]`` is the commit sequence number (> 0)
    or one of the markers above, ``_blocks[xid]`` the commit block —
    where a record object in a dict cost ~200 bytes.  The visibility
    predicates read ``_seqs`` directly: committed is ``_seqs[xid] > 0``,
    and an xid beyond the array was never begun."""

    def __init__(self):
        self._seqs = array("q")
        self._blocks = array("q")
        self._next_commit_seq = 1

    def _seq(self, xid: int) -> int:
        return self._seqs[xid] if 0 <= xid < len(self._seqs) \
            else _NEVER_BEGUN

    def _require_in_progress(self, xid: int) -> None:
        state = self._seq(xid)
        if state == _NEVER_BEGUN:
            raise KeyError(xid)
        if state != _IN_PROGRESS:
            raise ValueError(f"xid {xid} is {self.status_of(xid).value}, "
                             f"not in progress")

    def begin(self, xid: int) -> TxRecord:
        if self._seq(xid) != _NEVER_BEGUN:
            raise ValueError(f"xid {xid} already exists")
        grow = xid + 1 - len(self._seqs)
        if grow > 0:
            self._seqs.extend([_NEVER_BEGUN] * grow)
            self._blocks.extend([-1] * grow)
        self._seqs[xid] = _IN_PROGRESS
        return TxRecord(xid=xid)

    def commit(self, xid: int, block_number: Optional[int] = None) -> TxRecord:
        self._require_in_progress(xid)
        self._seqs[xid] = self._next_commit_seq
        self._blocks[xid] = -1 if block_number is None else block_number
        self._next_commit_seq += 1
        return self.get(xid)

    def abort(self, xid: int) -> TxRecord:
        self._require_in_progress(xid)
        self._seqs[xid] = _ABORTED
        return self.get(xid)

    def get(self, xid: int) -> TxRecord:
        state = self._seq(xid)
        if state == _NEVER_BEGUN:
            raise KeyError(xid)
        if state > 0:
            block = self._blocks[xid]
            return TxRecord(xid, TxStatus.COMMITTED, state,
                            None if block < 0 else block)
        return TxRecord(xid, TxStatus.IN_PROGRESS if state == _IN_PROGRESS
                        else TxStatus.ABORTED)

    def status_of(self, xid: int) -> TxStatus:
        state = self._seq(xid)
        if state > 0:
            return TxStatus.COMMITTED
        return TxStatus.IN_PROGRESS if state == _IN_PROGRESS \
            else TxStatus.ABORTED

    def is_committed(self, xid: int) -> bool:
        return self._seq(xid) > 0

    def is_aborted(self, xid: int) -> bool:
        return self._seq(xid) in (_ABORTED, _NEVER_BEGUN)

    def commit_seq(self, xid: int) -> Optional[int]:
        state = self._seq(xid)
        return state if state > 0 else None

    @property
    def current_commit_seq(self) -> int:
        """Sequence number that the *next* commit will receive minus one —
        i.e. the high-water mark of committed work."""
        return self._next_commit_seq - 1

    def rollback_commit(self, xid: int) -> None:
        """Recovery support (section 3.6): demote a committed transaction
        back to in-progress so the block can be re-executed."""
        if self._seq(xid) == _NEVER_BEGUN:
            raise KeyError(xid)
        self._seqs[xid] = _IN_PROGRESS
        self._blocks[xid] = -1


@dataclass(frozen=True)
class SeqSnapshot:
    """Sees all commits with ``commit_seq <= seq``."""

    seq: int


@dataclass(frozen=True)
class BlockSnapshot:
    """Sees the committed state as of block ``height`` (inclusive)."""

    height: int
