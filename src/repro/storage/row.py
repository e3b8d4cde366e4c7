"""Row versions.

PostgreSQL keeps every version of a row: each tuple header carries ``xmin``
(the transaction that created it) and ``xmax`` (the transaction that deleted
or replaced it); an update is a delete plus an insert (section 4.1).  The
paper adds two more fields per row (section 4.3): the **creator block
number** and **deleter block number**, which power the block-height snapshot
isolation and provenance queries.

The paper also changes ww-conflict handling (section 4.3): instead of an
exclusive row lock, competing writers all record themselves in an *array of
xmax candidates* and the serial commit step lets exactly one win.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Optional, Set, Union

#: Shared by every version nobody has tried to delete, i.e. almost all
#: of them: an empty ``set()`` per version would cost 216 bytes each.
_NO_CANDIDATES: FrozenSet[int] = frozenset()


class RowVersion:
    """One immutable version of a logical row.

    Attributes
    ----------
    version_id:
        Physical identifier, unique within a table (the analogue of ctid).
    row_id:
        Logical row identity; all versions of the same row share it.
    values:
        Column name -> value mapping for this version.
    xmin:
        Transaction id that created the version.
    xmax_winner:
        Transaction id that deleted/replaced the version and *committed*
        (or is the designated winner pending commit).  ``None`` while live.
    xmax_candidates:
        The paper's xmax array: ids of concurrent transactions that have
        marked this version for deletion but not yet won the serial commit.
        Read-only to callers — it is a shared empty frozenset until the
        first candidate arrives and again once a winner is set; change it
        through the methods below and ask :meth:`deleted_by`, which also
        knows the winner.
    creator_block / deleter_block:
        Block heights stamped at commit time; drive block-height snapshots
        (execute-order-in-parallel) and provenance queries.
    """

    # Hand-written slots (one instance per row version ever written; CI
    # still runs Python 3.9, which has no ``dataclass(slots=True)``).
    __slots__ = ("version_id", "row_id", "values", "xmin", "xmax_winner",
                 "xmax_candidates", "creator_block", "deleter_block")

    def __init__(self, version_id: int, row_id: int,
                 values: Dict[str, Any], xmin: int,
                 xmax_winner: Optional[int] = None,
                 creator_block: Optional[int] = None,
                 deleter_block: Optional[int] = None):
        self.version_id = version_id
        self.row_id = row_id
        self.values = values
        self.xmin = xmin
        self.xmax_winner = xmax_winner
        self.xmax_candidates: Union[Set[int], FrozenSet[int]] = \
            _NO_CANDIDATES
        self.creator_block = creator_block
        self.deleter_block = deleter_block

    def __repr__(self) -> str:
        return (f"RowVersion(version_id={self.version_id}, "
                f"row_id={self.row_id}, values={self.values!r}, "
                f"xmin={self.xmin}, xmax_winner={self.xmax_winner}, "
                f"xmax_candidates={set(self.xmax_candidates)}, "
                f"creator_block={self.creator_block}, "
                f"deleter_block={self.deleter_block})")

    def mark_delete_candidate(self, xid: int) -> None:
        """Record ``xid`` in the xmax array (no lock taken — section 4.3)."""
        if self.xmax_candidates:
            self.xmax_candidates.add(xid)
        else:
            self.xmax_candidates = {xid}

    def clear_delete_candidate(self, xid: int) -> None:
        """Remove ``xid`` from the xmax array (on abort or rollback)."""
        if xid in self.xmax_candidates:
            self.xmax_candidates.discard(xid)
            if not self.xmax_candidates:
                self.xmax_candidates = _NO_CANDIDATES
        if self.xmax_winner == xid:
            self.xmax_winner = None

    def deleted_by(self, xid: int) -> bool:
        """True when ``xid`` marked this version for deletion, as a
        candidate still or as the winner."""
        return xid in self.xmax_candidates or xid == self.xmax_winner

    def set_delete_winner(self, xid: int, block_number: Optional[int]) -> None:
        """Commit-time resolution: ``xid`` wins the write; everyone else in
        the array will be aborted by the SSI layer.  The winner is
        recorded in ``xmax_winner`` alone: a one-element set per
        superseded version would outlive every reader of the array."""
        self.xmax_winner = xid
        self.deleter_block = block_number
        self.xmax_candidates = _NO_CANDIDATES

    @property
    def is_dead(self) -> bool:
        """True once a deleter has committed (version superseded)."""
        return self.xmax_winner is not None and self.deleter_block is not None

    def provenance_header(self) -> Dict[str, Any]:
        """The pseudo-columns exposed to provenance queries (section 4.2)."""
        return {
            "xmin": self.xmin,
            "xmax": self.xmax_winner,
            "creator": self.creator_block,
            "deleter": self.deleter_block,
            "row_id": self.row_id,
            "version_id": self.version_id,
        }
