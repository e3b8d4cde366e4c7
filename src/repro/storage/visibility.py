"""Row visibility rules.

This is the heart of snapshot isolation: given a row version, a snapshot,
the transaction status table, and the reading transaction's own xid, decide
whether the version is visible.  The paper *extends* PostgreSQL's xmin/xmax
visibility with creator/deleter block-number conditions (section 4.3):
"We enhance the row visibility logic to have additional conditions using the
row's creator and deleter block number and the snapshot-height of the
transaction."
"""

from __future__ import annotations

from typing import Optional, Union

from repro.storage.row import RowVersion
from repro.storage.snapshot import (
    BlockSnapshot,
    SeqSnapshot,
    TxStatusTable,
)

Snapshot = Union[SeqSnapshot, BlockSnapshot]

# The predicates below read the status table's array directly:
# ``statuses._seqs[xid]`` is a commit sequence number exactly when it is
# positive, and an xid past the end was never begun (see TxStatusTable).


def version_visible(version: RowVersion, snapshot: Snapshot,
                    statuses: TxStatusTable, own_xid: Optional[int]) -> bool:
    """Return True when ``version`` is visible to a transaction running with
    ``snapshot`` whose transaction id is ``own_xid``.

    Rules (mirroring PostgreSQL's HeapTupleSatisfiesMVCC, extended with
    block heights):

    * A version created by the reader itself is visible unless the reader
      also deleted it.
    * Otherwise the creating transaction must be committed *within* the
      snapshot (by commit-seq or by creator block height).
    * The version must not be deleted within the snapshot: its delete winner
      must be absent, aborted, uncommitted, outside the snapshot — and the
      reader itself must not have marked it deleted.
    """
    if own_xid is not None and version.xmin == own_xid:
        # Own insert: invisible only if we deleted it ourselves.
        return not version.deleted_by(own_xid)
    seqs = statuses._seqs
    xmin = version.xmin
    creator_seq = seqs[xmin] if xmin < len(seqs) else 0
    if creator_seq <= 0:
        return False
    if isinstance(snapshot, SeqSnapshot):
        if not snapshot.includes_commit(creator_seq):
            return False
    else:
        if not snapshot.includes_block(version.creator_block):
            return False
    # Deletion check: our own pending delete hides the row from ourselves.
    if own_xid is not None and version.deleted_by(own_xid):
        return False
    winner = version.xmax_winner
    if winner is None:
        return True
    deleter_seq = seqs[winner] if winner < len(seqs) else 0
    if deleter_seq <= 0:
        return True
    if isinstance(snapshot, SeqSnapshot):
        return not snapshot.includes_commit(deleter_seq)
    return not snapshot.includes_block(version.deleter_block)


def version_committed_in_window(version: RowVersion, statuses: TxStatusTable,
                                low_height: int, high_height: int) -> bool:
    """True when the version was *created* by a commit in block heights
    ``(low_height, high_height]`` — the window a phantom-read check must
    inspect (section 3.4.1 rule 1)."""
    if version.creator_block is None:
        return False
    seqs, xmin = statuses._seqs, version.xmin
    if xmin >= len(seqs) or seqs[xmin] <= 0:
        return False
    return low_height < version.creator_block <= high_height


def version_deleted_in_window(version: RowVersion, statuses: TxStatusTable,
                              low_height: int, high_height: int) -> bool:
    """True when the version was *deleted* by a commit in block heights
    ``(low_height, high_height]`` — the stale-read window (section 3.4.1
    rule 2)."""
    if version.deleter_block is None or version.xmax_winner is None:
        return False
    seqs, winner = statuses._seqs, version.xmax_winner
    if winner >= len(seqs) or seqs[winner] <= 0:
        return False
    return low_height < version.deleter_block <= high_height


def latest_committed_visible(version: RowVersion,
                             statuses: TxStatusTable) -> bool:
    """Visibility against the *latest* committed state (used by the commit
    validator and by provenance's "currently active" checks)."""
    seqs, xmin = statuses._seqs, version.xmin
    if xmin >= len(seqs) or seqs[xmin] <= 0:
        return False
    winner = version.xmax_winner
    return winner is None or winner >= len(seqs) or seqs[winner] <= 0
