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

from typing import Iterable, List, Optional, Union

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


def visible_versions(candidates: Iterable[RowVersion], snapshot: Snapshot,
                     statuses: TxStatusTable,
                     own_xid: Optional[int]) -> List[RowVersion]:
    """The versions of ``candidates`` visible to a transaction running
    with ``snapshot`` whose transaction id is ``own_xid``, in candidate
    order — the one implementation of the rules (a single version is
    asked about as a one-element tuple).  Mirroring PostgreSQL's
    HeapTupleSatisfiesMVCC, extended with block heights:

    * a version the reader marked deleted (candidate or winner) is
      invisible to it; one it created itself is otherwise visible;
    * otherwise the creating transaction must be committed *within* the
      snapshot (by commit-seq or by creator block height), and its delete
      winner must be absent, aborted, uncommitted or outside the snapshot.

    The snapshot kind and the status array are read once per call, not
    once per version."""
    seqs = statuses._seqs
    n = len(seqs)
    own = -1 if own_xid is None else own_xid   # no version names xid -1
    by_seq = isinstance(snapshot, SeqSnapshot)
    limit = snapshot.seq if by_seq else snapshot.height
    out: List[RowVersion] = []
    for version in candidates:
        if own in version.xmax_candidates or version.xmax_winner == own:
            continue
        xmin = version.xmin
        if xmin != own:
            seq = seqs[xmin] if xmin < n else 0
            created = seq if by_seq else version.creator_block
            if seq <= 0 or created is None or created > limit:
                continue
            winner = version.xmax_winner
            if winner is not None:
                seq = seqs[winner] if winner < n else 0
                deleted = seq if by_seq else version.deleter_block
                if seq > 0 and deleted is not None and deleted <= limit:
                    continue
        out.append(version)
    return out


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
