"""Serializable Snapshot Isolation — the *abort during commit* variant.

This is the Ports & Grittner heuristic the paper adopts for the
order-then-execute flow (section 3.3): when transaction T enters its serial
commit step,

* for every dangerous structure ``F ->rw N ->rw T`` where N and F are both
  uncommitted, the nearConflict N is aborted (an immediate retry of N can
  then succeed);
* a wr-style structure — T has an inConflict *and* an outConflict that has
  already committed — aborts T itself ("the heuristic ... aborts a
  transaction whose outConflict has committed").

Also hosts the ww (lost-update) validation shared by both flows: because
the commit order is fixed by consensus, writes to the same object do not
block each other during execution (the xmax-candidate array, section 4.3);
at serial commit the first writer wins and every later concurrent writer
of the same version aborts.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import SerializationFailure
from repro.mvcc.conflicts import (
    ConflictIndex,
    near_conflicts,
    out_conflicts,
)
from repro.mvcc.database import Database
from repro.mvcc.transaction import TransactionContext, TxState


def validate_ww(db: Database, tx: TransactionContext) -> None:
    """First-committer-wins over the xmax-candidate arrays.

    Raises :class:`SerializationFailure` when any old version this
    transaction replaced/deleted has already been claimed by a *committed*
    writer (lost update)."""
    for entry in tx.writes:
        old = entry.old_version
        if old is None:
            continue
        winner = old.xmax_winner
        if winner is not None and winner != tx.xid \
                and db.statuses.is_committed(winner):
            raise SerializationFailure(
                f"ww-conflict on {entry.table!r} row {old.row_id}: "
                f"version already replaced by committed xid {winner}",
                reason="ww-conflict")


class AbortDuringCommitSSI:
    """Commit-time validator for the order-then-execute flow."""

    def __init__(self, db: Database):
        self.db = db

    def validate(self, tx: TransactionContext,
                 candidates: Optional[Iterable[TransactionContext]] = None,
                 index: Optional[ConflictIndex] = None
                 ) -> List[TransactionContext]:
        """Run the abort-during-commit checks as ``tx`` commits.

        ``candidates`` is the set of transactions to consider for conflicts
        (defaults to everything concurrent with ``tx``).  ``index`` is
        the block processor's per-block :class:`ConflictIndex`, whose
        rw-edge verdicts this step shares (default: a fresh one).
        Returns the list of *other* transactions this step aborted.
        Raises :class:`SerializationFailure` if ``tx`` itself must abort.
        """
        if candidates is None:
            candidates = self.db.concurrent_with(tx)
        candidates = [c for c in candidates if not c.is_aborted]
        index = index or ConflictIndex()

        validate_ww(self.db, tx)

        nears = near_conflicts(tx, candidates, index)
        outs = out_conflicts(tx, candidates, index)

        # Rule 2 (wr-style, Figure 2(c)): T is itself a pivot whose
        # out-conflict already committed -> abort T.
        if nears and any(o.is_committed for o in outs):
            raise SerializationFailure(
                f"serialization failure: transaction {tx.tx_id or tx.xid} "
                f"is a pivot with a committed out-conflict",
                reason="pivot-committed-out")

        # Rule 1: dangerous structure F ->rw N ->rw T with N, F active.
        aborted: List[TransactionContext] = []
        for near in nears:
            if near.is_committed or near.is_aborted:
                continue
            far_candidates = [c for c in candidates if c.xid != near.xid]
            far_candidates.append(tx)
            for far in near_conflicts(near, far_candidates, index):
                if far.xid == near.xid:
                    continue
                if far.is_aborted:
                    continue
                # Both uncommitted (T committing counts as uncommitted), or
                # far already committed — either way the pivot N aborts.
                self.db.apply_abort(
                    near,
                    reason=f"ssi abort-during-commit: pivot between "
                           f"{far.xid} and {tx.xid}")
                aborted.append(near)
                break
        return aborted
