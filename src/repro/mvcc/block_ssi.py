"""The paper's novel SSI variant: **block-aware abort during commit**
(section 3.4.3, Table 2).

Used by the execute-order-in-parallel flow, where concurrently executing
transactions may sit in the same block, in different blocks, or not yet be
ordered at all — and where conflict graphs can differ between nodes.  The
abort rules are chosen so every honest node aborts the *same* set of
transactions:

==================  ==================  =====================  ============
nearConflict in     farConflict in      to commit first        abort
same block as T     same block as T     (among the conflicts)
==================  ==================  =====================  ============
yes                 yes                 nearConflict           farConflict
yes                 yes                 farConflict            nearConflict
yes                 no (uncommitted)    nearConflict           farConflict
no                  yes                 farConflict            nearConflict
no                  no                  --                     nearConflict
no                  none                --                     nearConflict
==================  ==================  =====================  ============

The tricky case is a nearConflict outside T's block: with no
synchronization between nodes an anomaly might materialize on only a
subset of nodes, so the nearConflict is aborted *unconditionally* —
section 3.4.3 walks the three scenarios showing every node converges on
that abort.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import SerializationFailure
from repro.mvcc.conflicts import ConflictIndex, near_conflicts, out_conflicts
from repro.mvcc.database import Database
from repro.mvcc.ssi import validate_ww
from repro.mvcc.transaction import TransactionContext


class BlockAwareSSI:
    """Commit-time validator for the execute-order-in-parallel flow."""

    def __init__(self, db: Database):
        self.db = db

    def _in_block(self, other: TransactionContext,
                  block_number: int) -> bool:
        """Is ``other`` part of the block currently being committed?"""
        return (other.block_number == block_number
                and other.block_position is not None)

    def _order_in_block(self, a: TransactionContext,
                        b: TransactionContext) -> TransactionContext:
        """Of two transactions in the same block, the one ordered later."""
        assert a.block_position is not None and b.block_position is not None
        return a if a.block_position > b.block_position else b

    def validate(self, tx: TransactionContext, block_number: int,
                 candidates: Optional[Iterable[TransactionContext]] = None,
                 index: Optional[ConflictIndex] = None
                 ) -> List[TransactionContext]:
        """Apply Table 2 as ``tx`` (at ``tx.block_position`` of block
        ``block_number``) enters its serial commit.

        ``index`` is the block processor's per-block
        :class:`ConflictIndex`, whose rw-edge verdicts this step shares
        (default: a fresh one).  Candidate lists come back from
        ``near_conflicts`` / ``out_conflicts`` in canonical commit
        order, so the victims below are a function of the block and the
        edge graph, not of this node's begin order.  Returns the other
        transactions aborted by this step; raises
        :class:`SerializationFailure` when ``tx`` itself must abort.
        """
        if candidates is None:
            candidates = self.db.concurrent_with(tx)
        candidates = [c for c in candidates if not c.is_aborted]
        index = index or ConflictIndex()

        validate_ww(self.db, tx)

        nears = near_conflicts(tx, candidates, index)
        outs = out_conflicts(tx, candidates, index)

        # Section 3.4.3 scenario 3: an rw-dependency whose out-conflict has
        # already committed is treated as an anomaly structure (the wr edge
        # closing the cycle is possible but untracked) and aborts T
        # unconditionally.  This is what makes the outcome convergent: on
        # nodes where T executed *after* the writer committed, the
        # stale/phantom check at execution already aborted T.
        committed_out = next((o for o in outs if o.is_committed), None)
        if committed_out is not None:
            raise SerializationFailure(
                f"serialization failure: transaction {tx.tx_id or tx.xid} "
                f"has an out-conflict (xid {committed_out.xid}) that "
                f"committed first", reason="committed-out-conflict")

        aborted: List[TransactionContext] = []

        def abort(victim: TransactionContext, why: str) -> None:
            if victim.xid == tx.xid:
                raise SerializationFailure(
                    f"serialization failure: {why}", reason="block-aware")
            if not victim.is_aborted and not victim.is_committed:
                self.db.apply_abort(victim, reason=f"block-aware ssi: {why}")
                aborted.append(victim)

        for near in nears:
            if near.is_committed or near.is_aborted:
                # A committed nearConflict is plain time ordering (it
                # committed in an earlier block) — no anomaly from it.
                continue
            near_in_block = self._in_block(near, block_number)

            if not near_in_block:
                # Rows 4-6 of Table 2: nearConflict outside the block is
                # aborted irrespective of any farConflict (section 3.4.3's
                # consistency argument).
                abort(near, f"nearConflict xid {near.xid} of committing "
                            f"xid {tx.xid} is not in block {block_number}")
                continue

            far_candidates = [c for c in candidates if c.xid != near.xid]
            far_candidates.append(tx)
            fars = [f for f in near_conflicts(near, far_candidates, index)
                    if f.xid != near.xid]
            if not fars:
                # nearConflict in the same block, no dangerous structure.
                continue
            for far in fars:
                if near.is_aborted:
                    break
                if far.is_committed:
                    # farConflict committed first -> abort the pivot near.
                    abort(near, f"farConflict xid {far.xid} committed "
                                f"before pivot xid {near.xid}")
                elif self._in_block(far, block_number):
                    # Rows 1-2: both in the block; abort the later one.
                    victim = self._order_in_block(near, far)
                    abort(victim, f"dangerous structure {far.xid}->"
                                  f"{near.xid}->{tx.xid}; {victim.xid} is "
                                  f"later in block {block_number}")
                else:
                    # Row 3: near in block, far unordered -> abort far
                    # (near, being in the block, commits first).
                    abort(far, f"farConflict xid {far.xid} of in-block "
                               f"pivot xid {near.xid} is unordered")
        return aborted
