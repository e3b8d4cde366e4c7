"""Recovery after a node failure (section 3.6).

The protocol keys on two durable artifacts: the pgLedger table (written in
two atomic steps — transactions first, statuses after commit) and the WAL
(commit/abort records flushed before the status write).  On restart:

1. Find the last block recorded in pgLedger and check whether its
   transactions have statuses.  All present → the block completed; done.
2. Statuses missing, but the WAL holds a durable commit/abort record for
   *every* transaction of the block → the node died between commit and the
   status write (case a): fill in the statuses from the WAL and finish the
   block's bookkeeping.
3. Otherwise (case b) the node died mid-commit: roll back every committed
   transaction of the block (all transactions of a block must execute
   under SSI together to match other nodes), then re-execute the whole
   block through the normal block processor.
4. Finally, catch up any blocks the network produced while the node was
   down, in order.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple


@contextmanager
def _null_context():
    yield None

from repro.chain.block import Block
from repro.errors import RecoveryError
from repro.mvcc.transaction import TransactionContext, TxState
from repro.node.ledger import STATUS_ABORTED, STATUS_COMMITTED
from repro.node.notifications import CHANNEL_TX_STATUS
from repro.storage.wal import WAL_ABORT, WAL_COMMIT


class RecoveryManager:
    """Runs the section 3.6 protocol for one node."""

    def __init__(self, node):
        self.node = node

    # ------------------------------------------------------------------

    def recover(self) -> Dict[str, int]:
        """Recover local state; returns a small report for observability."""
        tracer = getattr(self.node, "tracer", None)
        if tracer is not None and tracer.enabled:
            with tracer.span("recovery.recover") as span:
                report = self._recover()
                span.annotate(**report)
            return report
        return self._recover()

    def _recover(self) -> Dict[str, int]:
        node = self.node
        report = {"reexecuted_blocks": 0, "finalized_blocks": 0,
                  "caught_up_blocks": 0}
        last = node.ledger.last_recorded_block()
        if last is not None and last > 0:
            statuses = node.ledger.block_statuses(last)
            pending = [s for s in statuses if s["status"] == "pending"]
            if pending:
                block = node.blockstore.maybe_get(last)
                if block is None:
                    raise RecoveryError(
                        f"ledger references block {last} missing from the "
                        f"block store")
                # Group commit over the repair: WAL records appended while
                # finishing this block serialize and hit the file in one
                # batch at group exit instead of per stage boundary.
                with node.db.wal.group():
                    if self._wal_covers_block(block):
                        self._finalize_from_wal(block)          # case (a)
                        report["finalized_blocks"] += 1
                    else:
                        self._rollback_and_reexecute(block)     # case (b)
                        report["reexecuted_blocks"] += 1
        return report

    def catch_up(self, blocks: List[Block]) -> int:
        """Process blocks the network produced while we were down.

        The whole replay runs as one WAL group commit: every block still
        flushes at the same stage boundaries (the durability *horizon*
        advances identically), but serialization and file appends batch
        into a single write at group exit."""
        node = self.node
        processed = 0
        tracer = getattr(node, "tracer", None)
        traced = tracer is not None and tracer.enabled
        with (tracer.span("recovery.catch_up", blocks=len(blocks))
              if traced else _null_context()) as span:
            with node.db.wal.group():
                for block in sorted(blocks, key=lambda b: b.number):
                    if block.number <= node.blockstore.height:
                        continue
                    node.on_block(block, "recovery")
                    processed += 1
            if traced:
                span.annotate(replayed=processed)
        return processed

    # ------------------------------------------------------------------

    def _contexts_for(self, block: Block
                      ) -> Dict[str, Optional[TransactionContext]]:
        """Latest transaction context per tx id of the block.  Only the
        last recorded block is ever asked for, and its contexts are the
        ones ``Database.retire_finished`` keeps."""
        by_tx_id: Dict[str, TransactionContext] = {}
        for context in self.node.db.transactions.values():
            if context.tx_id:
                # Later xids win: re-executions supersede old attempts.
                prior = by_tx_id.get(context.tx_id)
                if prior is None or context.xid > prior.xid:
                    by_tx_id[context.tx_id] = context
        return {tx.tx_id: by_tx_id.get(tx.tx_id)
                for tx in block.transactions}

    def _wal_covers_block(self, block: Block) -> bool:
        """Case (a) test: durable commit/abort record for every tx."""
        contexts = self._contexts_for(block)
        committed = set(self.node.db.wal.committed_xids())
        aborted = {r.payload["xid"]
                   for r in self.node.db.wal.records(WAL_ABORT)}
        for tx in block.transactions:
            context = contexts[tx.tx_id]
            if context is None:
                return False
            if context.xid not in committed and context.xid not in aborted:
                return False
        return True

    def _finalize_from_wal(self, block: Block) -> None:
        """Case (a): commits are durable; only bookkeeping is missing."""
        node = self.node
        contexts = self._contexts_for(block)
        committed = set(node.db.wal.committed_xids())
        statuses: Dict[str, Tuple[str, str, Optional[int]]] = {}
        committed_contexts: List[TransactionContext] = []
        for tx in block.transactions:
            context = contexts[tx.tx_id]
            if context.xid in committed:
                statuses[tx.tx_id] = (STATUS_COMMITTED, "", context.xid)
                committed_contexts.append(context)
            else:
                statuses[tx.tx_id] = (
                    STATUS_ABORTED,
                    context.abort_reason or "aborted before crash",
                    context.xid)
        node.ledger.record_statuses(block, statuses)
        node.db.wal.flush()
        node.db.committed_height = max(node.db.committed_height,
                                       block.number)
        # The block's commits were durable but never ingested into the
        # columnar replica (the crash preempted the post-commit hook);
        # finish that bookkeeping too.
        node.db.columnstore.on_block(node.db, block.number)
        digest = node.checkpoints.record_local(block.number,
                                               committed_contexts)
        if digest is not None and node.ordering is not None:
            node.ordering.submit_checkpoint(node.name, block.number, digest)
        for tx in block.transactions:
            status, reason, _ = statuses[tx.tx_id]
            node.notifications.notify(CHANNEL_TX_STATUS, tx_id=tx.tx_id,
                                      status=status, reason=reason,
                                      block=block.number)
        for tx in block.transactions:
            node.executing.pop(tx.tx_id, None)
            node.pending_outcomes.pop(tx.tx_id, None)
        node.db.retire_finished(block.number)

    def _rollback_and_reexecute(self, block: Block) -> None:
        """Case (b): roll back the block's committed transactions and
        re-run the whole block — 'we need to execute all transactions in a
        block parallelly using SSI at the same time to get a consistent
        result with other nodes' (section 3.6)."""
        node = self.node
        contexts = self._contexts_for(block)
        for tx in block.transactions:
            context = contexts.get(tx.tx_id)
            if context is None:
                continue
            if context.state is TxState.COMMITTED:
                node.db.rollback_committed(context)
            if not context.is_aborted:
                node.db.apply_abort(context,
                                    reason="recovery rollback (section 3.6)")
            # An execute-order context that ran ahead of ordering has no
            # block yet; this was its block, and the re-execution below
            # begins afresh.  Without the stamp it would wait for "its
            # block" forever and pin the retirement horizon.
            context.block_number = block.number
            node.executing.pop(tx.tx_id, None)
            node.pending_outcomes.pop(tx.tx_id, None)
        node.db.wal.flush()
        node.processor.process_block(block)
