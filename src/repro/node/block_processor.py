"""Block processor: the serial commit pipeline (sections 3.3.3 / 3.4.3).

For each block, in block-number order:

1. record every transaction in pgLedger (recovery step 1),
2. make sure every transaction has executed to its commit point
   (order-then-execute starts them here; execute-order-in-parallel starts
   only the *missing* ones — e.g. dropped by a malicious peer),
3. serially, in block order, run each transaction through the flow's SSI
   validator and commit or abort it,
4. record statuses in pgLedger (recovery step 2), emit client
   notifications, compute the checkpoint write-set hash.

``crash_point`` lets tests kill the node between any two stages to
exercise the section 3.6 recovery protocol; ``mid_commit:<k>`` crashes
immediately before committing block position ``k``, so a test can stop
the pipeline at *every* WAL commit-record boundary.

The pipeline is block-granular and synchronous: the ledger steps run as
bulk heap writes, the per-transaction duplicate probe is one batched
lookup, the block's in-block rw edges are derived in bulk into a
:class:`~repro.mvcc.conflicts.ConflictIndex` the validators consult, and
the commit loop defers the per-row apply work into a
:class:`~repro.mvcc.database.BlockApplyBatch` finalized in a single
per-block pass (``Database.apply_block``) — inside a ``finally`` so a
mid-block crash leaves the transactions committed before it fully
applied.  Only the work later validations observe (CLOG flips,
xmax-winner resolution) stays inside the loop.  When ``process_block``
returns the block is finished: indexes folded, columnar replica sealed,
checkpoint digest folded, WAL flushed (docs/commit_pipeline.md).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.chain.block import Block
from repro.errors import (
    ContractError,
    DeploymentError,
    ReproError,
    SerializationFailure,
)
from repro.mvcc.block_ssi import BlockAwareSSI
from repro.mvcc.conflicts import ConflictIndex
from repro.mvcc.ssi import AbortDuringCommitSSI
from repro.mvcc.transaction import TransactionContext, TxState
from repro.node.backend import (
    FLOW_EXECUTE_ORDER,
    FLOW_ORDER_EXECUTE,
    ExecutionOutcome,
)
from repro.node.ledger import (
    STATUS_ABORTED,
    STATUS_COMMITTED,
)
from repro.node.notifications import CHANNEL_BLOCKS, CHANNEL_TX_STATUS


class SimulatedCrash(ReproError):
    """Raised by tests to model a node failure mid-pipeline."""


@dataclass
class BlockMetrics:
    """Per-block micro metrics matching section 5's definitions."""

    block_number: int = 0
    tx_count: int = 0
    committed: int = 0
    aborted: int = 0
    missing_txs: int = 0        # mt: not yet executing when block arrived
    block_execution_time: float = 0.0   # bet
    block_commit_time: float = 0.0      # bct
    block_processing_time: float = 0.0  # bpt
    tx_execution_times: List[float] = field(default_factory=list)  # tet


#: Per-block micro metrics kept on ``BlockProcessor.metrics``.
METRICS_BLOCKS = 64


class BlockProcessor:
    """Commits blocks against one node's database."""

    def __init__(self, node):
        self.node = node
        self.oe_validator = AbortDuringCommitSSI(node.db)
        self.eo_validator = BlockAwareSSI(node.db)
        self.metrics: Deque[BlockMetrics] = deque(maxlen=METRICS_BLOCKS)

    # ------------------------------------------------------------------

    def process_block(self, block: Block,
                      crash_point: Optional[str] = None) -> BlockMetrics:
        node = self.node
        with node.tracer.span("pipeline.process_block", height=block.number,
                              txs=len(block.transactions)):
            metrics = BlockMetrics(block_number=block.number,
                                   tx_count=len(block.transactions))
            started = time.perf_counter()

            # Step 1: ledger record (atomic).
            node.ledger.record_block(block)
            self._flush_wal(block)
            if crash_point == "after_ledger_record":
                raise SimulatedCrash("crashed after pgLedger record")

            # Step 2: ensure every transaction is executing / executed.
            exec_started = time.perf_counter()
            outcomes = self._ensure_executed(block, metrics)
            metrics.block_execution_time = time.perf_counter() - exec_started

            # Step 3: serial commit in block order, apply pass included.
            commit_started = time.perf_counter()
            with node.tracer.span("pipeline.stage_b_commit",
                                  height=block.number) as span:
                statuses = self._serial_commit(
                    block, outcomes, metrics, crash_point)
                span.annotate(committed=metrics.committed,
                              aborted=metrics.aborted)
            metrics.block_commit_time = time.perf_counter() - commit_started
            self._flush_wal(block)
            if crash_point == "before_status_record":
                raise SimulatedCrash("crashed before recording statuses")

            # Step 4: statuses, notifications, checkpoint.
            node.ledger.record_statuses(block, statuses)
            self._flush_wal(block)
            self._after_commit(block, outcomes, statuses)
            metrics.block_processing_time = time.perf_counter() - started
            self.metrics.append(metrics)
            return metrics

    def _flush_wal(self, block: Block) -> None:
        """One of the block's three durability boundaries (after the
        ledger record, the serial commit and the status record)."""
        with self.node.tracer.span("finalize.wal_flush",
                                   height=block.number):
            self.node.db.wal.flush()

    # ------------------------------------------------------------------

    def _ensure_executed(self, block: Block, metrics: BlockMetrics
                         ) -> Dict[str, ExecutionOutcome]:
        """Make sure all transactions of the block have run to their commit
        point; returns outcomes by tx id."""
        node = self.node
        outcomes: Dict[str, ExecutionOutcome] = {}
        seen_in_block = set()
        # One batched ledger probe replaces a per-transaction SQL lookup:
        # which of the block's tx ids were recorded by an *earlier* block.
        prior_blocks = node.ledger.prior_block_numbers(
            [tx.tx_id for tx in block.transactions])
        for tx in block.transactions:
            if tx.tx_id in seen_in_block:
                outcomes[tx.tx_id] = ExecutionOutcome(
                    tx=tx, context=None, prepared=False,
                    error="duplicate tx id within block",
                    error_kind="duplicate")
                continue
            seen_in_block.add(tx.tx_id)
            context = node.executing.get(tx.tx_id)
            if context is not None and node.flow == FLOW_EXECUTE_ORDER:
                outcome = node.pending_outcomes.get(tx.tx_id)
                if outcome is None:
                    outcome = ExecutionOutcome(tx=tx, context=context,
                                               prepared=True)
                outcomes[tx.tx_id] = outcome
                continue
            # Missing (EO: malicious/slow peer never forwarded it;
            # OE: the normal path — execution happens now).
            if node.flow == FLOW_EXECUTE_ORDER:
                metrics.missing_txs += 1
            tx_started = time.perf_counter()
            # Duplicates against the ledger were already recorded by
            # record_block for this block, so only check prior history.
            outcome = node.backend.execute(tx, check_duplicate=False)
            if outcome.prepared and \
                    prior_blocks.get(tx.tx_id, block.number) != block.number:
                node.db.apply_abort(outcome.context,
                                    reason="duplicate transaction id")
                outcome = ExecutionOutcome(
                    tx=tx, context=outcome.context, prepared=False,
                    error="duplicate transaction id",
                    error_kind="duplicate")
            metrics.tx_execution_times.append(
                time.perf_counter() - tx_started)
            outcomes[tx.tx_id] = outcome
        return outcomes

    # ------------------------------------------------------------------

    def _serial_commit(self, block: Block,
                       outcomes: Dict[str, ExecutionOutcome],
                       metrics: BlockMetrics,
                       crash_point: Optional[str] = None
                       ) -> Dict[str, Tuple[str, str, Optional[int]]]:
        """Commit/abort each transaction serially, in block order — 'the
        order in which the transactions get committed is the order in which
        the transactions appear in the block' (section 3.3.3).  Returns
        ``statuses[tx_id] = (status, reason, local xid)``."""
        node = self.node
        statuses: Dict[str, Tuple[str, str, Optional[int]]] = {}

        # Stamp block positions first: the block-aware SSI needs to know
        # which conflicts are in this block and their relative order.
        block_members: List[TransactionContext] = []
        for position, tx in enumerate(block.transactions):
            outcome = outcomes[tx.tx_id]
            if outcome.context is not None:
                outcome.context.block_number = block.number
                outcome.context.block_position = position
                block_members.append(outcome.context)

        # Every in-block rw edge, derived in one near-linear pass; the
        # validators fill the same memo lazily for candidates outside
        # the block.  Pure cache: every decision happens in the loop.
        index = ConflictIndex()
        index.warm_block(block_members)

        crash_at = self._crash_position(crash_point, len(block.transactions))
        # Per-row apply work defers into the batch and lands in one
        # per-block pass.  Finalizing in a ``finally`` means a crash
        # leaves the transactions committed before it fully applied,
        # which recovery's rollback path relies on.
        batch = node.db.begin_block_apply(block.number)
        try:
            for position, tx in enumerate(block.transactions):
                if position == crash_at:
                    raise SimulatedCrash("crashed mid-block commit")
                outcome = outcomes[tx.tx_id]
                context = outcome.context
                if not outcome.prepared or context is None:
                    statuses[tx.tx_id] = (
                        STATUS_ABORTED, outcome.error or "execution failed",
                        context.xid if context else None)
                    metrics.aborted += 1
                    continue
                if context.is_aborted:
                    statuses[tx.tx_id] = (
                        STATUS_ABORTED,
                        context.abort_reason or "aborted by SSI",
                        context.xid)
                    metrics.aborted += 1
                    continue
                try:
                    # A replaced/dropped contract aborts in-flight
                    # transactions that executed the old version
                    # (section 3.7).
                    node.contracts.validate_versions(
                        context.contract_versions)
                    if node.flow == FLOW_ORDER_EXECUTE:
                        self.oe_validator.validate(context, index=index)
                    else:
                        self.eo_validator.validate(context, block.number,
                                                   index=index)
                except (SerializationFailure, DeploymentError,
                        ContractError) as exc:
                    node.db.apply_abort(context, reason=str(exc))
                    statuses[tx.tx_id] = (STATUS_ABORTED, str(exc),
                                          context.xid)
                    metrics.aborted += 1
                    continue
                node.db.apply_commit(context, block_number=block.number,
                                     batch=batch)
                for action in context.on_commit_actions:
                    action()
                statuses[tx.tx_id] = (STATUS_COMMITTED, "", context.xid)
                metrics.committed += 1
        finally:
            with node.tracer.span("finalize.apply", height=block.number):
                node.db.apply_block(batch)
        return statuses

    @staticmethod
    def _crash_position(crash_point: Optional[str],
                        tx_count: int) -> Optional[int]:
        """Block position to crash before: ``mid_commit`` keeps the legacy
        halfway point; ``mid_commit:<k>`` pins an exact position so tests
        can crash at every WAL commit-record boundary."""
        if crash_point == "mid_commit":
            return tx_count // 2 if tx_count // 2 else None
        if crash_point and crash_point.startswith("mid_commit:"):
            return int(crash_point.split(":", 1)[1])
        return None

    # ------------------------------------------------------------------

    def _after_commit(self, block: Block,
                      outcomes: Dict[str, ExecutionOutcome],
                      statuses: Dict[str, Tuple[str, str, Optional[int]]]
                      ) -> None:
        node = self.node
        node.db.committed_height = block.number
        committed_contexts = [
            outcomes[tx.tx_id].context for tx in block.transactions
            if statuses[tx.tx_id][0] == STATUS_COMMITTED]

        # Release executing slots.
        for tx in block.transactions:
            node.executing.pop(tx.tx_id, None)
            node.pending_outcomes.pop(tx.tx_id, None)

        # Checkpointing phase.
        with node.tracer.span("finalize.digest_fold", height=block.number):
            digest = node.checkpoints.record_local(block.number,
                                                   committed_contexts)
        if digest is not None and node.ordering is not None:
            node.ordering.submit_checkpoint(
                node.name, block.number, digest)
        remote = block.metadata.get("checkpoints")
        if remote:
            node.checkpoints.verify_remote(remote)

        # Client notifications.
        for tx in block.transactions:
            status, reason, _ = statuses[tx.tx_id]
            node.notifications.notify(
                CHANNEL_TX_STATUS, tx_id=tx.tx_id, status=status,
                reason=reason, block=block.number)
        node.notifications.notify(CHANNEL_BLOCKS, block=block.number,
                                  txs=len(block.transactions))
        node.db.retire_finished(block.number)

        # Columnar replica ingest: append this block's committed version
        # deltas into the per-table column chunks (and compact
        # periodically) so AS OF analytics never touch the row store.
        with node.tracer.span("finalize.columnstore_ingest",
                              height=block.number):
            node.db.columnstore.on_block(node.db, block.number)
