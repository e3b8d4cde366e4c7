"""The node-local database: catalog + transaction machinery.

One :class:`Database` instance backs one peer node.  It owns the catalog
(tables, indexes), the transaction status table (CLOG analogue), the WAL,
xid allocation, and the low-level commit/abort mechanics — stamping
creator/deleter block numbers, resolving xmax winners, cleaning up aborted
versions.  Serialization *validation* lives in the SSI modules; the node's
block processor drives the serial commit order.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.analytics.columnstore import ColumnStore
from repro.errors import SerializationFailure
from repro.mvcc.transaction import (
    Snapshot,
    TransactionContext,
    TxState,
    WriteSetEntry,
)
from repro.sql.catalog import Catalog
from repro.sql.plancache import PlanCache
from repro.sql.stats import StatisticsManager
from repro.storage.row import RowVersion
from repro.storage.snapshot import BlockSnapshot, SeqSnapshot, TxStatusTable
from repro.storage.wal import (
    WAL_ABORT,
    WAL_BEGIN,
    WAL_COMMIT,
    WriteAheadLog,
)


@dataclass
class BlockApplyBatch:
    """Deferred per-row apply work for one block (see ``apply_block``).

    Per-transaction commit keeps only the work later *validations* observe
    (CLOG flip, commit sequence, xmax-winner resolution — validate_ww and
    the SSI validators read those between commits); everything else —
    creator-height stamping, live-row accounting, columnstore delta
    hand-off, bulk index merges — lands here and is applied in single
    per-block passes."""

    block_number: int
    committed: List["TransactionContext"] = field(default_factory=list)
    applied: bool = False


class Database:
    """MVCC database instance for a single node."""

    def __init__(self, wal: Optional[WriteAheadLog] = None,
                 plan_cache: Optional[PlanCache] = None,
                 metrics=None):
        # Observability scope (obs/metrics.py): node-owned databases get
        # the node's ``node=<name>`` scope on the process registry; a
        # standalone Database gets a private registry so tests isolate.
        if metrics is None:
            from repro.obs.metrics import private_scope
            metrics = private_scope()
        self.metrics = metrics
        # Per-statement timing, one observation per top-level statement
        # (sql/executor.py); a statement that plans nothing (INSERT, DDL)
        # observes execution only, so the count of ``sql.exec_seconds``
        # is the number of statements.
        self.sql_plan_seconds = metrics.histogram("sql.plan_seconds")
        self.sql_exec_seconds = metrics.histogram("sql.exec_seconds")
        # Outer rows whose nested-loop probe left its planned index.
        self.sql_probe_fallbacks = metrics.counter("sql.probe_fallbacks")
        self.catalog = Catalog()
        # Statement fast path: physical plan templates keyed by
        # (fingerprint, shape, catalog version); DDL/stats-drift bumps
        # purge stale entries eagerly.  A *shared* cache (one per process
        # serving several nodes with identical catalogs, see
        # core/network.py) skips the eager purge listener: other nodes at
        # an older-but-live catalog token still use their entries, and the
        # token in the key plus LRU eviction retire stale ones safely.
        if plan_cache is None:
            self.plan_cache = PlanCache(metrics=self.metrics)
            self.catalog.add_version_listener(
                lambda _v: self.plan_cache.invalidate_for_version(
                    self.catalog.version_token))
        else:
            self.plan_cache = plan_cache
        self.statuses = TxStatusTable()
        self.wal = wal if wal is not None else \
            WriteAheadLog(metrics=self.metrics)
        self._xid_counter = itertools.count(1)
        self.committed_height = 0  # height of the last fully committed block
        # Columnar read replica serving AS OF time-travel queries: commits
        # queue their write sets here (one list append on the hot path);
        # the block processor's post-commit hook and analytical reads
        # drain the queue into column chunks.
        self.columnstore = ColumnStore(metrics=self.metrics)
        # A dropped table's chunks must never serve a later re-creation
        # under the same name — rebuild from the heap instead.
        self.catalog.add_drop_listener(
            lambda table: self.columnstore.mark_stale())
        # Vacuum retention horizon: heights below this may have had
        # versions pruned, so time-travel reads refuse to go there.
        self.retained_height = 0
        # Snapshot-anchored planner statistics: committed row counts and
        # distinct-key counts pinned to the committed height, identical
        # on every node at the same height (sql/stats.py).  The planner
        # costs join strategies from these.
        self.stats = StatisticsManager(self)
        # Structured slow-query log: top-level statements whose total
        # (plan + execute) wall time crosses the threshold land here as
        # dicts (statement kind, fingerprint, timings, rows, cache
        # disposition).  Purely observational — entries are recorded
        # after the statement's effects are final, and nothing in
        # planning ever reads them back.  REPRO_SLOW_QUERY_MS <= 0
        # disables recording entirely.
        self.slow_query_threshold_ms = float(os.environ.get(
            "REPRO_SLOW_QUERY_MS", "0"))
        self.slow_queries: List[Dict] = []
        self.max_slow_queries = 128
        # Transactions above the retirement horizon, by xid: everything
        # still running plus the finished ones that SSI or recovery may
        # still ask for (see retire_finished).
        self.transactions: Dict[int, TransactionContext] = {}
        # still-interesting transactions for SSI conflict checks
        self._active: Dict[int, TransactionContext] = {}
        self._recently_committed: List[TransactionContext] = []
        # Dead versions awaiting the retirement horizon, in commit order:
        # (block, commit seq of the superseding commit, table, versions)
        # — see reclaim_at_horizon.
        self._reclaimable: Deque[
            Tuple[int, int, str, List[RowVersion]]] = deque()

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------

    def begin(self, snapshot: Optional[Snapshot] = None,
              **kwargs) -> TransactionContext:
        """Start a transaction.  Default snapshot: latest committed state
        (sequence snapshot)."""
        xid = next(self._xid_counter)
        if snapshot is None:
            snapshot = SeqSnapshot(self.statuses.current_commit_seq)
        tx = TransactionContext(
            xid=xid, snapshot=snapshot,
            begin_seq=self.statuses.current_commit_seq, **kwargs)
        self.statuses.begin(xid)
        self.transactions[xid] = tx
        self._active[xid] = tx
        tx.begin_lsn = self.wal.append(
            WAL_BEGIN, xid=xid, tx_id=tx.tx_id).lsn
        return tx

    def begin_at_height(self, height: int, **kwargs) -> TransactionContext:
        """Start an execute-order-in-parallel transaction pinned to a block
        height (section 3.4.1)."""
        return self.begin(snapshot=BlockSnapshot(height), **kwargs)

    # ------------------------------------------------------------------
    # Commit / abort mechanics (no SSI here — callers validate first)
    # ------------------------------------------------------------------

    def apply_commit(self, tx: TransactionContext,
                     block_number: Optional[int] = None,
                     batch: Optional[BlockApplyBatch] = None) -> None:
        """Make ``tx``'s writes durable and visible: resolve ww winners,
        stamp creator/deleter block numbers, flip CLOG status.

        With ``batch`` (the block processor's commit loop) only the work
        that later same-block *validations* observe happens here: the
        CLOG flip and commit sequence (``validate_ww`` / the SSI
        validators test ``is_committed`` between commits) and
        xmax-winner resolution on replaced versions (``validate_ww``
        reads ``xmax_winner``).  The rest — creator-height stamping,
        live-row accounting, the columnstore delta — defers to
        :meth:`apply_block`, which runs it in single per-block passes.
        Without one (genesis, ledger system transactions, private
        transactions, standalone databases) everything happens here.
        The WAL record is appended here either way, so the record
        sequence does not depend on batching."""
        if tx.state is TxState.ABORTED:
            raise SerializationFailure(
                f"cannot commit aborted transaction {tx.tx_id or tx.xid}",
                reason=tx.abort_reason)
        stamp = block_number if block_number is not None \
            else self.committed_height
        if batch is None:
            for entry in tx.writes:
                if entry.new_version is not None:
                    entry.new_version.creator_block = stamp
                if entry.old_version is not None:
                    entry.old_version.set_delete_winner(tx.xid, stamp)
                if entry.kind == "delete" and \
                        self.catalog.has_table(entry.table):
                    self.catalog.heap_of(entry.table).note_committed_delete()
            self.columnstore.note_commit(tx)
        else:
            for entry in tx.writes:
                if entry.old_version is not None:
                    entry.old_version.set_delete_winner(tx.xid, stamp)
            batch.committed.append(tx)
        for table in tx.tables_written:
            if self.catalog.has_table(table):
                self.catalog.heap_of(table).note_commit_stamp(stamp)
        self.statuses.commit(tx.xid, block_number=stamp)
        tx.state = TxState.COMMITTED
        tx.block_number = stamp
        self._active.pop(tx.xid, None)
        self._recently_committed.append(tx)
        self.wal.append(WAL_COMMIT, xid=tx.xid, tx_id=tx.tx_id, block=stamp)

    def begin_block_apply(self, block_number: int) -> BlockApplyBatch:
        """Open a block-granular apply batch for ``apply_commit(batch=)``."""
        return BlockApplyBatch(block_number=block_number)

    def drain_commits(self) -> None:
        """No-op span anchor: a block is fully applied when
        ``process_block`` returns, so there is nothing to wait for.
        ``benchmarks/e2e/spans.py`` resolves it by dotted path (tier-1
        asserts ``missing_spans == []``); nothing in ``src/`` calls it and
        ROADMAP lists it for the next ``benchmark`` PR to drop."""

    def note_slow_query(self, entry: Dict) -> None:
        """Append a structured slow-query record (bounded: oldest entries
        rotate out past ``max_slow_queries``)."""
        self.slow_queries.append(entry)
        if len(self.slow_queries) > self.max_slow_queries:
            del self.slow_queries[:len(self.slow_queries)
                                  - self.max_slow_queries]

    def apply_block(self, batch: BlockApplyBatch) -> None:
        """Finish the block's deferred apply work in single per-block
        passes: stamp creator heights on every committed new version,
        account committed deletes per table (one call per table), hand
        the columnstore the whole block's deltas in commit order, and
        bulk-merge the pending index tails of every touched table.

        Idempotent.  The block processor invokes it in a ``finally`` so a
        mid-block crash leaves the already-committed transactions fully
        stamped, which the recovery protocol's rollback path relies on."""
        if batch.applied:
            return
        batch.applied = True
        stamp = batch.block_number
        deletes: Dict[str, int] = {}
        tables: Set[str] = set()
        for tx in batch.committed:
            for entry in tx.writes:
                if entry.new_version is not None:
                    entry.new_version.creator_block = stamp
                if entry.kind == "delete":
                    deletes[entry.table] = deletes.get(entry.table, 0) + 1
            tables.update(tx.tables_written)
        for table, count in deletes.items():
            if self.catalog.has_table(table):
                self.catalog.heap_of(table).note_committed_deletes(count)
        self.columnstore.note_block(batch.committed)
        for table in tables:
            if self.catalog.has_table(table):
                heap = self.catalog.heap_of(table)
                heap.note_commit_stamp(stamp)
                heap.merge_pending_indexes()

    def apply_abort(self, tx: TransactionContext, reason: str = "") -> None:
        """Discard ``tx``'s writes and mark it aborted."""
        if tx.state is TxState.ABORTED:
            return
        for entry in tx.writes:
            if entry.kind != "insert" or entry.new_version is None \
                    or not self.catalog.has_table(entry.table):
                continue
            heap = self.catalog.heap_of(entry.table)
            # Guard against versions already removed (e.g. a recovery
            # rollback preceded this abort) — don't double-decrement.
            if heap.maybe_version(entry.new_version.version_id) is not None:
                heap.note_insert_discarded()
        for table_name in tx.tables_written:
            if self.catalog.has_table(table_name):
                self.catalog.heap_of(table_name).cleanup_aborted(tx.xid)
        self.statuses.abort(tx.xid)
        tx.state = TxState.ABORTED
        tx.abort_reason = reason or tx.abort_reason
        self._active.pop(tx.xid, None)
        self.wal.append(WAL_ABORT, xid=tx.xid, tx_id=tx.tx_id, reason=reason)

    def rollback_committed(self, tx: TransactionContext) -> None:
        """Recovery path (section 3.6): undo a committed transaction so its
        block can be re-executed."""
        for entry in tx.writes:
            if not self.catalog.has_table(entry.table):
                continue
            heap = self.catalog.heap_of(entry.table)
            if entry.kind == "insert":
                heap.note_insert_discarded()
            elif entry.kind == "delete":
                heap.note_delete_reversed()
        for table_name in tx.tables_written:
            if self.catalog.has_table(table_name):
                self.catalog.heap_of(table_name).rollback_committed(tx.xid)
        self.statuses.rollback_commit(tx.xid)
        tx.state = TxState.ACTIVE
        if tx.xid not in self._active:
            self._active[tx.xid] = tx
        self._recently_committed = [
            t for t in self._recently_committed if t.xid != tx.xid]
        # Committed history changed out-of-band: the columnar replica
        # rebuilds from the heap on its next access (section 3.6
        # recovery re-executes the block through the normal pipeline).
        self.columnstore.mark_stale()

    # ------------------------------------------------------------------
    # SSI support queries
    # ------------------------------------------------------------------

    def concurrent_with(self, tx: TransactionContext
                        ) -> List[TransactionContext]:
        """Transactions whose execution window overlapped ``tx``'s: every
        still-active transaction plus those that committed after ``tx``
        began."""
        out: List[TransactionContext] = []
        for other in self._active.values():
            if other.xid != tx.xid:
                out.append(other)
        # ``_recently_committed`` is appended at commit time and retired
        # from the front only, so commit_seq is monotone in list position:
        # the entries committed after ``tx`` began are exactly a tail
        # slice, found by binary search instead of a full scan.
        recent = self._recently_committed
        commit_seq = self.statuses.commit_seq
        begin_seq = tx.begin_seq
        lo, hi = 0, len(recent)
        while lo < hi:
            mid = (lo + hi) // 2
            seq = commit_seq(recent[mid].xid)
            if seq is not None and seq > begin_seq:
                hi = mid
            else:
                lo = mid + 1
        for other in recent[lo:]:
            if other.xid != tx.xid:
                out.append(other)
        return out

    def committed_before_began(self, a: TransactionContext,
                               b: TransactionContext) -> bool:
        """True when ``a`` committed before ``b`` began (not concurrent)."""
        seq = self.statuses.commit_seq(a.xid)
        return seq is not None and seq <= b.begin_seq

    def retire_finished(self, height: int) -> None:
        """Retirement horizon, run at the end of block ``height``: forget
        every finished transaction nothing can ask for any more.

        A context goes when it is finished, does not belong to block
        ``height`` (recovery re-examines the last recorded block's
        contexts by tx id and may roll its commits back) and no running
        transaction can be concurrent with it: it aborted, or it
        committed at or before the ``begin_seq`` of every active
        transaction — the complement of what :meth:`concurrent_with`
        returns.  A chain transaction that finished before its block
        arrived (an execute-order victim aborted ahead of ordering) waits
        for that block.  Retired commits also drop their heaps'
        created-by-xid lists, which only abort cleanup and the
        last-block rollback read.

        The same horizon reclaims storage: the dead versions queued by
        :meth:`reclaim_at_horizon` for blocks below ``height`` once no
        active snapshot predates the commit that superseded them, and
        the WAL records below the oldest transaction still kept (a
        transaction's records all follow its begin record, and recovery
        asks the log only about the contexts it finds here)."""
        horizon = min((tx.begin_seq for tx in self._active.values()),
                      default=self.statuses.current_commit_seq)
        commit_seq = self.statuses.commit_seq

        def retired(tx: TransactionContext) -> bool:
            if tx.block_number is None:
                if tx.tx_id:
                    return False
            elif tx.block_number >= height:
                return False
            return tx.is_aborted or (
                tx.is_committed and commit_seq(tx.xid) <= horizon)

        # Commit order is list order, so the retired commits are a prefix.
        recent = self._recently_committed
        keep = next((i for i, tx in enumerate(recent) if not retired(tx)),
                    len(recent))
        del recent[:keep]
        for tx in [tx for tx in self.transactions.values() if retired(tx)]:
            del self.transactions[tx.xid]
            for table in tx.tables_written:
                if self.catalog.has_table(table):
                    self.catalog.heap_of(table).forget_creator(tx.xid)
        reclaimable = self._reclaimable
        while reclaimable and reclaimable[0][0] < height \
                and reclaimable[0][1] <= horizon:
            _block, _seq, table, versions = reclaimable.popleft()
            self.reclaim_versions(table, versions)
        # Begin order is xid order is dict order: the first is the oldest.
        oldest = next(iter(self.transactions.values()), None)
        self.wal.recycle(self.wal.mark() if oldest is None
                         else oldest.begin_lsn - 1)

    def reclaim_at_horizon(self, table: str, block_number: int,
                           versions: List[RowVersion]) -> None:
        """Queue ``versions`` of ``table`` — superseded by the commit that
        just happened, within one block height, so no block snapshot ever
        sees them — for physical removal by :meth:`retire_finished` after
        block ``block_number``.  pgLedger's ``pending`` rows (paper
        section 4.2's two-step write) are the case: the paper's own
        answer to them is a vacuum on creator/deleter (section 7).  The
        columnar replica never appends them (:meth:`reclaim_queued`)."""
        if versions:
            self._reclaimable.append(
                (block_number, self.statuses.current_commit_seq, table,
                 versions))

    def reclaim_queued(self) -> Set[Tuple[str, int]]:
        """``(table, version id)`` of every version
        :meth:`reclaim_at_horizon` queued that is not reclaimed yet."""
        return {(table, version.version_id)
                for _block, _seq, table, versions in self._reclaimable
                for version in versions}

    def reclaim_versions(self, table: str,
                         versions: List[RowVersion]) -> None:
        """Physically remove dead ``versions`` and their index entries."""
        if self.catalog.has_table(table):
            heap = self.catalog.heap_of(table)
            for version in versions:
                heap.remove_version(version.version_id)
