"""Snapshot-anchored planner statistics.

The cost-based planner needs row counts and distinct-key counts, but
*live* counts are interleaving-sensitive: an in-flight transaction's
uncommitted inserts inflate ``HeapTable.live_rows`` on the node that
happens to host it, and two replicas costing the same statement from
different counts would pick different plans → different SIREAD sets →
SSI divergence (the reason PR 1 left the join choice structural).

The fix is the statistics-on-the-replica trick HTAP systems use: anchor
every statistic at the node's **committed block height**.  Committed
state at height ``h`` is identical on every node that has processed
block ``h`` — it is the replicated state machine's output — so

* ``row_count``: committed rows visible at the anchor, and
* ``ndv(columns)``: distinct non-NULL column tuples over those rows

are pure functions of the block sequence.  The columnar replica's
creator/deleter height vectors answer both exactly
(:meth:`ColumnStore.committed_rows` / :meth:`ColumnStore.distinct_count`);
tests/sql/test_stats.py pins them, to the row, against an oracle that
filters the heap's version store with the same committed-at-anchor
predicate.  Range predicates have no statistic: they cost at the fixed
1/3 (``plan.scan_estimate``).

Caching: statistics are memoized per (table, columns) under a freshness
token of ``(catalog version, min(anchor, heap.stamped_height),
heap.commit_stamps)``.  The heap bumps ``commit_stamps`` wherever its
versions are commit-stamped or un-stamped — every commit that wrote it,
a block's deferred creator stamping, recovery rollback, vacuum and
horizon reclaim — and ``stamped_height`` is the highest block that
stamped it.  The token is never *under*-sensitive: a version created or
deleted between anchors ``a < a'`` was stamped above ``a``, which moves
the middle component.  A new height alone does not move it, so a table
no block writes is counted once; nor do uncommitted writes and aborts,
so the memo survives a block's write churn.  A same-block commit
stamped above the anchor recounts to the anchor's values.  A hit at a
new anchor still syncs the replica, as the recount would have, so when
the replica ingests does not depend on the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.storage.index import normalize_key_part

__all__ = ["AnchoredTableStats", "StatisticsManager", "stats_key_part"]


def stats_key_part(value: Any) -> Any:
    """Normalization for distinct counting, consistent with the ``=``
    comparator (TRUE = 1, 1 = 1.0): values the engine would call equal
    must count as one distinct key.  Unindexable value types fall back
    to ``repr`` (typed columns make that unreachable in practice)."""
    try:
        return normalize_key_part(value)
    except Exception:
        return repr(value)


def _stats_key(values: Tuple[Any, ...]) -> Tuple:
    return tuple(stats_key_part(v) for v in values)


@dataclass(frozen=True)
class AnchoredTableStats:
    """Deterministic per-table statistics pinned to one block height."""

    table: str
    anchor: int      # block height the counts are anchored at
    row_count: int   # committed rows visible at the anchor


class StatisticsManager:
    """Per-database anchored-statistics provider (see module docstring).

    The anchor is always the owning database's current committed height:
    nodes replaying the same block sequence consult identical statistics
    whenever they plan at the same height, which — together with the
    plan cache keying on the anchor — makes every cost-based decision a
    pure function of (statement fingerprint, anchored stats).
    """

    def __init__(self, db):
        self.db = db
        # (table, columns-or-None) -> (freshness token, anchor, value)
        self._cache: Dict[Tuple[str, Optional[Tuple[str, ...]]],
                          Tuple[Tuple, int, Any]] = {}
        # Observability, on the database's registry scope: memo misses.
        self._computations = db.metrics.counter("stats.computations")

    @property
    def anchor(self) -> int:
        """The stats anchor: the node's committed block height."""
        return self.db.committed_height

    def _token(self, table: str) -> Tuple:
        heap = self.db.catalog.heap_of(table)
        return (self.db.catalog.version,
                min(self.anchor, heap.stamped_height), heap.commit_stamps)

    def _cached(self, table: str,
                columns: Optional[Tuple[str, ...]], compute):
        token, anchor = self._token(table), self.anchor
        key = (table, columns)
        entry = self._cache.get(key)
        if entry is not None and entry[0] == token:
            if entry[1] != anchor:      # a recount would have synced
                self.db.columnstore.ensure_synced(self.db)
                self._cache[key] = (token, anchor, entry[2])
            return entry[2]
        value = compute()
        self._cache[key] = (token, anchor, value)
        self._computations.inc()
        return value

    def invalidate(self) -> None:
        self._cache.clear()

    # ------------------------------------------------------------------
    # Row counts
    # ------------------------------------------------------------------

    def table_stats(self, table: str) -> AnchoredTableStats:
        """Committed-row count for ``table`` at the current anchor."""
        self.db.catalog.schema_of(table)  # raises CatalogError on typos
        anchor = self.anchor
        count = self._cached(table, None, lambda: (
            self.db.columnstore.committed_rows(self.db, table, anchor)))
        return AnchoredTableStats(table=table, anchor=anchor,
                                  row_count=count)

    # ------------------------------------------------------------------
    # Distinct-key counts
    # ------------------------------------------------------------------

    def ndv(self, table: str, columns: Tuple[str, ...]) -> int:
        """Distinct non-NULL ``columns`` tuples among the committed rows
        visible at the anchor (minimum 1, so it can divide row counts)."""
        if not columns:
            return 1
        self.db.catalog.schema_of(table)
        anchor = self.anchor
        columns = tuple(columns)

        def compute() -> int:
            return max(1, self.db.columnstore.distinct_count(
                self.db, table, columns, anchor, _stats_key))

        return self._cached(table, columns, compute)
