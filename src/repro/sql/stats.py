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
when the replica is disabled the heap fallback filters the version store
with the *same* committed-at-anchor predicate, so both sources agree to
the row (tests pin this).

Caching: statistics are memoized per (table, columns) under a freshness
token of ``(catalog version, anchor, heap.commit_stamps)``.  The heap
bumps ``commit_stamps`` wherever its versions are commit-stamped or
un-stamped — every commit that wrote it (inside a block or not), the
block's deferred creator stamping, recovery rollback, vacuum and horizon
reclaim — so the token is never *under*-sensitive: anything that can
change the committed-at-anchor state moves at least one component.
Uncommitted inserts, updates, deletes and aborts move none, so the
memo survives a block's write churn.  The same-block commits do bump
it (their stamps sit above the anchor, so the recompute returns the
same values): planning happens at most once per statement shape per
height, which keeps that over-sensitivity off the execution path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import CatalogError
from repro.storage.index import normalize_key_part

__all__ = [
    "AnchoredTableStats", "ColumnHistogram", "HISTOGRAM_BUCKETS",
    "StatisticsManager", "stats_key_part",
]

#: Equi-width bucket count for per-column range histograms.
HISTOGRAM_BUCKETS = 16


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


@dataclass(frozen=True)
class ColumnHistogram:
    """Equi-width histogram over a column's committed numeric values.

    Like every anchored statistic it is a pure function of the block
    sequence: identical on every node at the same committed height, and
    identical whether the values came from the columnar replica or the
    heap fallback (bucket counts are order-independent)."""

    lo: float
    hi: float
    counts: Tuple[int, ...]
    total: int

    def range_fraction(self, low: Optional[float],
                       high: Optional[float]) -> float:
        """Estimated fraction of values in ``[low, high]`` (either side
        open when None) by continuous interpolation within buckets,
        clamped to ``[1/total, 1.0]`` so estimates never hit zero."""
        if self.total <= 0:
            return 1.0
        lo, hi = self.lo, self.hi
        qlow = lo if low is None else low
        qhigh = hi if high is None else high
        if hi <= lo:                       # single-value column
            frac = 1.0 if qlow <= lo <= qhigh else 0.0
        else:
            qlow = max(qlow, lo)
            qhigh = min(qhigh, hi)
            if qhigh < qlow:
                frac = 0.0
            else:
                width = (hi - lo) / len(self.counts)
                covered = 0.0
                for i, count in enumerate(self.counts):
                    b_lo = lo + i * width
                    b_hi = hi if i == len(self.counts) - 1 \
                        else b_lo + width
                    overlap = min(qhigh, b_hi) - max(qlow, b_lo)
                    if overlap <= 0 or b_hi <= b_lo:
                        continue
                    covered += count * (overlap / (b_hi - b_lo))
                frac = covered / self.total
        return min(1.0, max(frac, 1.0 / self.total))


def _build_histogram(values) -> Optional[ColumnHistogram]:
    """Histogram over the finite numeric values of a column (exact ``int``
    / ``float`` only — ``bool`` and other comparable-but-odd types keep
    the fixed-fraction fallback); None when nothing is histogrammable."""
    numeric = []
    for value in values:
        if type(value) in (int, float):
            try:
                numeric.append(float(value))
            except OverflowError:
                return None
    numeric = [value for value in numeric if math.isfinite(value)]
    if not numeric:
        return None
    lo = min(numeric)
    hi = max(numeric)
    counts = [0] * HISTOGRAM_BUCKETS
    if hi <= lo:
        counts[0] = len(numeric)
    else:
        scale = HISTOGRAM_BUCKETS / (hi - lo)
        last = HISTOGRAM_BUCKETS - 1
        for value in numeric:
            idx = int((value - lo) * scale)
            counts[idx if idx < last else last] += 1
    return ColumnHistogram(lo=lo, hi=hi, counts=tuple(counts),
                           total=len(numeric))


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
        # (table, columns-or-None) -> (freshness token, value)
        self._cache: Dict[Tuple[str, Optional[Tuple[str, ...]]],
                          Tuple[Tuple, Any]] = {}
        # Observability, on the database's registry scope: memo misses,
        # and which source answered each.
        self._computations = db.metrics.counter("stats.computations")
        self._columnar_served = db.metrics.counter("stats.columnar_served")
        self._heap_served = db.metrics.counter("stats.heap_served")

    @property
    def anchor(self) -> int:
        """The stats anchor: the node's committed block height."""
        return self.db.committed_height

    def _token(self, table: str) -> Tuple:
        heap = self.db.catalog.heap_of(table)
        return (self.db.catalog.version, self.anchor, heap.commit_stamps)

    def _cached(self, table: str,
                columns: Optional[Tuple[str, ...]], compute):
        token = self._token(table)
        key = (table, columns)
        entry = self._cache.get(key)
        if entry is not None and entry[0] == token:
            return entry[1]
        value = compute()
        self._cache[key] = (token, value)
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

        def compute() -> AnchoredTableStats:
            count = self._columnar_row_count(table, anchor)
            if count is None:
                count = self._heap_row_count(table, anchor)
                self._heap_served.inc()
            else:
                self._columnar_served.inc()
            return AnchoredTableStats(table=table, anchor=anchor,
                                      row_count=count)

        return self._cached(table, None, compute)

    def _columnar_row_count(self, table: str,
                            anchor: int) -> Optional[int]:
        store = getattr(self.db, "columnstore", None)
        if store is None:
            return None
        try:
            return store.committed_rows(self.db, table, anchor)
        except CatalogError:
            return None

    def _heap_row_count(self, table: str, anchor: int) -> int:
        heap = self.db.catalog.heap_of(table)
        return sum(1 for version in heap.all_versions()
                   if self._visible_at_anchor(version, anchor))

    def _visible_at_anchor(self, version, anchor: int) -> bool:
        """The committed-at-anchor predicate, shared with the columnar
        replica's ``visible_at``: created by a committed transaction at or
        below the anchor, and not deleted by a committed transaction at
        or below it."""
        statuses = self.db.statuses
        if version.creator_block is None or version.creator_block > anchor:
            return False
        if not statuses.is_committed(version.xmin):
            return False
        if version.deleter_block is not None \
                and version.xmax_winner is not None \
                and statuses.is_committed(version.xmax_winner) \
                and version.deleter_block <= anchor:
            return False
        return True

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
            count = self._columnar_ndv(table, columns, anchor)
            if count is None:
                count = self._heap_ndv(table, columns, anchor)
                self._heap_served.inc()
            else:
                self._columnar_served.inc()
            return max(1, count)

        return self._cached(table, columns, compute)

    def _columnar_ndv(self, table: str, columns: Tuple[str, ...],
                      anchor: int) -> Optional[int]:
        store = getattr(self.db, "columnstore", None)
        if store is None:
            return None
        try:
            return store.distinct_count(self.db, table, columns, anchor,
                                        _stats_key)
        except CatalogError:
            return None

    def _heap_ndv(self, table: str, columns: Tuple[str, ...],
                  anchor: int) -> int:
        heap = self.db.catalog.heap_of(table)
        seen = set()
        for version in heap.all_versions():
            if not self._visible_at_anchor(version, anchor):
                continue
            values = tuple(version.values.get(col) for col in columns)
            if any(v is None for v in values):
                continue
            seen.add(_stats_key(values))
        return len(seen)

    # ------------------------------------------------------------------
    # Range histograms
    # ------------------------------------------------------------------

    def histogram(self, table: str,
                  column: str) -> Optional[ColumnHistogram]:
        """Anchored equi-width histogram over ``column``'s committed
        numeric values; None when the column holds nothing
        histogrammable.  Cached under the same freshness token as the
        other statistics (the ``("__hist__", column)`` pseudo-columns
        key cannot collide with a real NDV request, which always names
        existing columns)."""
        self.db.catalog.schema_of(table)
        anchor = self.anchor

        def compute() -> Optional[ColumnHistogram]:
            values = self._columnar_values(table, column, anchor)
            if values is None:
                values = self._heap_values(table, column, anchor)
                self._heap_served.inc()
            else:
                self._columnar_served.inc()
            return _build_histogram(values)

        return self._cached(table, ("__hist__", column), compute)

    def _columnar_values(self, table: str, column: str, anchor: int):
        store = getattr(self.db, "columnstore", None)
        if store is None:
            return None
        try:
            return store.column_values(self.db, table, column, anchor)
        except CatalogError:
            return None

    def _heap_values(self, table: str, column: str, anchor: int):
        heap = self.db.catalog.heap_of(table)
        return [version.values.get(column)
                for version in heap.all_versions()
                if self._visible_at_anchor(version, anchor)]

    def range_selectivity(self, table: str, column: str,
                          slot: Dict[str, Any]) -> Optional[float]:
        """Selectivity of one sargable range slot (``{"low": (value,
        inclusive), "high": ...}`` as produced by ``extract_bounds``)
        from the anchored histogram; None when no histogram exists or a
        bound is non-numeric — the caller keeps the fixed-fraction
        guess, so estimates degrade, never error."""
        hist = self.histogram(table, column)
        if hist is None:
            return None
        low = slot.get("low")
        high = slot.get("high")
        low_v = low[0] if low is not None else None
        high_v = high[0] if high is not None else None
        for bound in (low_v, high_v):
            if bound is not None and type(bound) not in (int, float):
                return None
        try:
            low_f = None if low_v is None else float(low_v)
            high_f = None if high_v is None else float(high_v)
        except OverflowError:
            return None
        return hist.range_fraction(low_f, high_f)
