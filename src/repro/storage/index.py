"""B-tree style secondary indexes.

The paper requires every predicate read in the execute-order-in-parallel
flow to be served by an index (section 4.3) — the phantom/stale-read checks
are run over the index entries matching the predicate.  Like PostgreSQL,
indexes here point at *row versions* (every version gets an entry; dead
versions are filtered by visibility at scan time).

Keys are normalized so heterogeneous values order deterministically across
nodes (None < numbers < NaN < strings: a boolean is the number ``=``
compares it as, NaN sits where ``compare_values`` puts it, equal to
itself).  A key is one flat tuple,
``(rank, value, rank, value, ...)`` — two slots per indexed column, the
value itself rather than a float copy of it (Python compares ``int`` with
``float`` exactly) — and equal keys of a non-unique index share one
tuple object: a ``blocknumber`` or ``org`` index repeats the same key for
every row of a block, so an entry costs two list slots, not a tuple.

Storage layout: two parallel sorted arrays (``_keys`` / ``_ids``) hold the
settled entries, plus a small sorted *pending* tail absorbing new inserts.
Point inserts go to the pending arrays (cheap: the tail stays small), and
the block processor merges a block's worth of pending entries into the
settled arrays in **one pass** at block end (:meth:`merge_pending`) — bulk
index maintenance instead of one O(n) ``list.insert`` memmove per row.

Scans come in two flavours.  Unordered scans (:meth:`scan_eq`,
:meth:`scan_range` — existence probes, predicate reads, plan scans that
content-sort their output anyway) bisect both regions and concatenate the
slices, so they never pay for merging.  Ordered scans
(:meth:`ordered_scan`, :meth:`scan_all` — ``ORDER BY`` pipelines,
provenance) fold the pending tail into the settled arrays first
(merge-on-demand), after which they are pure bisect + slice.  Entries are
visible the instant they are inserted either way: a transaction's own
reads and the EO phantom window checks see uncommitted entries exactly as
before.
"""

from __future__ import annotations

import bisect
from decimal import Decimal
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TypeMismatchError

_RANK_NONE = 0
_RANK_NUM = 1
_RANK_NAN = 2
_RANK_STR = 3

_NAN_PART = (_RANK_NAN, 0)   # every NaN: one key, above every number

#: Sorts above every rank: ``key + _POS_INF`` is the exclusive upper
#: probe of "every key starting with ``key``".
_POS_INF = (4,)

#: Pending entries auto-merge past this size so the tail stays cheap to
#: bisect even on paths that never reach a block boundary.
AUTO_MERGE_THRESHOLD = 1024


def normalize_key_part(value: Any) -> Tuple:
    """Map a single value to a ``(rank, value)`` pair that compares
    deterministically: a total order (NaN too), which ``bisect`` needs.
    A boolean keys as the number ``=`` says it equals (``TRUE = 1``)."""
    if value is None:
        return (_RANK_NONE, None)
    if isinstance(value, bool):
        return (_RANK_NUM, int(value))
    if isinstance(value, (int, float)):
        return (_RANK_NUM, value) if value == value else _NAN_PART
    if isinstance(value, Decimal):
        # ``=`` compares a Decimal with a float through float.
        return _NAN_PART if value.is_nan() else (_RANK_NUM, float(value))
    if isinstance(value, str):
        return (_RANK_STR, value)
    raise TypeMismatchError(f"unindexable value type {type(value).__name__}")


def exact_key_part(value: Any) -> Tuple:
    """:func:`normalize_key_part` of a bound on a column that ``=``
    compares with a Decimal exactly (INT): a finite Decimal keys as
    itself, which Python orders against ints exactly (``Decimal(2)``
    equals the key ``2``), so it never rounds through float onto a
    neighbouring integer."""
    if isinstance(value, Decimal) and value.is_finite():
        return (_RANK_NUM, value)
    return normalize_key_part(value)


def normalize_key(values: Sequence[Any]) -> Tuple:
    """The flat key of ``values``: their ``(rank, value)`` pairs
    concatenated."""
    key: Tuple = ()
    for value in values:
        key += normalize_key_part(value)
    return key


def key_depth(key: Optional[Tuple]) -> int:
    """Number of columns a normalized key (or key prefix) binds."""
    return len(key) // 2 if key else 0


class Index:
    """A sorted (key, version_id) multimap supporting point and range scans.

    Deletions are logical via MVCC visibility (the blockchain database
    keeps all history); an entry goes only when its version is physically
    reclaimed (:meth:`remove`).

    Invariant: within a run of equal keys, version ids ascend in each
    region — a new version has the highest id of its table and lands at
    the end of its run (``bisect_right``), and merges keep settled
    entries ahead of pending ones.
    """

    def __init__(self, name: str, table_name: str, columns: Sequence[str],
                 unique: bool = False):
        self.name = name
        self.table_name = table_name
        self.columns = tuple(columns)
        self.unique = unique
        # Settled region: parallel sorted arrays.
        self._keys: List[Tuple] = []
        self._ids: List[int] = []
        # Pending region: sorted tail absorbing point inserts until the
        # next bulk merge (block end, an ordered scan, or the threshold).
        self._pending_keys: List[Tuple] = []
        self._pending_ids: List[int] = []
        # Observability: bulk-maintenance counters.
        self.bulk_merges = 0
        self.merged_entries = 0

    def __len__(self) -> int:
        return len(self._ids) + len(self._pending_ids)

    @property
    def pending_count(self) -> int:
        return len(self._pending_ids)

    def key_for(self, values: dict) -> Tuple:
        """Extract this index's normalized key from a row's values."""
        return normalize_key([values.get(col) for col in self.columns])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, values: dict, version_id: int) -> None:
        key = self.key_for(values)
        pos = bisect.bisect_right(self._pending_keys, key)
        if not self.unique:
            # Share the tuple of an equal neighbour, pending or settled.
            if pos and self._pending_keys[pos - 1] == key:
                key = self._pending_keys[pos - 1]
            else:
                keys = self._keys
                settled = bisect.bisect_right(keys, key)
                if settled and keys[settled - 1] == key:
                    key = keys[settled - 1]
        self._pending_keys.insert(pos, key)
        self._pending_ids.insert(pos, version_id)
        if len(self._pending_ids) >= AUTO_MERGE_THRESHOLD:
            self.merge_pending()

    def remove(self, values: dict, version_id: int) -> bool:
        """Drop the entry of a physically reclaimed version; returns True
        when it existed.  Foreground only, like :meth:`insert`: the run
        of equal keys is bisected for the id (see the class invariant)
        and the entry deleted in place."""
        key = self.key_for(values)
        for keys, ids in ((self._keys, self._ids),
                          (self._pending_keys, self._pending_ids)):
            lo = bisect.bisect_left(keys, key)
            hi = bisect.bisect_right(keys, key, lo)
            pos = bisect.bisect_left(ids, version_id, lo, hi)
            if pos < hi and ids[pos] == version_id:
                del keys[pos]
                del ids[pos]
                return True
        return False

    def merge_pending(self) -> int:
        """Bulk maintenance: fold the sorted pending tail into the settled
        arrays; returns the number of entries merged.

        Three regimes: an append-only tail (monotone keys — ids,
        timestamps) extends the arrays; a tail small relative to the
        settled region uses per-entry ``list.insert`` (C memmove — the
        pre-batching cost, so merge-on-demand never regresses alternating
        insert/ordered-read patterns); a large tail does one linear
        two-way merge.

        The non-append regimes build fresh arrays and publish them by
        assignment, so a caller still holding the id array ``scan_all``
        handed out keeps the old one, never a half-shifted one; the
        append regime extends in place, which only ever grows a valid
        prefix."""
        pending = len(self._pending_ids)
        if not pending:
            return 0
        keys, ids = self._keys, self._ids
        pkeys, pids = self._pending_keys, self._pending_ids
        if not keys or pkeys[0] >= keys[-1]:
            keys.extend(pkeys)
            ids.extend(pids)
        elif pending * 16 < len(keys):
            keys, ids = list(keys), list(ids)
            for key, version_id in zip(pkeys, pids):
                pos = bisect.bisect_right(keys, key)
                keys.insert(pos, key)
                ids.insert(pos, version_id)
            self._keys, self._ids = keys, ids
        else:
            merged_keys: List[Tuple] = []
            merged_ids: List[int] = []
            i = j = 0
            n, m = len(keys), pending
            while i < n and j < m:
                # `<=` keeps settled entries ahead of pending ones on key
                # ties — the order per-row bisect_right inserts produced.
                if keys[i] <= pkeys[j]:
                    merged_keys.append(keys[i])
                    merged_ids.append(ids[i])
                    i += 1
                else:
                    merged_keys.append(pkeys[j])
                    merged_ids.append(pids[j])
                    j += 1
            merged_keys.extend(keys[i:] or pkeys[j:])
            merged_ids.extend(ids[i:] or pids[j:])
            self._keys, self._ids = merged_keys, merged_ids
        self._pending_keys, self._pending_ids = [], []
        self.bulk_merges += 1
        self.merged_entries += pending
        return pending

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------

    def scan_eq(self, key_values: Sequence[Any]) -> List[int]:
        """All version ids whose key equals ``key_values`` (full key or
        prefix of the index columns).  Unordered across storage regions —
        entries still in the pending tail follow settled entries."""
        prefix = normalize_key(key_values)
        return self._scan(prefix, prefix, True, True, key_depth(prefix))

    def scan_range(self, low: Optional[Sequence[Any]],
                   high: Optional[Sequence[Any]],
                   low_inclusive: bool = True,
                   high_inclusive: bool = True) -> List[int]:
        """Version ids with low <= key <= high on the first index column.
        Unordered across storage regions (see :meth:`scan_eq`)."""
        low_key = normalize_key(low) if low is not None else None
        high_key = normalize_key(high) if high is not None else None
        depth = max(key_depth(low_key), key_depth(high_key), 1)
        return self._scan(low_key, high_key, low_inclusive, high_inclusive,
                          depth)

    @staticmethod
    def _probes(low_key: Optional[Tuple], high_key: Optional[Tuple],
                low_inclusive: bool, high_inclusive: bool
                ) -> Tuple[Optional[Tuple], Optional[Tuple]]:
        """Bisect probes implementing prefix-bound semantics: no rank
        reaches the ``_POS_INF`` sentinel, so appending it turns an
        inclusive prefix bound into a plain tuple comparison."""
        low_probe = None
        if low_key is not None:
            low_probe = low_key if low_inclusive else low_key + _POS_INF
        high_probe = None
        if high_key is not None:
            high_probe = high_key + _POS_INF if high_inclusive \
                else high_key
        return low_probe, high_probe

    @staticmethod
    def _bounds(keys: List[Tuple], low_probe: Optional[Tuple],
                high_probe: Optional[Tuple]) -> Tuple[int, int]:
        lo = 0 if low_probe is None else bisect.bisect_left(keys, low_probe)
        hi = len(keys) if high_probe is None \
            else bisect.bisect_left(keys, high_probe, lo)
        return lo, max(lo, hi)

    def _scan(self, low_key: Optional[Tuple], high_key: Optional[Tuple],
              low_inclusive: bool, high_inclusive: bool,
              depth: int) -> List[int]:
        """Range scan: two bisects per region, no per-entry comparisons
        (``depth`` is implied by the probe construction)."""
        low_probe, high_probe = self._probes(low_key, high_key,
                                             low_inclusive, high_inclusive)
        lo, hi = self._bounds(self._keys, low_probe, high_probe)
        if not self._pending_keys:
            return self._ids[lo:hi]
        plo, phi = self._bounds(self._pending_keys, low_probe, high_probe)
        if plo == phi:
            return self._ids[lo:hi]
        return self._ids[lo:hi] + self._pending_ids[plo:phi]

    def ordered_scan(self, low_key: Optional[Tuple],
                     high_key: Optional[Tuple],
                     low_inclusive: bool = True,
                     high_inclusive: bool = True) -> List[int]:
        """Range scan in full key order (``ORDER BY`` pipelines): folds
        any pending tail in first, then returns one contiguous slice."""
        self.merge_pending()
        low_probe, high_probe = self._probes(low_key, high_key,
                                             low_inclusive, high_inclusive)
        lo, hi = self._bounds(self._keys, low_probe, high_probe)
        return self._ids[lo:hi]

    def scan_all(self) -> List[int]:
        """Every entry in key order (used for ORDER BY optimizations and
        provenance).  Returns the internal id array — callers must treat
        it as read-only."""
        self.merge_pending()
        return self._ids

    def covers_columns(self, columns: Iterable[str]) -> bool:
        """True when ``columns`` form a prefix of the index columns — the
        condition for this index to serve a predicate on them."""
        wanted = list(columns)
        return tuple(wanted) == self.columns[:len(wanted)]
