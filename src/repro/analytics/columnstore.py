"""Per-node columnar read replica of committed state.

The paper's row store keeps every committed row version with its creator
and deleter block heights, which makes historical (`AS OF BLOCK h`)
queries *expressible* — but every read still funnels through the
transactional heap: per-version visibility checks, SIREAD recording, and
a content sort per scan.  HTAP designs (Polynesia et al.) route
analytical reads to a separate columnar replica instead; this module is
that replica.

Layout: one :class:`TableColumns` per table, holding a list of
:class:`ColumnChunk` objects.  A chunk stores

* one Python list per schema column (typed values, NULL = ``None``),
* parallel ``creators`` / ``deleters`` height vectors (the MVCC header),
* ``row_ids`` / ``version_ids`` / ``xmins`` / ``xmaxs`` for provenance,
* min/max **zone maps** per column (computed when the chunk seals) plus
  incrementally maintained ``min_creator`` / ``max_deleter`` /
  ``live_count`` counters, so scans can skip whole chunks.

Only *committed* versions are ever ingested — the store receives the
write sets of committed transactions (`Database.apply_commit` queues
them; the block processor's post-commit hook drains the queue), so
row-level visibility at height ``h`` reduces to the pure predicate
:func:`visible_at`: ``creator <= h and (deleter is None or deleter >
h)``.  State at or below the node's committed height is immutable, so
columnar reads need no SSI bookkeeping at all.

Consistency model: the store is an exact replica of the heap's committed
versions; every node keeps one, and every chunk encodes when it seals.
Anything that mutates committed history out-of-band (recovery rollback,
a dropped table) marks it **stale**; the next access rebuilds it from
the heap.  Vacuum does *not* touch the store — pruned history stays
queryable here up to the retained-height horizon the executor enforces.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from operator import le, ne
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.analytics.encoding import (
    DictVector,
    RLEVector,
    Span,
    rle_visible_spans,
    span_offsets,
    typed_array,
    vector_bytes,
)
from repro.errors import CatalogError
from repro.sql.expressions import compare_values

#: Rows per chunk before it seals and zone maps are computed.
DEFAULT_CHUNK_ROWS = 1024

#: Compaction cadence (in blocks) for the block processor hook.
DEFAULT_COMPACT_EVERY = 16

#: Dictionary-encoding cardinality ceiling (absolute; per-chunk the
#: adaptive threshold is the smaller of this and a quarter of the chunk's
#: rows, floored at 16 so small per-block chunks still encode).
DICT_MAX_NDV = 32767


def dict_ndv_threshold(rows: int) -> int:
    """Adaptive NDV ceiling for dictionary-encoding a chunk of ``rows``
    values: encoding only pays when codes repeat, so the threshold scales
    with the chunk (a quarter of its rows) within fixed bounds."""
    return min(DICT_MAX_NDV, max(16, rows // 4))


class ChunkCounters:
    """Registry counters shared by every chunk of a store (chunks are
    too numerous to carry their own scopes)."""

    __slots__ = ("encoded_chunks", "rle_runs_scanned")

    def __init__(self, encoded_chunks, rle_runs_scanned):
        self.encoded_chunks = encoded_chunks
        self.rle_runs_scanned = rle_runs_scanned


def visible_at(creator: Optional[int], deleter: Optional[int],
               height: int) -> bool:
    """Row visibility for committed versions at block ``height``.

    This is the columnar twin of the row store's
    ``visible_versions(..., BlockSnapshot(height), ...)`` for committed
    versions: created at or below the height, and not deleted at or
    below it.  Boundary semantics (``creator == h`` visible,
    ``deleter == h`` invisible, ``deleter > h`` visible) are shared with
    the row store and pinned by tests."""
    if creator is None or creator > height:
        return False
    return deleter is None or deleter > height


def _zone_cmp(a: Any, b: Any) -> Optional[int]:
    """Conservative comparison for zone pruning: ``None`` when the values
    are not comparable (never prune on a type mismatch)."""
    try:
        return compare_values(a, b)
    except Exception:
        return None


def zone_of(values: List[Any]) -> Tuple[Any, Any]:
    """``(min, max)`` of the non-NULL ``values`` under the engine's
    order (``compare_values``): NaN is equal to itself and above every
    other number, so the pair does not depend on where in the list a
    NaN sits — ``min()`` / ``max()`` alone skip or keep one by position.
    Raises ``TypeError`` for an incomparable mix."""
    if any(map(ne, values, values)):            # only NaN != itself
        ordered = [v for v in values if v == v]
        nan = next(v for v in values if v != v)
        return (min(ordered) if ordered else nan, nan)
    return min(values), max(values)


class ColumnChunk:
    """A fixed batch of row versions in columnar form.

    Unsealed chunks hold plain Python lists; :meth:`seal` re-encodes the
    frozen vectors (dictionary / RLE / typed arrays, see
    :mod:`repro.analytics.encoding`).  Every
    representation is read through the same ``vector[offset]`` protocol,
    so consumers never branch on the encoding."""

    __slots__ = ("data", "row_ids", "version_ids", "xmins", "xmaxs",
                 "creators", "deleters", "live_count", "min_creator",
                 "max_creator", "max_deleter", "zones", "null_counts",
                 "ascending", "sealed", "counters")

    def __init__(self, columns: Iterable[str],
                 counters: Optional[ChunkCounters] = None):
        self.data: Dict[str, List[Any]] = {col: [] for col in columns}
        self.row_ids: List[int] = []
        self.version_ids: List[int] = []
        self.xmins: List[int] = []
        self.xmaxs: List[Optional[int]] = []
        self.creators: List[int] = []
        self.deleters: List[Optional[int]] = []
        self.live_count = 0
        self.min_creator: Optional[int] = None
        self.max_creator: Optional[int] = None
        self.max_deleter: Optional[int] = None
        self.zones: Dict[str, Tuple[Any, Any]] = {}
        self.null_counts: Dict[str, int] = {}
        # Typed columns whose values never decrease down the chunk (a
        # key in ingest order): a range predicate on one is two bisects.
        self.ascending: Set[str] = set()
        self.sealed = False
        self.counters = counters

    def __len__(self) -> int:
        return len(self.creators)

    # -- ingest ------------------------------------------------------------

    def append(self, values: Dict[str, Any], row_id: int, version_id: int,
               xmin: int, creator: int) -> int:
        for col, vector in self.data.items():
            vector.append(values.get(col))
        self.row_ids.append(row_id)
        self.version_ids.append(version_id)
        self.xmins.append(xmin)
        self.xmaxs.append(None)
        self.creators.append(creator)
        self.deleters.append(None)
        self.live_count += 1
        if self.min_creator is None or creator < self.min_creator:
            self.min_creator = creator
        if self.max_creator is None or creator > self.max_creator:
            self.max_creator = creator
        return len(self.creators) - 1

    def mark_deleted(self, offset: int, deleter: int,
                     xmax: Optional[int]) -> None:
        if self.deleters[offset] is None:
            self.live_count -= 1
        self.deleters[offset] = deleter
        self.xmaxs[offset] = xmax
        if self.max_deleter is None or deleter > self.max_deleter:
            self.max_deleter = deleter

    def seal(self) -> None:
        """Freeze the chunk and compute per-column min/max zone maps and
        NULL counts, then re-encode the vectors.  Columns with
        incomparable value mixes get no zone map (scans fall back to
        reading the chunk — conservative, never wrong).  Zone maps stay
        in *value* space — computed before the vectors re-encode — so
        bounds compare against values, never dictionary codes."""
        self.sealed = True
        self.zones = {}
        self.null_counts = {}
        self.ascending = set()
        for col, vector in self.data.items():
            values = [v for v in vector if v is not None]
            self.null_counts[col] = len(vector) - len(values)
            if not values:
                continue
            try:
                self.zones[col] = zone_of(values)
            except TypeError:
                continue
        self._encode_vectors()

    def _encode_vectors(self) -> None:
        """Re-encode the sealed vectors: creators/deleters/xmins/xmaxs
        to RLE (block-grained by construction — one creator height and
        a handful of transactions per ingested block; late deleter/xmax
        stamps rewrite runs in place), low-cardinality TEXT columns to
        dictionaries, NULL-free int/float columns to typed arrays.  A
        no-op on empty chunks."""
        rows = len(self.creators)
        if not rows:
            return
        self.creators = RLEVector.from_list(self.creators)
        self.deleters = RLEVector.from_list(self.deleters)
        self.xmins = RLEVector.from_list(self.xmins)
        self.xmaxs = RLEVector.from_list(self.xmaxs)
        for name in ("row_ids", "version_ids"):
            typed = typed_array(getattr(self, name))
            if typed is not None:
                setattr(self, name, typed)
        max_ndv = dict_ndv_threshold(rows)
        for col, vector in self.data.items():
            encoded = DictVector.encode(vector, max_ndv)
            if encoded is not None:
                self.data[col] = encoded
                continue
            typed = typed_array(vector)
            if typed is not None:
                self.data[col] = typed
                # NaN is unordered for ``<=``, so a column holding one
                # is never recorded (alone in its chunk, the zone says).
                hi = self.zones[col][1]
                if hi == hi and all(map(le, typed, typed[1:])):
                    self.ascending.add(col)
        if self.counters is not None:
            self.counters.encoded_chunks.inc()

    def memory_bytes(self, seen: Set[int]) -> int:
        """Container + distinct-payload bytes of every vector of the
        chunk (``seen`` deduplicates payload objects shared across
        vectors and chunks — e.g. one string referenced by many rows)."""
        total = 0
        for vector in self.data.values():
            total += vector_bytes(vector, seen)
        for vector in (self.row_ids, self.version_ids, self.xmins,
                       self.xmaxs, self.creators, self.deleters):
            total += vector_bytes(vector, seen)
        return total

    # -- pruning -----------------------------------------------------------

    def may_contain_height(self, height: int) -> bool:
        """False when no row of the chunk can be visible at ``height``."""
        if self.min_creator is None or self.min_creator > height:
            return False  # every row created after the snapshot height
        if self.live_count == 0 and self.max_deleter is not None \
                and self.max_deleter <= height:
            return False  # every row already deleted at the height
        return True

    def fully_visible_at(self, height: int) -> bool:
        """True when *every* row of the chunk is visible at ``height`` —
        provable from the counters alone (no deleter stamps, all creators
        at or below the height)."""
        return (self.max_creator is not None
                and self.max_creator <= height
                and self.live_count == len(self.creators))

    def visible_count_at(self, height: int) -> Optional[int]:
        """Visible-row count at ``height`` from chunk counters alone, or
        None when the counters cannot prove a count (a row scan is then
        required).  Cases the counters settle exactly:

        * nothing can be visible (``may_contain_height`` is False) → 0;
        * all creators at/below the height and no deleter stamps → len;
        * all creators *and* all deleter stamps at/below the height →
          ``live_count`` (every stamped deletion already happened, every
          surviving row is visible).
        """
        if not self.may_contain_height(height):
            return 0
        if self.max_creator is None or self.max_creator > height:
            return None
        if self.live_count == len(self.creators):
            return len(self.creators)
        if self.max_deleter is not None and self.max_deleter <= height:
            return self.live_count
        return None

    def may_match_bounds(self, bounds: Dict[str, Dict[str, Any]]) -> bool:
        """Zone-map test against sargable bounds extracted from WHERE.
        Only AND-ed conjunct bounds arrive here, so a column range that
        cannot overlap the chunk's min/max proves the chunk empty for
        the query."""
        for col, slot in bounds.items():
            zone = self.zones.get(col)
            if zone is None:
                continue
            lo, hi = zone
            if "eq" in slot:
                value = slot["eq"]
                if _zone_cmp(value, lo) == -1 or _zone_cmp(value, hi) == 1:
                    return False
                continue
            if "low" in slot:
                value, inclusive = slot["low"]
                cmp = _zone_cmp(hi, value)
                if cmp == -1 or (cmp == 0 and not inclusive):
                    return False
            if "high" in slot:
                value, inclusive = slot["high"]
                cmp = _zone_cmp(lo, value)
                if cmp == 1 or (cmp == 0 and not inclusive):
                    return False
        return True

    # -- selection ---------------------------------------------------------

    def visible_spans(self, height: int,
                      counted: bool = True) -> List[Span]:
        """The rows visible at ``height`` as maximal ``(start, stop)``
        runs of offsets, ascending.  The planner's statistics reads
        pass ``counted=False``: ``rle_runs_scanned`` is query traffic."""
        creators = self.creators
        deleters = self.deleters
        rows = len(creators)
        if self.max_creator is not None and self.max_creator <= height \
                and self.live_count == rows:
            return [(0, rows)] if rows else []  # append-only fast path
        if type(creators) is RLEVector:
            # Encoded chunk: one visibility decision per intersected
            # creator/deleter run instead of per row.
            spans, runs = rle_visible_spans(
                creators, deleters, height,
                settled=self.max_creator <= height
                and self.max_deleter <= height)
            if counted and self.counters is not None:
                self.counters.rle_runs_scanned.inc(runs)
            return spans
        spans: List[Span] = []
        for i in range(rows):
            if creators[i] <= height and \
                    (deleters[i] is None or deleters[i] > height):
                if spans and spans[-1][1] == i:
                    spans[-1] = (spans[-1][0], i + 1)
                else:
                    spans.append((i, i + 1))
        return spans

    def header_at(self, offset: int) -> Dict[str, Any]:
        """Provenance pseudo-columns for one row of the chunk."""
        return {
            "xmin": self.xmins[offset],
            "xmax": self.xmaxs[offset],
            "creator": self.creators[offset],
            "deleter": self.deleters[offset],
            "row_id": self.row_ids[offset],
            "version_id": self.version_ids[offset],
        }

    def values_at(self, offset: int,
                  columns: Iterable[str]) -> Dict[str, Any]:
        data = self.data
        return {col: data[col][offset] for col in columns}

    def row_with_header(self, offset: int) -> Dict[str, Any]:
        """Column values merged with the provenance pseudo-columns
        (real columns shadow header names, matching the provenance
        scan's ``setdefault`` behaviour; ``version_id`` is physical and
        stays internal)."""
        row = self.values_at(offset, self.data)
        for key, value in self.header_at(offset).items():
            if key != "version_id":
                row.setdefault(key, value)
        return row


class TableColumns:
    """All chunks of one table plus the version locator."""

    def __init__(self, table: str, columns: Iterable[str],
                 target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 counters: Optional[ChunkCounters] = None):
        self.table = table
        self.columns = list(columns)
        self.target_chunk_rows = target_chunk_rows
        self.counters = counters
        self.chunks: List[ColumnChunk] = []
        # The version locator — late deleter stamps land on rows ingested
        # blocks (or chunks) earlier.  A heap numbers its versions
        # densely from 1, so the locator is an array indexed by version
        # id (8 bytes a version, where a dict of (chunk, offset) tuples
        # cost ~130) holding the row's *ordinal* in the table's chunk
        # sequence, -1 for a version never ingested; compaction merges
        # neighbouring chunks in place and so moves no ordinal.
        # ``_chunk_starts[i]`` is the ordinal of ``chunks[i]``'s row 0.
        self._ordinals = array("q")
        self._chunk_starts: List[int] = []
        self._rows = 0

    def __len__(self) -> int:
        return self._rows

    # -- ingest ------------------------------------------------------------

    def _new_chunk(self) -> ColumnChunk:
        return ColumnChunk(self.columns, counters=self.counters)

    def _open_chunk(self) -> ColumnChunk:
        if self.chunks and not self.chunks[-1].sealed:
            return self.chunks[-1]
        chunk = self._new_chunk()
        self.chunks.append(chunk)
        self._chunk_starts.append(self._rows)
        return chunk

    def append_version(self, values: Dict[str, Any], row_id: int,
                       version_id: int, xmin: int, creator: int) -> None:
        chunk = self._open_chunk()
        chunk.append(values, row_id, version_id, xmin, creator)
        ordinals = self._ordinals
        if version_id >= len(ordinals):
            ordinals.extend([-1] * (version_id + 1 - len(ordinals)))
        ordinals[version_id] = self._rows
        self._rows += 1
        if len(chunk) >= self.target_chunk_rows:
            chunk.seal()

    def locate(self, version_id: int
               ) -> Optional[Tuple[ColumnChunk, int]]:
        """The chunk and offset holding ``version_id``, if ingested."""
        if not 0 <= version_id < len(self._ordinals):
            return None
        ordinal = self._ordinals[version_id]
        if ordinal < 0:
            return None
        index = bisect_right(self._chunk_starts, ordinal) - 1
        return self.chunks[index], ordinal - self._chunk_starts[index]

    def seal_open(self) -> None:
        """Seal the open tail chunk (block boundary): sealed chunks get
        zone maps, so each block's delta becomes prunable immediately;
        the small per-block chunks are merged back to full size by
        periodic compaction."""
        if self.chunks and not self.chunks[-1].sealed and \
                len(self.chunks[-1]):
            self.chunks[-1].seal()

    def mark_deleted(self, version_id: int, deleter: int,
                     xmax: Optional[int]) -> bool:
        entry = self.locate(version_id)
        if entry is None:
            return False
        chunk, offset = entry
        chunk.mark_deleted(offset, deleter, xmax)
        return True

    def drop_versions(self, version_ids: Iterable[int]) -> None:
        """Take ingested ``version_ids`` out: the chunks from the one
        holding the first of them on are rebuilt without them, every
        other row in its order.  They were appended since the last block
        boundary, so this rebuilds a tail, not the table."""
        drop = set(version_ids)
        first = min(self._ordinals[version_id] for version_id in drop)
        index = bisect_right(self._chunk_starts, first) - 1
        tail = self.chunks[index:]
        self._rows = self._chunk_starts[index]
        del self.chunks[index:], self._chunk_starts[index:]
        for chunk in tail:
            for offset in range(len(chunk)):
                version_id = chunk.version_ids[offset]
                self._ordinals[version_id] = -1
                if version_id in drop:
                    continue
                self.append_version(
                    chunk.values_at(offset, self.columns),
                    chunk.row_ids[offset], version_id, chunk.xmins[offset],
                    chunk.creators[offset])
                deleter = chunk.deleters[offset]
                if deleter is not None:
                    self.mark_deleted(version_id, deleter,
                                      chunk.xmaxs[offset])

    # -- compaction --------------------------------------------------------

    def compact(self) -> int:
        """Merge runs of small sealed chunks into full-size ones; returns
        the number of chunks eliminated.  Zone maps are rebuilt for
        merged chunks and row order is kept, so the locator only needs
        the new chunk boundaries; the open tail chunk is untouched."""
        small = self.target_chunk_rows // 2
        out: List[ColumnChunk] = []
        run: List[ColumnChunk] = []

        def flush_run() -> None:
            if len(run) <= 1:
                out.extend(run)
                run.clear()
                return
            merged = self._new_chunk()
            for chunk in run:
                for offset in range(len(chunk)):
                    new_offset = merged.append(
                        chunk.values_at(offset, self.columns),
                        chunk.row_ids[offset], chunk.version_ids[offset],
                        chunk.xmins[offset], chunk.creators[offset])
                    deleter = chunk.deleters[offset]
                    if deleter is not None:
                        merged.mark_deleted(new_offset, deleter,
                                            chunk.xmaxs[offset])
                    if len(merged) >= self.target_chunk_rows:
                        merged.seal()
                        out.append(merged)
                        merged = self._new_chunk()
            if len(merged):
                merged.seal()
                out.append(merged)
            run.clear()

        for chunk in self.chunks:
            if chunk.sealed and len(chunk) < small:
                run.append(chunk)
            else:
                flush_run()
                out.append(chunk)
        flush_run()
        eliminated = max(0, len(self.chunks) - len(out))
        self.chunks = out
        self._chunk_starts, rows = [], 0
        for chunk in out:
            self._chunk_starts.append(rows)
            rows += len(chunk)
        return eliminated


class ColumnStore:
    """The per-database columnar replica."""

    def __init__(self, target_chunk_rows: int = DEFAULT_CHUNK_ROWS,
                 compact_every: int = DEFAULT_COMPACT_EVERY,
                 metrics=None):
        self.target_chunk_rows = target_chunk_rows
        self.compact_every = max(1, compact_every)
        self.tables: Dict[str, TableColumns] = {}
        # Committed-but-not-yet-ingested write sets, in commit order.
        self._pending: List[list] = []
        self._stale = True  # rebuilt from the heap on first access
        self.synced_height = 0
        # Observability counters on the unified registry.
        if metrics is None:
            from repro.obs.metrics import private_scope
            metrics = private_scope()
        self.metrics = metrics
        self._ingested_versions = metrics.counter(
            "columnstore.ingested_versions")
        self._deleter_updates = metrics.counter(
            "columnstore.deleter_updates")
        self._rebuilds = metrics.counter("columnstore.rebuilds")
        self._compactions = metrics.counter("columnstore.compactions")
        self._chunks_pruned = metrics.counter("columnstore.chunks_pruned")
        self._chunks_scanned = metrics.counter(
            "columnstore.chunks_scanned")
        # Chunks whose aggregate contribution was answered from zone maps
        # and counters alone (no row touch) — see ColumnarAggregate.
        self._zone_only_chunks = metrics.counter(
            "columnstore.zone_only_chunks")
        # Encoding counters: chunks re-encoded at seal, predicate/group
        # translations to dictionary codes, and RLE runs inspected by
        # visibility walks.
        self._encoded_chunks = metrics.counter(
            "columnstore.encoded_chunks")
        self._dict_hits = metrics.counter("columnstore.dict_hits")
        self._rle_runs_scanned = metrics.counter(
            "columnstore.rle_runs_scanned")
        self._chunk_counters = ChunkCounters(self._encoded_chunks,
                                             self._rle_runs_scanned)
        # Which form ColumnarAggregate folded its argument columns in:
        # rows read from typed arrays against rows read from plain
        # lists (a NULL, a bool or a mixed column; an unsealed chunk).
        self._rows_folded_typed = metrics.counter(
            "analytics.rows_folded_typed")
        self._rows_folded_generic = metrics.counter(
            "analytics.rows_folded_generic")
        # Live memory footprint per stored row version.
        metrics.gauge("columnstore.bytes_per_row",
                      fn=lambda: self.memory_stats()["bytes_per_row"])
        metrics.gauge("columnstore.pending_commits",
                      fn=lambda: len(self._pending))
        metrics.gauge("columnstore.chunks",
                      fn=lambda: sum(len(t.chunks)
                                     for t in self.tables.values()))

    # -- lifecycle ---------------------------------------------------------

    def mark_stale(self) -> None:
        """Committed history changed out-of-band (recovery rollback, a
        dropped table): drop pending deltas and rebuild on next access."""
        self._stale = True
        self._pending.clear()

    @property
    def stale(self) -> bool:
        return self._stale

    # -- ingest ------------------------------------------------------------

    def note_commit(self, tx) -> None:
        """Hot-path hook from ``Database.apply_commit``: queue the
        committed write set for lazy ingestion (one list append — the
        OLTP commit path pays nothing else)."""
        if self._stale or not tx.writes:
            return
        self._pending.append(list(tx.writes))

    def note_block(self, committed) -> None:
        """Block-granular twin of :meth:`note_commit`: queue a whole
        block's committed write sets in commit order with one pass.  The
        resulting pending queue is identical to per-transaction
        ``note_commit`` calls (tests/node/test_commit_pipeline.py)."""
        if self._stale:
            return
        self._pending.extend(list(tx.writes) for tx in committed
                             if tx.writes)

    def ensure_synced(self, db) -> None:
        """Bring the store up to date with the heap's committed state:
        full rebuild when stale, otherwise drain the pending delta
        queue."""
        if self._stale:
            self.rebuild(db)
        else:
            self._ingest(db)

    def on_block(self, db, height: int) -> None:
        """Block processor post-commit hook (recovery's finalize-from-WAL
        calls it too): bring the replica up to block ``height``.  A stale
        store rebuilds from the live heaps, which already hold the
        block, and is left with no deltas to ingest."""
        if self._stale:
            self.rebuild(db)
        self.ingest_block(db, height)

    def ingest_block(self, db, height: int) -> None:
        """Ingest the queued deltas of block ``height`` into the column
        chunks, seal them (zone maps), and compact the accumulated
        per-block chunks periodically."""
        self._ingest(db)
        self.synced_height = max(self.synced_height, height)
        for tcols in self.tables.values():
            tcols.seal_open()
        if height % self.compact_every == 0:
            self.compact()

    def _table_for(self, db, name: str) -> Optional[TableColumns]:
        tcols = self.tables.get(name)
        if tcols is None:
            if not db.catalog.has_table(name):
                return None
            columns = db.catalog.schema_of(name).column_names()
            tcols = TableColumns(name, columns, self.target_chunk_rows,
                                 counters=self._chunk_counters)
            self.tables[name] = tcols
        return tcols

    def _ingest(self, db) -> None:
        """Drain the pending queue into the column chunks.

        A version the row store queued for reclaim at its retirement
        horizon (``Database.reclaim_queued``) is neither appended nor
        stamped deleted — no block height sees it.  One appended before
        it was queued, by a read that synced the replica (or rebuilt it)
        mid-block, is dropped here."""
        pending, self._pending = self._pending, []
        if not pending:
            return
        withheld = db.reclaim_queued()
        for writes in pending:
            for entry in writes:
                tcols = self._table_for(db, entry.table)
                if tcols is None:
                    continue  # table dropped since the commit
                new = entry.new_version
                if new is not None and new.creator_block is not None \
                        and (entry.table, new.version_id) not in withheld:
                    tcols.append_version(
                        new.values, new.row_id, new.version_id, new.xmin,
                        new.creator_block)
                    self._ingested_versions.inc()
                old = entry.old_version
                if old is not None and old.deleter_block is not None \
                        and (entry.table, old.version_id) not in withheld:
                    if tcols.mark_deleted(old.version_id, old.deleter_block,
                                          old.xmax_winner):
                        self._deleter_updates.inc()
        appended: Dict[str, List[int]] = {}
        for table, version_id in withheld:
            tcols = self.tables.get(table)
            if tcols is not None and tcols.locate(version_id) is not None:
                appended.setdefault(table, []).append(version_id)
        for table, version_ids in appended.items():
            self.tables[table].drop_versions(version_ids)

    def rebuild(self, db) -> None:
        """Reconstruct the store from the heap's committed versions (used
        at first access and after recovery rollback or a dropped table).
        History already vacuumed from the heap is gone here too — the
        executor's retained-height gate keeps such reads un-servable, and
        versions queued for reclaim are left out as :meth:`_ingest`
        leaves them."""
        self.tables = {}
        self._pending.clear()
        statuses = db.statuses
        withheld = db.reclaim_queued()
        for name in db.catalog.table_names():
            tcols = self._table_for(db, name)
            heap = db.catalog.heap_of(name)
            for version in heap.all_versions():
                if version.creator_block is None or \
                        not statuses.is_committed(version.xmin) or \
                        (name, version.version_id) in withheld:
                    continue
                tcols.append_version(
                    version.values, version.row_id, version.version_id,
                    version.xmin, version.creator_block)
                self._ingested_versions.inc()
                if version.deleter_block is not None and \
                        version.xmax_winner is not None and \
                        statuses.is_committed(version.xmax_winner):
                    tcols.mark_deleted(version.version_id,
                                       version.deleter_block,
                                       version.xmax_winner)
        self._stale = False
        self.synced_height = db.committed_height
        self._rebuilds.inc()

    # -- maintenance -------------------------------------------------------

    def compact(self) -> int:
        removed = 0
        for tcols in self.tables.values():
            removed += tcols.compact()
        if removed:
            self._compactions.inc()
        return removed

    # -- reads -------------------------------------------------------------

    def table(self, name: str) -> Optional[TableColumns]:
        return self.tables.get(name)

    def scan(self, db, table: str, height: Optional[int] = None,
             bounds: Optional[Dict[str, Dict[str, Any]]] = None):
        """Yield ``(chunk, spans)`` pairs for rows of ``table`` visible
        at ``height`` (every committed version when ``height`` is None),
        pruning chunks via the height counters and zone maps; ``spans``
        are the visible ``(start, stop)`` runs of offsets, never empty."""
        self.ensure_synced(db)
        tcols = self.tables.get(table)
        if tcols is None:
            return
        for chunk in tcols.chunks:
            if height is not None and not chunk.may_contain_height(height):
                self._chunks_pruned.inc()
                continue
            if bounds and chunk.sealed and \
                    not chunk.may_match_bounds(bounds):
                self._chunks_pruned.inc()
                continue
            self._chunks_scanned.inc()
            if height is not None:
                spans = chunk.visible_spans(height)
            else:
                spans = [(0, len(chunk))] if len(chunk) else []
            if spans:
                yield chunk, spans

    def chunks_at(self, db, table: str, height: int):
        """Yield the chunks of ``table`` that may hold rows visible at
        ``height`` (height-pruned only — callers that can answer from
        chunk metadata avoid computing per-row offsets entirely)."""
        self.ensure_synced(db)
        tcols = self.tables.get(table)
        if tcols is None:
            return
        for chunk in tcols.chunks:
            if not chunk.may_contain_height(height):
                self._chunks_pruned.inc()
                continue
            yield chunk

    # -- planner statistics (snapshot-anchored, see sql/stats.py) ----------

    def committed_rows(self, db, table: str, height: int) -> int:
        """Exact committed-row count visible at ``height``, answered from
        the creator/deleter vectors (chunk counters where they prove the
        count, per-row visibility otherwise)."""
        self.ensure_synced(db)
        tcols = self.tables.get(table)
        if tcols is None:
            return 0
        total = 0
        for chunk in tcols.chunks:
            count = chunk.visible_count_at(height)
            if count is None:
                count = sum(stop - start for start, stop in
                            chunk.visible_spans(height, counted=False))
            total += count
        return total

    def distinct_count(self, db, table: str, columns: Tuple[str, ...],
                       height: int, key_of) -> int:
        """Number of distinct non-NULL ``columns`` tuples over the rows
        visible at ``height``; ``key_of(values tuple)`` normalizes each
        tuple so values ``=`` calls equal count once."""
        self.ensure_synced(db)
        tcols = self.tables.get(table)
        if tcols is None:
            return 0
        seen = set()
        for chunk in tcols.chunks:
            vectors = [chunk.data.get(col) for col in columns]
            if any(vector is None for vector in vectors):
                continue  # chunk predates the column (re-created table)
            if len(vectors) == 1 and type(vectors[0]) is DictVector \
                    and chunk.fully_visible_at(height):
                # NDV from the dictionary for free: every dictionary
                # entry appears in the chunk, and every row is visible,
                # so the distinct values ARE the dictionary.
                for value in vectors[0].dictionary:
                    seen.add(key_of((value,)))
                continue
            for offset in span_offsets(
                    chunk.visible_spans(height, counted=False)):
                values = tuple(vector[offset] for vector in vectors)
                if any(v is None for v in values):
                    continue
                seen.add(key_of(values))
        return len(seen)

    # -- provenance helpers (the audit path rides the replica) ------------

    def _check_audit_target(self, db, table: str,
                            key_column: Optional[str] = None) -> None:
        """Audit inputs must name real catalog objects — a typo'd table
        or column must raise (as the provenance SQL path did), never
        read as 'no history'."""
        schema = db.catalog.schema_of(table)   # raises CatalogError
        if key_column is not None and not schema.has_column(key_column):
            raise CatalogError(
                f"table {table!r} has no column {key_column!r}")

    def history(self, db, table: str, key_column: str,
                key_value: Any) -> List[Dict[str, Any]]:
        """Every committed version of the logical rows matching
        ``key_column = key_value``, in creation order, with the MVCC
        header merged in — the columnar rewrite of the row-store
        provenance ``version_chain`` query."""
        self._check_audit_target(db, table, key_column)
        out: List[Tuple[Tuple, Dict[str, Any]]] = []
        for chunk, spans in self.scan(db, table):
            vector = chunk.data.get(key_column)
            if vector is None:
                continue  # chunk predates the column (re-created table)
            for offset in span_offsets(spans):
                value = vector[offset]
                if value is None or _zone_cmp(value, key_value) != 0:
                    continue
                order = (chunk.creators[offset], chunk.row_ids[offset],
                         chunk.version_ids[offset])
                out.append((order, chunk.row_with_header(offset)))
        out.sort(key=lambda pair: pair[0])
        return [row for _, row in out]

    def diff(self, db, table: str, low_height: int,
             high_height: int) -> Dict[str, List[Dict[str, Any]]]:
        """Rows created and rows deleted in ``(low_height, high_height]``
        — a block-window audit that previously required scanning every
        version through the provenance SQL path."""
        self._check_audit_target(db, table)
        created: List[Tuple[Tuple, Dict[str, Any]]] = []
        deleted: List[Tuple[Tuple, Dict[str, Any]]] = []
        for chunk, spans in self.scan(db, table):
            for offset in span_offsets(spans):
                creator = chunk.creators[offset]
                deleter = chunk.deleters[offset]
                order = (creator, chunk.row_ids[offset],
                         chunk.version_ids[offset])
                if low_height < creator <= high_height:
                    created.append((order, chunk.row_with_header(offset)))
                if deleter is not None and \
                        low_height < deleter <= high_height:
                    deleted.append(((deleter,) + order[1:],
                                    chunk.row_with_header(offset)))
        created.sort(key=lambda pair: pair[0])
        deleted.sort(key=lambda pair: pair[0])
        return {"created": [row for _, row in created],
                "deleted": [row for _, row in deleted]}

    # -- observability -----------------------------------------------------

    def memory_stats(self) -> Dict[str, Any]:
        """Memory accounting: total vector bytes, stored row versions,
        and bytes per row — the figure the analytics bench gates its
        >=3x reduction on."""
        seen: Set[int] = set()
        total = rows = 0
        for tcols in self.tables.values():
            for chunk in tcols.chunks:
                total += chunk.memory_bytes(seen)
                rows += len(chunk)
        return {
            "bytes": total,
            "rows": rows,
            "bytes_per_row": round(total / rows, 2) if rows else 0.0,
        }
