"""rw-antidependency detection.

Section 3.2 (after Adya/Fekete): an rw-dependency runs *from* a reader *to*
a writer — if T1 writes a version of an object and T2 read the previous
version, T2 appears before T1 (edge T2 -> T1, label rw).  Predicate reads
create the same edges: an insert/update/delete whose row images fall inside
a range another transaction scanned is an rw-conflict with that scan.

These edges are derived after execution from the read/write sets recorded
by the executor — the logical equivalent of PostgreSQL's SIREAD locks.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.mvcc.transaction import TransactionContext
from repro.storage.index import normalize_key


class ConflictIndex:
    """The rw-edge test, memoized per block.

    There is an rw-dependency ``reader -> writer`` when the writer wrote
    a row image (new value entering the range, old value leaving it)
    inside one of the reader's predicate-read ranges.  The verdict is a
    pure function of two transactions' frozen read/write sets — state
    filtering (``is_aborted`` / ``is_committed``) happens at decision
    time in the validators, never here.  That purity is what makes the
    cache safe to fill ahead of the commit loop (:meth:`warm_block`) or
    lazily from inside it: a cached edge answer is always identical to
    computing it at decision time.

    Layers of memoization remove the redundant work of asking afresh
    (one ``write_values_by_table`` rebuild per candidate per validation
    — tens of thousands of dict allocations per block):

    * each writer's row images grouped by table,
    * per (writer, predicate columns) *normalized index keys* of those
      images, so a predicate-range probe is pure tuple comparison
      (``PredicateRead.matches_key``), and
    * the final edge verdict per (reader, writer) pair.
    """

    def __init__(self) -> None:
        self._edges: Dict[Tuple[int, int], bool] = {}
        self._images: Dict[int, Dict[str, List[Dict]]] = {}
        self._image_keys: Dict[Tuple[int, str, Tuple[str, ...]],
                               List[Optional[Tuple]]] = {}

    def images(self, tx: TransactionContext) -> Dict[str, List[Dict]]:
        cached = self._images.get(tx.xid)
        if cached is None:
            cached = tx.write_values_by_table()
            self._images[tx.xid] = cached
        return cached

    def _image_keys_for(self, writer: TransactionContext, table: str,
                        columns: Tuple[str, ...],
                        values_list: List[Dict]) -> List[Optional[Tuple]]:
        """Normalized ``columns``-keys of every row image ``writer`` wrote
        to ``table`` (``None`` marks an unindexable image, which
        ``PredicateRead.matches_values`` treats as a conservative
        match)."""
        cache_key = (writer.xid, table, columns)
        keys = self._image_keys.get(cache_key)
        if keys is None:
            keys = []
            for values in values_list:
                try:
                    keys.append(normalize_key(
                        [values.get(c) for c in columns]))
                except Exception:
                    keys.append(None)
            self._image_keys[cache_key] = keys
        return keys

    def _compute_edge(self, reader: TransactionContext,
                      writer: TransactionContext) -> bool:
        if reader.xid == writer.xid or not writer.writes \
                or not reader.predicate_reads:
            return False
        images = self.images(writer)
        for predicate in reader.predicate_reads:
            values_list = images.get(predicate.table)
            if not values_list:
                continue
            if not predicate.columns:
                return True  # full-table predicate matches any write
            for key in self._image_keys_for(
                    writer, predicate.table, predicate.columns,
                    values_list):
                if key is None or predicate.matches_key(key):
                    return True
        return False

    def has_edge(self, reader: TransactionContext,
                 writer: TransactionContext) -> bool:
        """Is there an rw-dependency ``reader -> writer``?"""
        key = (reader.xid, writer.xid)
        cached = self._edges.get(key)
        if cached is None:
            cached = self._compute_edge(reader, writer)
            self._edges[key] = cached
        return cached

    def warm_block(self, members: List[TransactionContext]) -> None:
        """Bulk-derive every ordered in-block edge verdict in near-linear
        time and store it in the edge cache.

        Instead of the O(n²) pairwise :meth:`_compute_edge` sweep, edges
        are *enumerated* from inverted maps: point predicates — equality
        probes, the dominant shape — hash-join against per-(table,
        columns) buckets of normalized image-key prefixes.  Range and
        unindexable shapes fall back to the exact per-writer check,
        restricted to the writers with images in the predicate's table.
        Every branch mirrors :meth:`_compute_edge` exactly, so the cached
        verdicts are identical to lazy computation (property-tested
        against the lazy per-pair verdict, pair by pair).
        """
        true_pairs: Set[Tuple[int, int]] = set()
        writers = [w for w in members if w.writes]
        # A written row image inside a scanned range.
        images_by_table: Dict[str, List[TransactionContext]] = {}
        for w in writers:
            for table, values_list in self.images(w).items():
                if values_list:
                    images_by_table.setdefault(table, []).append(w)
        # (table, columns, prefix_len) -> normalized prefix -> [xids];
        # None collects unindexable images (conservative match-all).
        eq_runs: Dict[Tuple[str, Tuple[str, ...], int],
                      Dict[Optional[Tuple], List[int]]] = {}
        for r in members:
            rxid = r.xid
            for p in r.predicate_reads:
                table_writers = images_by_table.get(p.table)
                if not table_writers:
                    continue
                if not p.columns:
                    # Full-table predicate matches any write to the table.
                    for w in table_writers:
                        if w.xid != rxid:
                            true_pairs.add((rxid, w.xid))
                    continue
                low, high = p.low_key, p.high_key
                if low is not None and low == high and p.low_inclusive \
                        and p.high_inclusive:
                    # Point probe: bucket writers by image-key prefix
                    # once per (table, columns, len) shape, then join.
                    run_key = (p.table, p.columns, len(low))
                    run = eq_runs.get(run_key)
                    if run is None:
                        run = {}
                        for w in table_writers:
                            for ikey in self._image_keys_for(
                                    w, p.table, p.columns,
                                    self.images(w)[p.table]):
                                prefix = None if ikey is None \
                                    else ikey[:run_key[2]]
                                run.setdefault(prefix, []).append(w.xid)
                        eq_runs[run_key] = run
                    for wxid in run.get(low, ()):
                        if wxid != rxid:
                            true_pairs.add((rxid, wxid))
                    for wxid in run.get(None, ()):
                        if wxid != rxid:
                            true_pairs.add((rxid, wxid))
                    continue
                # Range (or open/exclusive) predicate: exact per-writer
                # check, same loop as _compute_edge's inner branch.
                for w in table_writers:
                    if w.xid == rxid or (rxid, w.xid) in true_pairs:
                        continue
                    for ikey in self._image_keys_for(
                            w, p.table, p.columns, self.images(w)[p.table]):
                        if ikey is None or p.matches_key(ikey):
                            true_pairs.add((rxid, w.xid))
                            break
        edges = self._edges
        for r in members:
            rxid = r.xid
            for w in members:
                if rxid != w.xid:
                    pair = (rxid, w.xid)
                    edges[pair] = pair in true_pairs


def has_rw_edge(reader: TransactionContext,
                writer: TransactionContext) -> bool:
    """One un-cached :meth:`ConflictIndex.has_edge` verdict."""
    return ConflictIndex().has_edge(reader, writer)


def _commit_order(tx: TransactionContext) -> Tuple[int, int, int, str]:
    """Sort key every node derives alike from the block stream: ordered
    transactions by (block, position), then the unordered by ``tx_id``."""
    if tx.block_number is None or tx.block_position is None:
        return (1, 0, 0, tx.tx_id)
    return (0, tx.block_number, tx.block_position, tx.tx_id)


def near_conflicts(tx: TransactionContext,
                   candidates: Iterable[TransactionContext],
                   index: Optional[ConflictIndex] = None
                   ) -> List[TransactionContext]:
    """Transactions N with an rw-dependency N -> ``tx`` (``tx``'s
    inConflictList, section 3.2), state filtered at call time.

    In canonical commit order, whatever order ``candidates`` came in:
    ``Database.concurrent_with`` yields node-local begin order, and
    Table 2's victim can depend on which farConflict is met first
    (``BlockAwareSSI.validate``), so the list a decision iterates must
    be a function of the block contents alone.  ``index`` shares one
    block's memoized verdicts; without it each call starts a fresh one."""
    has_edge = (index or ConflictIndex()).has_edge
    return sorted((other for other in candidates
                   if not other.is_aborted and has_edge(other, tx)),
                  key=_commit_order)


def out_conflicts(tx: TransactionContext,
                  candidates: Iterable[TransactionContext],
                  index: Optional[ConflictIndex] = None
                  ) -> List[TransactionContext]:
    """Transactions O with an rw-dependency ``tx`` -> O (``tx``'s
    outConflictList), in canonical commit order like
    :func:`near_conflicts`."""
    has_edge = (index or ConflictIndex()).has_edge
    return sorted((other for other in candidates
                   if not other.is_aborted and has_edge(tx, other)),
                  key=_commit_order)


def build_conflict_graph(transactions: List[TransactionContext]
                         ) -> Dict[int, List[int]]:
    """Full rw-edge adjacency (xid -> [xid]) over ``transactions`` — used
    by tests and the ablation benchmarks to check for cycles."""
    index = ConflictIndex()
    graph: Dict[int, List[int]] = {tx.xid: [] for tx in transactions}
    for reader in transactions:
        for writer in transactions:
            if index.has_edge(reader, writer):
                graph[reader.xid].append(writer.xid)
    return graph


def graph_has_cycle(graph: Dict[int, List[int]]) -> bool:
    """Cycle detection over an adjacency mapping (DFS, iterative)."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    for start in graph:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph[start]))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return False
