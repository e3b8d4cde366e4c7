"""Columnar plan operators for `AS OF` time-travel queries.

Two operators plug into the Volcano tree (:mod:`repro.sql.plan`):

* :class:`ColumnarScan` — a drop-in scan node (it subclasses ``SeqScan``
  so joins, filters and DML-free pipelines compose unchanged) that reads
  the :class:`~repro.analytics.columnstore.ColumnStore` instead of the
  heap.  Rows visible at the statement's pinned height are materialized
  from column vectors and content-sorted exactly like a heap scan, so a
  columnar plan is byte-compatible with the row-store plan above the
  scan.  Because the scanned state is immutable (at or below the node's
  committed height), the scan records **no** SIREAD state and runs no
  phantom/stale window checks.

* :class:`ColumnarAggregate` — the vectorized fast path for eligible
  single-table aggregates (``sum``/``avg``/``min``/``max``/``count``
  over plain columns, optional ``GROUP BY`` plain columns, a WHERE of
  sargable conjuncts — the scan's own ``sql.plan.Sarg`` list).  It never
  looks at a row: each chunk goes through three stages that make one
  C-level pass per column (docs/analytics.md, "Aggregate kernels") —
  visibility as ``(start, stop)`` spans cut into dense vectors, one
  selection pass per sarg (flag tables over dictionary codes, native
  comparisons or two bisects over typed arrays, the engine's comparison
  kernel per value for what is genuinely untyped), then a partition by
  group key and a fold per column — the kernels of
  :mod:`repro.sql.aggregate`, which ``HashAggregate`` folds with too.
  ``sum``/``avg`` end in the order-independent
  :func:`~repro.sql.aggregate.fold_sum` (float inputs are
  ``math.fsum``-ed — exactly rounded) and ``min`` / ``max`` in the
  engine's total order, so results are bit-identical to the row-store
  path regardless of which store served the read or how ingest order
  differs across nodes.  The equivalence suites pin this,
  and ``tests/analytics/test_aggregate_kernels.py`` holds the kernels
  to the per-offset loop they replaced.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.analytics.encoding import DictVector, Span, span_offsets
from repro.errors import ExecutionError
from repro.sql.aggregate import (
    EMPTY, FOLD_BUFFER, FOLD_COUNT, FOLD_MAX, FOLD_MIN, extend_buffer,
    extreme, finish_fold, fold, fold_mode, group_ids, new_fold_state,
    non_null, split_groups,
)
from repro.sql.ast_nodes import SelectItem
from repro.sql.expressions import _compare, _like_to_regex
from repro.sql.plan import (
    PlanNode, Runtime, Sarg, SeqScan, _order_note, _scan_target, expr_sql,
    row_content_key,
)

__all__ = ["ColumnarAggregate", "ColumnarScan"]


class ColumnarScan(SeqScan):
    """Height-filtered scan over the columnar replica.

    Template-safe like every scan node: it stores the WHERE clause's
    sargs and derives their bounds per execution (the bounds only drive
    zone-map chunk pruning here — the Filter operator above applies the
    full predicate, so pruning can only skip chunks that provably hold
    no matching row)."""

    def pinned_height(self, rt: Runtime) -> int:
        """The statement's AS OF height, with the scan's access check."""
        rt.check_read(self.table)
        height = rt.ctx.as_of_height
        if height is None:
            raise ExecutionError(
                "ColumnarScan outside an AS OF execution")
        return height

    def chunk_selections(self, rt: Runtime,
                         extra_bounds: Optional[Dict[str, Dict[str, Any]]]
                         = None):
        """Yield ``(chunk, visible spans)`` pairs at the statement's
        pinned height, after zone-map and height pruning.
        ``extra_bounds`` (e.g. a LIKE-prefix range) adds prune-only
        bounds for columns the scan's sargs did not bound."""
        height = self.pinned_height(rt)
        bounds = self.bounds(rt)
        if extra_bounds:
            bounds = dict(bounds)
            for col, slot in extra_bounds.items():
                bounds.setdefault(col, slot)
        yield from rt.db.columnstore.scan(rt.db, self.table, height,
                                          bounds)

    def scan_rows(self, rt: Runtime) -> List[Dict[str, Any]]:
        columns = rt.db.catalog.schema_of(self.table).column_names()
        rows: List[Dict[str, Any]] = []
        for chunk, spans in self.chunk_selections(rt):
            data = chunk.data
            for offset in span_offsets(spans):
                rows.append({col: data[col][offset] for col in columns})
        # Same content order as the heap scan: results must not depend
        # on which replica (or which store) served the read.
        if self.ordered or rt.content_order:
            rows.sort(key=row_content_key)
        return rows

    def recost(self, db) -> None:
        rows = float(max(db.stats.table_stats(self.table).row_count, 0))
        self.est_rows = rows
        # Vectorized column reads: one pass, no heap resolution.
        self.est_cost = rows

    def describe(self) -> str:
        return (f"ColumnarScan {_scan_target(self.table, self.alias)}"
                f"{_order_note(self.ordered)}")


def _like_prefix(pattern: str) -> str:
    """Literal prefix of a LIKE pattern (up to the first wildcard)."""
    out = []
    for ch in pattern:
        if ch in ("%", "_"):
            break
        out.append(ch)
    return "".join(out)


_KIND_ORDER = {"cmp": 0, "between": 1, "in": 2, "like": 3}

_NATIVE = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
           ">": operator.gt, ">=": operator.ge}


class _Predicate:
    """One sarg with this execution's constants, and the three forms a
    column can be tested in: ``test`` is the engine's per-value
    semantics (NULL passes nothing) — what dictionary entries and plain
    lists are put through; ``native_mask`` and ``sorted_bounds`` serve
    NaN-free typed arrays when ``numeric`` says every constant is an
    exact int / float, where Python's comparisons *are*
    ``compare_values``."""

    __slots__ = ("column", "kind", "op", "consts", "numeric", "test",
                 "last_read")

    def __init__(self, sarg: Sarg, consts: List[Any], last_read: bool):
        self.column = sarg.column
        # Nothing applied after this predicate reads its column, so the
        # column need not be narrowed any further.
        self.last_read = last_read
        self.kind = kind = sarg.kind
        self.op = op = sarg.op
        self.consts = consts
        self.numeric = kind != "like" and all(
            type(c) in (int, float) and c == c for c in consts)
        if kind == "cmp":
            const, = consts
            self.test = lambda v: _compare(op, v, const) is True
        elif kind == "between":
            low, high = consts
            self.test = lambda v: _compare(">=", v, low) is True \
                and _compare("<=", v, high) is True
        elif kind == "in":
            self.test = lambda v: v is not None and any(
                _compare("=", v, item) is True for item in consts)
        else:
            regex, = consts
            negated = sarg.negated
            self.test = lambda v: v is not None \
                and bool(regex.match(str(v))) != negated

    def native_mask(self, vector: array) -> List[bool]:
        """One flag per value of a NaN-free typed ``vector``."""
        consts = self.consts
        if self.kind == "cmp":
            return list(map(_NATIVE[self.op], vector, repeat(consts[0])))
        if self.kind == "between":
            low, high = consts
            return [low <= v <= high for v in vector]
        return list(map(set(consts).__contains__, vector))

    def sorted_bounds(self, vector: array) -> Optional[Span]:
        """The one run of a non-decreasing, NaN-free typed ``vector``
        that passes, as ``(start, stop)``; None for an IN-list, which
        need not be one run."""
        consts = self.consts
        if self.kind == "between":
            return (bisect_left(vector, consts[0]),
                    bisect_right(vector, consts[1]))
        if self.kind != "cmp":
            return None
        op, const = self.op, consts[0]
        start, stop = 0, len(vector)
        if op in ("=", ">="):
            start = bisect_left(vector, const)
        elif op == ">":
            start = bisect_right(vector, const)
        if op in ("=", "<="):
            stop = bisect_right(vector, const)
        elif op == "<":
            stop = bisect_left(vector, const)
        return start, stop


def _ordered(chunk, column: str) -> bool:
    """True when Python's ``<`` / ``min`` / ``max`` are the engine's on
    this column of ``chunk``: it is stored as a typed array — exact
    ints, or floats whose zone map shows no NaN."""
    if type(chunk.data[column]) is not array:
        return False
    hi = chunk.zones[column][1]
    return hi == hi


def _take(vector, spans: List[Span]):
    """``vector`` over ``spans`` as one dense vector of the kind the
    chunk stores (``array`` or ``list``; a dictionary column gives its
    codes).  A span covering the chunk returns the stored vector itself
    — callers never write to what they are given."""
    if type(vector) is DictVector:
        vector = vector.codes
    if len(spans) == 1:
        start, stop = spans[0]
        return vector if stop - start == len(vector) \
            else vector[start:stop]
    out = vector[:0]
    for start, stop in spans:
        out += vector[start:stop]
    return out


def _narrow(cols: Dict[str, Any], mask: List[bool]):
    """``(rows kept, cols)`` with every vector cut down to the rows
    ``mask`` flags.  What comes out is a list — building an ``array``
    from an iterator costs more than it saves on the chunk sizes seen;
    whether a column is *typed* is read off the chunk, not off these."""
    count = mask.count(True)
    if count == len(mask) or not count:
        return count, cols
    return count, {name: list(compress(vector, mask))
                   for name, vector in cols.items()}


def _decoded(stored, dense):
    """The values of a dense vector: a dictionary column's codes back
    to strings (code -1 is NULL)."""
    if type(stored) is not DictVector:
        return dense
    return list(map((stored.dictionary + [None]).__getitem__, dense))


@dataclass
class AggSpec:
    """One aggregate call: ``count(*)`` or ``fn(plain column)``."""

    fingerprint: str
    name: str
    column: Optional[str]          # None for count(*)
    star: bool = False


class ColumnarAggregate(PlanNode):
    """Vectorized single-table aggregation over the columnar replica.

    Emits ``(order_keys, output_row)`` pairs like ``HashAggregate`` so
    Sort/Distinct/Limit compose on top.  The planner only routes here
    when the statement shape is fully covered (see
    ``Planner._try_columnar_aggregate``); everything else takes the
    generic ``ColumnarScan`` + Filter + HashAggregate pipeline."""

    def __init__(self, scan: ColumnarScan,
                 group_columns: List[str], agg_specs: List[AggSpec],
                 output_specs: List[Tuple[str, int]],
                 order_specs: List[Tuple[str, int]],
                 items: List[SelectItem], est_rows: float = 0.0):
        self.scan = scan
        # One sarg (sql.plan.Sarg) per WHERE conjunct, every value
        # constant — the planner routes here only then; the same
        # objects bound the scan's zone-map pruning.
        self.predicates = scan.sargs
        self.group_columns = list(group_columns)
        self.agg_specs = agg_specs
        self.output_specs = output_specs   # ("group"|"agg", index)
        self.order_specs = order_specs
        self.items = items                 # for EXPLAIN only
        self.est_rows = est_rows
        # The columns an execution reads, aggregate arguments last.
        self._arg_columns = list(dict.fromkeys(
            spec.column for spec in agg_specs if spec.column is not None))
        self._columns = list(dict.fromkeys(
            [sarg.column for sarg in scan.sargs] + self.group_columns
            + self._arg_columns))
        self._fold_columns = [spec.column for spec in agg_specs]

    # ------------------------------------------------------------------

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        predicates, extra_bounds = self._resolve_predicates(rt.ctx)
        specs = self.agg_specs
        modes = [FOLD_COUNT if spec.star else fold_mode(spec.name)
                 for spec in specs]

        def new_states() -> List[Any]:
            return [new_fold_state(mode) for mode in modes]

        if predicates is None:              # a conjunct no row can pass
            yield from self._finalize_groups(
                [] if self.group_columns else [((), new_states())],
                specs, modes)
            return
        if not predicates and not self.group_columns:
            # Unfiltered global aggregates: answer whole chunks from
            # zone maps and counters where provable (no row touch).
            yield from self._zone_fast_path(rt, specs, modes,
                                            new_states())
            return

        store = rt.db.columnstore
        # bucket key -> (the group's key values, its fold states)
        groups: Dict[Tuple, Tuple[Tuple, List[Any]]] = {}
        for chunk, spans in self.scan.chunk_selections(
                rt, extra_bounds or None):
            selected = self._select(chunk, spans, predicates, store)
            if selected is None:
                continue
            for bucket, key, count, values in self._partition(
                    chunk, *selected, store):
                group = groups.get(bucket)
                if group is None:
                    group = groups[bucket] = (key, new_states())
                self._fold(chunk, modes, group[1], count, values)

        if not groups and not self.group_columns:
            groups[()] = ((), new_states())  # global aggregate, no input
        yield from self._finalize_groups(groups.values(), specs, modes)

    def _resolve_predicates(self, ctx):
        """This execution's ``(predicates, prune-only bounds)``: each
        sarg with its constants evaluated once, in the order the kinds
        are applied (``cmp``, ``between``, ``in``, ``like``).
        ``predicates`` is None when some conjunct can pass no row."""
        resolved: List[Tuple[Sarg, List[Any]]] = []
        extra_bounds: Dict[str, Dict[str, Any]] = {}
        for sarg in self.predicates:
            consts = sarg.evaluate(ctx)
            if sarg.kind == "like":
                if consts[0] is None:
                    return None, {}     # x [NOT] LIKE NULL is never true
                text = str(consts[0])
                consts = [_like_to_regex(text)]
                prefix = "" if sarg.negated else _like_prefix(text)
                if prefix:
                    slot: Dict[str, Any] = {"low": (prefix, True)}
                    last = prefix[-1]
                    if ord(last) < 0x10FFFF:
                        slot["high"] = (
                            prefix[:-1] + chr(ord(last) + 1), False)
                    extra_bounds.setdefault(sarg.column, slot)
            resolved.append((sarg, consts))
        resolved.sort(key=lambda pair: _KIND_ORDER[pair[0].kind])
        predicates: List[_Predicate] = []
        read_later = set(self.group_columns + self._arg_columns)
        for sarg, consts in reversed(resolved):
            predicates.append(_Predicate(
                sarg, consts, last_read=sarg.column not in read_later))
            read_later.add(sarg.column)
        predicates.reverse()
        return predicates, extra_bounds

    # ------------------------------------------------------------------
    # Stages 1 and 2 — visible spans to dense vectors, then selection:
    # each predicate narrows every column once
    # ------------------------------------------------------------------

    def _dense(self, chunk, spans: List[Span]):
        """``(row count, {column: dense vector})``: the columns this
        aggregate reads, cut to ``chunk``'s rows within ``spans``, in
        offset order and in the form the chunk stores them."""
        data = chunk.data
        count = 0
        for start, stop in spans:
            count += stop - start
        return count, {name: _take(data[name], spans)
                       for name in self._columns}

    def _select(self, chunk, spans: List[Span], predicates, store):
        """:meth:`_dense` narrowed to the rows that pass every
        predicate (possibly none), or None when a dictionary proves
        that no row of the chunk can.

        Predicates on dictionary columns go first, as one test per
        distinct value and a flag-table lookup per row; a flag table
        with no True skips the chunk before any vector is read."""
        data = chunk.data
        coded: List[Tuple[_Predicate, List[bool]]] = []
        plain: List[_Predicate] = []
        for pred in predicates:
            vector = data[pred.column]
            if type(vector) is not DictVector:
                plain.append(pred)
                continue
            store._dict_hits.inc()
            flags = list(map(pred.test, vector.dictionary))
            if True not in flags:
                return None
            # The slot that code -1 (NULL) indexes: NULL passes nothing.
            flags.append(False)
            coded.append((pred, flags))
        if self._by_code(data):
            store._dict_hits.inc()      # the group key's translation

        count, cols = self._dense(chunk, spans)
        for pred, flags in coded:
            if not count:
                break
            mask = list(map(flags.__getitem__, cols[pred.column]))
            if pred.last_read:
                del cols[pred.column]
            count, cols = _narrow(cols, mask)
        for pred in plain:
            if not count:
                break
            vector = cols[pred.column]
            if pred.last_read:
                del cols[pred.column]
            bounds = mask = None
            if pred.numeric and _ordered(chunk, pred.column):
                if pred.column in chunk.ascending:
                    bounds = pred.sorted_bounds(vector)
                if bounds is None:
                    mask = pred.native_mask(vector)
            else:
                mask = list(map(pred.test, vector))
            if bounds is None:
                count, cols = _narrow(cols, mask)
            else:
                start, stop = bounds
                count = max(stop - start, 0)
                cols = {name: vector[start:stop]
                        for name, vector in cols.items()}
        return count, cols

    # ------------------------------------------------------------------
    # Stage 3 — partition by group key, then fold a column at a time
    # ------------------------------------------------------------------

    def _by_code(self, data) -> bool:
        """GROUP BY one dictionary column: its codes are the groups."""
        group_cols = self.group_columns
        return len(group_cols) == 1 and \
            type(data[group_cols[0]]) is DictVector

    def _partition(self, chunk, count: int, cols, store):
        """The selected rows split by group: a list of ``(bucket key,
        group key values, row count, {aggregated column: its non-NULL
        values})``, made in one pass per aggregated column."""
        if not count:
            return ()
        data = chunk.data
        group_cols = self.group_columns
        by_code = self._by_code(data)
        names = self._arg_columns
        values_of = {}
        folded = store._rows_folded_typed
        for name in names:
            stored = data[name]
            if type(stored) is not array:
                folded = store._rows_folded_generic
            values_of[name] = _decoded(stored, cols[name])
        folded.inc(count)

        if not group_cols:
            return [((), (), count, {
                name: non_null(data[name], values)
                for name, values in values_of.items()})]

        # Every group gets a small integer: its dictionary code, or its
        # rank of first appearance among the rows.
        if by_code:
            ids = cols[group_cols[0]]
            key_of: Any = [(value,)
                           for value in data[group_cols[0]].dictionary]
            key_of.append((None,))      # code -1 counts from the end
            bucket_of = key_of          # strings and NULL: no NaN
            members = range(-1, len(key_of) - 1)
        else:
            raw = list(zip(*[_decoded(data[name], cols[name])
                             for name in group_cols]))
            ids, bucket_of, firsts = group_ids(raw)
            key_of = {i: raw[first] for i, first in firsts.items()}
            members = range(len(bucket_of))

        counts, parts = split_groups(ids, len(bucket_of), values_of, data)
        return [(bucket_of[i], key_of[i], counts[i],
                 {name: parts[name][i] for name in names})
                for i in members if counts[i]]

    def _fold(self, chunk, modes, states, count: int, values_of) -> None:
        fold(states, modes, self._fold_columns, count, values_of,
             chunk.data, lambda column: _ordered(chunk, column))

    def _finalize_groups(self, groups, specs, modes
                         ) -> Iterator[Tuple[Tuple, Tuple]]:
        for key, states in groups:
            finalized = [finish_fold(spec.name, mode, state)
                         for spec, mode, state in zip(specs, modes, states)]

            def value_of(spec: Tuple[str, int]) -> Any:
                kind, index = spec
                return key[index] if kind == "group" else finalized[index]

            output = tuple(value_of(spec) for spec in self.output_specs)
            order_keys = tuple(value_of(spec) for spec in self.order_specs)
            yield (order_keys, output)

    # ------------------------------------------------------------------
    # Zone-map fast path (unfiltered global aggregates)
    # ------------------------------------------------------------------

    def _zone_fast_path(self, rt: Runtime, specs, modes, states
                        ) -> Iterator[Tuple[Tuple, Tuple]]:
        """Unfiltered global aggregates fold chunk *metadata* instead of
        rows wherever the counters prove every row of the chunk visible:
        ``count(*)`` from the chunk length, ``count(col)`` from the
        sealed NULL counts, ``min``/``max`` from the zone maps.  Only
        ``sum``/``avg`` still read the column vector (the shared
        order-independent ``fold_sum`` needs the values), and chunks the
        counters cannot prove go through the fold stage over their
        visible spans."""
        height = self.scan.pinned_height(rt)
        store = rt.db.columnstore
        for chunk in store.chunks_at(rt.db, self.scan.table, height):
            if self._zone_accumulate(chunk, height, specs, modes, states,
                                     store):
                store._zone_only_chunks.inc()
                continue
            store._chunks_scanned.inc()
            for _, _, count, values in self._partition(
                    chunk, *self._dense(chunk, chunk.visible_spans(height)),
                    store):
                self._fold(chunk, modes, states, count, values)
        yield from self._finalize_groups([((), states)], specs, modes)

    def _zone_accumulate(self, chunk, height: int, specs, modes,
                         states, store) -> bool:
        """Fold ``chunk`` into ``states`` from metadata alone; False when
        the chunk needs a row scan (not sealed, not provably fully
        visible, or a min/max column lacks a zone map)."""
        if not chunk.sealed or not chunk.fully_visible_at(height):
            return False
        n = len(chunk)
        for spec, mode in zip(specs, modes):
            if mode in (FOLD_MIN, FOLD_MAX):
                if chunk.zones.get(spec.column) is None and \
                        chunk.null_counts.get(spec.column) != n:
                    return False  # mixed-type column without a zone map
        folded = store._rows_folded_typed if FOLD_BUFFER in modes else None
        for j, (spec, mode) in enumerate(zip(specs, modes)):
            if mode == FOLD_COUNT:
                states[j] += n if spec.star \
                    else n - chunk.null_counts[spec.column]
            elif mode == FOLD_BUFFER:
                # The one aggregate that reads the rows: all of them.
                vector = chunk.data[spec.column]
                if type(vector) is not array:
                    folded = store._rows_folded_generic
                states[j] = extend_buffer(states[j], vector,
                                          non_null(vector, vector))
            else:
                zone = chunk.zones.get(spec.column)
                if zone is not None:    # else all NULL: nothing to fold
                    best = zone[mode == FOLD_MAX]
                    states[j] = best if states[j] is EMPTY \
                        else extreme(mode, (states[j], best))
        if folded is not None:
            folded.inc(n)
        return True

    # ------------------------------------------------------------------

    def children(self):
        return [self.scan]

    def recost(self, db) -> None:
        self.est_rows = self.scan.est_rows if self.group_columns else 1.0
        self.est_cost = self.scan.est_cost + self.scan.est_rows

    def describe(self) -> str:
        rendered = ", ".join(expr_sql(item.expr) for item in self.items)
        if self.group_columns:
            return (f"ColumnarAggregate (group by "
                    f"{', '.join(self.group_columns)}: {rendered})")
        return f"ColumnarAggregate ({rendered})"
