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
  sargable conjuncts — the scan's own ``sql.plan.Sarg`` list).  It never builds per-row dict environments: the
  WHERE conjuncts evaluate straight off the column vectors with the
  engine's comparison kernel; counts and min/max fold incrementally,
  and ``sum``/``avg`` use the engine-shared, order-independent
  :func:`~repro.sql.plan.fold_sum` (float inputs are ``math.fsum``-ed —
  exactly rounded), so results are bit-identical to the row-store path
  regardless of which store served the read or how ingest order differs
  across nodes.  The equivalence suite pins this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.analytics.encoding import DictVector
from repro.errors import ExecutionError
from repro.sql.ast_nodes import SelectItem
from repro.sql.expressions import (
    _compare,
    _like_to_regex,
    compare_values,
)
from repro.sql.plan import (
    EMPTY,
    FOLD_BUFFER,
    FOLD_COUNT,
    FOLD_MAX,
    FOLD_MIN,
    PlanNode,
    Runtime,
    ScanRow,
    SeqScan,
    _order_note,
    _scan_target,
    bucket_key,
    expr_sql,
    finish_fold,
    fold_mode,
    new_fold_state,
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
        """Yield ``(chunk, visible offsets)`` pairs at the statement's
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

    def scan_rows(self, rt: Runtime) -> List[ScanRow]:
        columns = rt.db.catalog.schema_of(self.table).column_names()
        rows: List[ScanRow] = []
        for chunk, offsets in self.chunk_selections(rt):
            data = chunk.data
            for offset in offsets:
                rows.append(ScanRow(
                    values={col: data[col][offset] for col in columns},
                    version=None))
        # Same content order as the heap scan: results must not depend
        # on which replica (or which store) served the read.
        if self.ordered or rt.content_order:
            rows.sort(key=lambda r: row_content_key(r.values))
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

    # ------------------------------------------------------------------

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        ctx = rt.ctx
        # Resolve predicate constants once per execution.
        cmp_preds: List[Tuple[str, str, Any]] = []
        between_preds: List[Tuple[str, Any, Any]] = []
        in_preds: List[Tuple[str, List[Any]]] = []
        like_preds: List[Tuple[str, Any, bool]] = []
        impossible = False
        extra_bounds: Dict[str, Dict[str, Any]] = {}
        for pred in self.predicates:
            values = pred.evaluate(ctx)
            if pred.kind == "cmp":
                cmp_preds.append((pred.column, pred.op, values[0]))
            elif pred.kind == "between":
                between_preds.append((pred.column, values[0], values[1]))
            elif pred.kind == "in":
                in_preds.append((pred.column, values))
            else:
                value = values[0]
                if value is None:
                    impossible = True   # x [NOT] LIKE NULL is never true
                    continue
                text = str(value)
                like_preds.append((pred.column, _like_to_regex(text),
                                   pred.negated))
                if not pred.negated:
                    prefix = _like_prefix(text)
                    if prefix:
                        slot: Dict[str, Any] = {"low": (prefix, True)}
                        last = prefix[-1]
                        if ord(last) < 0x10FFFF:
                            slot["high"] = (
                                prefix[:-1] + chr(ord(last) + 1), False)
                        extra_bounds.setdefault(pred.column, slot)

        group_cols = self.group_columns
        specs = self.agg_specs
        modes = [FOLD_COUNT if spec.star else fold_mode(spec.name)
                 for spec in specs]
        groups: List[Tuple[Tuple, List[Any]]] = []
        group_index: Dict[Tuple, int] = {}

        def new_states() -> List[Any]:
            return [new_fold_state(mode) for mode in modes]

        if impossible:
            if not group_cols:
                groups = [((), new_states())]
            yield from self._finalize_groups(groups, specs, modes)
            return

        if not self.predicates and not group_cols:
            # Unfiltered global aggregates: answer whole chunks from
            # zone maps and counters where provable (no row touch).
            yield from self._zone_fast_path(rt, specs, modes,
                                            new_states)
            return

        store = rt.db.columnstore
        dict_hits = store._dict_hits
        single_group = group_cols[0] if len(group_cols) == 1 else None

        for chunk, offsets in self.scan.chunk_selections(
                rt, extra_bounds or None):
            data = chunk.data
            compiled = self._compile_chunk_predicates(
                data, dict_hits, cmp_preds, between_preds, in_preds,
                like_preds)
            if compiled is None:
                continue   # a flag table is all-False: no row matches
            (code_checks, cmp_vectors, between_vectors, in_vectors,
             like_vectors) = compiled
            group_vectors = [data[col] for col in group_cols]
            agg_vectors = [None if spec.column is None else data[spec.column]
                           for spec in specs]
            # GROUP BY a dictionary column: aggregate per code, then
            # materialize each key string exactly once per chunk.
            group_dict = None
            group_codes = None
            code_states: Dict[int, List[Any]] = {}
            if single_group is not None and \
                    type(data[single_group]) is DictVector:
                group_dict = data[single_group]
                group_codes = group_dict.codes
                dict_hits.inc()
            for offset in offsets:
                keep = True
                for codes, flags in code_checks:
                    if not flags[codes[offset]]:
                        keep = False
                        break
                if keep:
                    for vector, op, const in cmp_vectors:
                        if _compare(op, vector[offset], const) is not True:
                            keep = False
                            break
                if keep:
                    for vector, low, high in between_vectors:
                        value = vector[offset]
                        if _compare(">=", value, low) is not True or \
                                _compare("<=", value, high) is not True:
                            keep = False
                            break
                if keep:
                    for vector, values in in_vectors:
                        value = vector[offset]
                        if value is None or not any(
                                _compare("=", value, item) is True
                                for item in values):
                            keep = False
                            break
                if keep:
                    for vector, regex, negated in like_vectors:
                        value = vector[offset]
                        if value is None:
                            keep = False
                            break
                        matched = bool(regex.match(str(value)))
                        if matched if negated else not matched:
                            keep = False
                            break
                if not keep:
                    continue
                if group_dict is not None:
                    code = group_codes[offset]
                    states = code_states.get(code)
                    if states is None:
                        states = new_states()
                        code_states[code] = states
                elif not group_vectors:
                    if not groups:
                        groups.append(((), new_states()))
                    states = groups[0][1]
                else:
                    key = tuple(vector[offset] for vector in group_vectors)
                    fingerprint = bucket_key(key)
                    pos = group_index.get(fingerprint)
                    if pos is None:
                        group_index[fingerprint] = len(groups)
                        groups.append((key, new_states()))
                        pos = len(groups) - 1
                    states = groups[pos][1]
                for j, mode in enumerate(modes):
                    vector = agg_vectors[j]
                    if vector is None:           # count(*)
                        states[j] += 1
                        continue
                    value = vector[offset]
                    if value is None:
                        continue
                    if mode == FOLD_COUNT:
                        states[j] += 1
                    elif mode == FOLD_BUFFER:
                        states[j].append(value)
                    elif mode == FOLD_MIN:
                        current = states[j]
                        if current is EMPTY or \
                                compare_values(value, current) < 0:
                            states[j] = value
                    else:
                        current = states[j]
                        if current is EMPTY or \
                                compare_values(value, current) > 0:
                            states[j] = value
            if group_dict is not None:
                # Fold the chunk's per-code partials into the global
                # groups (sorted code order for determinism; emission
                # order is settled by the ORDER BY the router requires,
                # so fold order never shows in results).
                dictionary = group_dict.dictionary
                for code in sorted(code_states):
                    key = (dictionary[code],) if code >= 0 else (None,)
                    fingerprint = bucket_key(key)
                    pos = group_index.get(fingerprint)
                    if pos is None:
                        group_index[fingerprint] = len(groups)
                        groups.append((key, code_states[code]))
                    else:
                        self._merge_states(modes, groups[pos][1],
                                           code_states[code])

        if not groups and not group_cols:
            groups = [((), new_states())]  # global aggregate, empty input

        yield from self._finalize_groups(groups, specs, modes)

    # ------------------------------------------------------------------
    # Encoded execution: per-code predicate flag tables
    # ------------------------------------------------------------------

    @staticmethod
    def _code_flags(dictionary: List[str],
                    test: Callable[[Any], bool]) -> Optional[List[bool]]:
        """Per-code flag table for a dictionary-encoded column: one
        predicate evaluation per distinct value instead of per row.  The
        appended ``False`` slot is what code ``-1`` (NULL) indexes via
        Python's negative indexing — NULL never passes a sargable
        predicate, matching the row paths' three-valued logic.  Returns
        None when no code passes (the whole chunk is filtered out)."""
        flags = [test(value) for value in dictionary]
        if True not in flags:
            return None
        flags.append(False)
        return flags

    def _compile_chunk_predicates(self, data, dict_hits, cmp_preds,
                                  between_preds, in_preds, like_preds):
        """Partition the resolved predicates for one chunk: predicates on
        dictionary-encoded columns translate to ``(codes, flag table)``
        checks (constant-time per row), everything else keeps the per-row
        vector compare.  Returns None when a flag table proves the chunk
        empty."""
        code_checks: List[Tuple[Any, List[bool]]] = []
        cmp_vectors: List[Tuple[Any, str, Any]] = []
        between_vectors: List[Tuple[Any, Any, Any]] = []
        in_vectors: List[Tuple[Any, List[Any]]] = []
        like_vectors: List[Tuple[Any, Any, bool]] = []
        for col, op, const in cmp_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: _compare(op, v, const) is True)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                cmp_vectors.append((vector, op, const))
        for col, low, high in between_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: _compare(">=", v, low) is True
                    and _compare("<=", v, high) is True)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                between_vectors.append((vector, low, high))
        for col, values in in_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: any(_compare("=", v, item) is True
                                  for item in values))
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                in_vectors.append((vector, values))
        for col, regex, negated in like_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: bool(regex.match(str(v))) != negated)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                like_vectors.append((vector, regex, negated))
        return (code_checks, cmp_vectors, between_vectors, in_vectors,
                like_vectors)

    @staticmethod
    def _merge_states(modes, target, source) -> None:
        """Fold one group's per-chunk partial states into its global
        states.  sum/avg buffers concatenate (``fold_sum`` is
        order-independent), counters add, min/max compare."""
        for j, mode in enumerate(modes):
            if mode == FOLD_COUNT:
                target[j] += source[j]
            elif mode == FOLD_BUFFER:
                target[j].extend(source[j])
            else:
                value = source[j]
                if value is EMPTY:
                    continue
                current = target[j]
                if current is EMPTY:
                    target[j] = value
                elif mode == FOLD_MIN and \
                        compare_values(value, current) < 0:
                    target[j] = value
                elif mode == FOLD_MAX and \
                        compare_values(value, current) > 0:
                    target[j] = value

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

    def _zone_fast_path(self, rt: Runtime, specs, modes, new_states
                        ) -> Iterator[Tuple[Tuple, Tuple]]:
        """Unfiltered global aggregates fold chunk *metadata* instead of
        rows wherever the counters prove every row of the chunk visible:
        ``count(*)`` from the chunk length, ``count(col)`` from the
        sealed NULL counts, ``min``/``max`` from the zone maps.  Only
        ``sum``/``avg`` still read the column vector (the shared
        order-independent ``fold_sum`` needs the values), and chunks the
        counters cannot prove fall back to per-row visibility."""
        height = self.scan.pinned_height(rt)
        store = rt.db.columnstore
        states = new_states()
        for chunk in store.chunks_at(rt.db, self.scan.table, height):
            if self._zone_accumulate(chunk, height, specs, modes, states):
                store._zone_only_chunks.inc()
                continue
            store._chunks_scanned.inc()
            data = chunk.data
            agg_vectors = [None if spec.column is None
                           else data[spec.column] for spec in specs]
            for offset in chunk.visible_offsets(height):
                self._accumulate_row(specs, modes, states, agg_vectors,
                                     offset)
        yield from self._finalize_groups([((), states)], specs, modes)

    def _zone_accumulate(self, chunk, height: int, specs, modes,
                         states) -> bool:
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
        for j, (spec, mode) in enumerate(zip(specs, modes)):
            if mode == FOLD_COUNT:
                states[j] += n if spec.star \
                    else n - chunk.null_counts[spec.column]
            elif mode == FOLD_BUFFER:
                states[j].extend(v for v in chunk.data[spec.column]
                                 if v is not None)
            else:
                zone = chunk.zones.get(spec.column)
                if zone is None:
                    continue   # all-NULL column contributes nothing
                value = zone[0] if mode == FOLD_MIN else zone[1]
                current = states[j]
                if current is EMPTY:
                    states[j] = value
                elif mode == FOLD_MIN and \
                        compare_values(value, current) < 0:
                    states[j] = value
                elif mode == FOLD_MAX and \
                        compare_values(value, current) > 0:
                    states[j] = value
        return True

    @staticmethod
    def _accumulate_row(specs, modes, states, agg_vectors,
                        offset: int) -> None:
        for j, mode in enumerate(modes):
            vector = agg_vectors[j]
            if vector is None:           # count(*)
                states[j] += 1
                continue
            value = vector[offset]
            if value is None:
                continue
            if mode == FOLD_COUNT:
                states[j] += 1
            elif mode == FOLD_BUFFER:
                states[j].append(value)
            elif mode == FOLD_MIN:
                current = states[j]
                if current is EMPTY or \
                        compare_values(value, current) < 0:
                    states[j] = value
            else:
                current = states[j]
                if current is EMPTY or \
                        compare_values(value, current) > 0:
                    states[j] = value

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
