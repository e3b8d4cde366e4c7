"""Physical query plan: Volcano-style operators.

The planner (:mod:`repro.sql.planner`) turns a parsed statement into a tree
of these operators; each node's ``rows(rt)`` returns a batch (a list or
:class:`Batch`) or, where rows stream, an iterator — see "The read path"
in docs/sql_engine.md.
Scans materialize their own output and sort it by content wherever row
order can reach a result (physical order differs across nodes); a scan
the planner marked ``ordered = False`` skips that sort — see "Row order:
when it is observable" in docs/sql_engine.md.

This module also owns the one reading of a WHERE clause — how it becomes
an access path, each step written once and read by the planner, the plan
cache, the executor and the columnar operators (docs/sql_engine.md,
"From WHERE to access path"): :func:`sargable` normalizes a conjunct at
plan time (:class:`Sarg`, under the constancy rule of
:func:`is_constant`), :func:`bounds_of` evaluates the normalized list per
execution or per outer row, :func:`index_signature` picks the index,
:func:`scan_cost` prices it, and :func:`scan_reader` is the SSI prologue
of every heap scan:

* **SIREAD recording** — every scan records one :class:`PredicateRead`
  (index range or whole-table): its whole read set;
* **EO missing-index abort** — under ``tx.require_index`` a scan that no
  index can serve raises :class:`MissingIndexError` (paper section 4.3);
* **phantom / stale-window checks** — scans running below the node's
  committed height inspect the window over their *candidate* versions and
  abort on the section 3.4.1 rules.

Join operators therefore never bypass :func:`scan_reader`: a
:class:`NestedLoopJoin` derives index bounds per outer row (recording
narrow per-probe predicate reads through one prologue), while a
:class:`HashJoin` scans its
build side once (recording that scan's — wider but conservative —
predicate read).
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from operator import itemgetter
from dataclasses import dataclass
from decimal import Decimal
from itertools import groupby, islice, repeat
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    ExecutionError,
    MissingIndexError,
    SerializationFailure,
    SQLError,
    TypeMismatchError,
)
from repro.mvcc.transaction import PredicateRead, TransactionContext
from repro.sql import functions
from repro.sql.aggregate import (  # noqa: F401 -- fold_sum re-exported
    FOLD_COUNT, bucket_key, finish_fold, fold, fold_mode, fold_sum,
    group_ids, new_fold_state, non_null, split_groups,
)
from repro.sql.ast_nodes import (
    Between, BinaryOp, CaseExpr, ColumnRef, Expr, FunctionCall, InList,
    IntervalLiteral, IsNull, Join, Like, Literal, OrderItem, Param,
    SelectItem, Star, SubqueryExpr, UnaryOp,
)
from repro.sql.catalog import value_class
from repro.sql.expressions import (
    Binder,
    EvalContext,
    compare_values,
    compile_expr,
    compile_predicate,
    compiled,
    expr_fingerprint,
)
from repro.storage.index import (
    Index,
    exact_key_part,
    key_depth,
    normalize_key,
    normalize_key_part,
)
from repro.storage.row import RowVersion
from repro.storage.snapshot import BlockSnapshot
from repro.storage.visibility import (
    version_committed_in_window,
    version_deleted_in_window,
    visible_versions,
)

PROVENANCE_COLUMNS = ("xmin", "xmax", "creator", "deleter", "row_id")

Env = Dict[str, Dict[str, Any]]


class Batch:
    """Scan and nested-loop output: per alias one list of value dicts,
    row ``k`` being item ``k`` of each.  Iterating builds each row's
    environment ``{alias: values}``; HashAggregate reads the lists."""

    __slots__ = ("columns",)

    def __init__(self, columns: Dict[str, List[Dict[str, Any]]]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __iter__(self) -> Iterator[Env]:
        aliases = list(self.columns)
        return (dict(zip(aliases, row))
                for row in zip(*self.columns.values()))

    def __getitem__(self, k: int) -> Env:
        return {alias: rows[k] for alias, rows in self.columns.items()}


@dataclass
class Runtime:
    """Everything an operator needs at execution time."""

    db: Any                                  # repro.mvcc.database.Database
    tx: TransactionContext
    ctx: EvalContext
    alias_columns: Dict[str, Sequence[str]]  # binder output
    check_read: Callable[[str], None] = lambda table: None
    # {id(scan node): bounds} computed by plan-cache guard validation for
    # this execution; scans fall back to deriving their own bounds.
    scan_bounds: Optional[Dict[int, Dict[str, Dict[str, Any]]]] = None
    # {id(scan node): prepared state} for index-order scans: the SSI
    # side effects (predicate read, window checks) happen once at
    # preparation even when a streaming Limit consumes zero rows.
    prepared_scans: Optional[Dict[int, Any]] = None
    # EXPLAIN ANALYZE only: {id(plan node): OpStats}.  A DynamicProbe
    # never runs its own ``rows`` (NestedLoopJoin drives it per outer
    # row), so the join reports the probe's actuals through this map.
    # Strictly write-only — nothing on the planning or commit path ever
    # reads it back.
    probe_stats: Optional[Dict[int, "OpStats"]] = None
    # Set for the repeat of a failed execution: every scan sorts by
    # content whatever its ``ordered`` mark says, so the error that
    # reaches the ledger is the one content order raises first.
    content_order: bool = False


# ---------------------------------------------------------------------------
# From WHERE to access path: normalise -> bounds -> index signature -> cost
# -> prologue.  Each step has its one owner in this module; the planner,
# the plan cache, the executor and the columnar operators read them
# (docs/sql_engine.md, "From WHERE to access path").
# ---------------------------------------------------------------------------

def conjuncts(expr: Expr) -> List[Expr]:
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def column_of_alias(expr: Expr, alias: str,
                    table_columns: Sequence[str]) -> Optional[str]:
    if not isinstance(expr, ColumnRef):
        return None
    if expr.table is not None and expr.table != alias:
        return None
    if expr.table is None and expr.name not in table_columns:
        return None
    return expr.name


def is_constant(expr: Expr, alias_columns: Dict[str, Sequence[str]],
                bound_aliases=()) -> bool:
    """The constancy rule: ``expr`` has one value for a whole scan when
    it names no star, aggregate or subquery and no column — qualified,
    or unqualified through ``alias_columns`` — of an alias of this
    SELECT that is not in ``bound_aliases`` (none for a FROM, hash-build
    or DML scan; the already-joined aliases for a nested-loop probe,
    whose outer row supplies them).  What remains is literals,
    parameters, PL variables and an enclosing query's columns.

    The rule is structural on purpose: a name that belongs to this
    SELECT is never handed to evaluation, where an unqualified name that
    finds no row in scope falls through to a PL variable of that name —
    a contract parameter named after a column would otherwise turn
    ``x = y`` into an index condition."""
    for node in expr.walk():
        if isinstance(node, (Star, SubqueryExpr)):
            return False
        if isinstance(node, FunctionCall) and \
                node.name in functions.AGGREGATE_NAMES:
            return False
        if isinstance(node, ColumnRef):
            if node.table is not None:
                if node.table in alias_columns and \
                        node.table not in bound_aliases:
                    return False
            elif any(node.name in cols
                     for alias, cols in alias_columns.items()
                     if alias not in bound_aliases):
                return False
    return True


def const_value(expr: Expr, ctx: EvalContext) -> Any:
    """Value of a constant expression.  A bare literal is read directly:
    no closure is memoized per literal (a genesis seed is tens of
    thousands of them); anything else runs its node-memoized closure."""
    return expr.value if type(expr) is Literal else compiled(expr)(ctx)


@dataclass(frozen=True)
class Sarg:
    """One sargable WHERE / ON conjunct, normalized to column-on-the-left.

    Built once per scan node at plan time and value-free, so it is safe
    on a cached template: ``values`` are the constant-side *expressions*
    (:func:`is_constant`), evaluated per execution — or per outer row,
    for a nested-loop probe.  Kinds: ``cmp`` (``op`` already flipped to
    read column-first, one value), ``between`` (low, high — ``None``
    marks an end that is not constant and bounds nothing), ``in``
    (non-negated, every item constant) and ``like`` (LIKE / NOT LIKE
    against a constant pattern; bounds nothing by itself — the columnar
    aggregate derives a prune range from a literal prefix).  ``source``
    is the conjunct it came from (EXPLAIN conditions, exact-conjunct
    elision)."""

    kind: str                      # "cmp" | "between" | "in" | "like"
    column: str
    values: Tuple[Optional[Expr], ...]
    source: Expr
    op: str = "="
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> List[Any]:
        """This execution's values; evaluation errors propagate."""
        return [None if expr is None else const_value(expr, ctx)
                for expr in self.values]


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def sargable(conjunct: Expr, alias: str,
             alias_columns: Dict[str, Sequence[str]],
             bound_aliases=()) -> Optional[Sarg]:
    """The one reading of a conjunct as a constraint on a column of
    ``alias``: its :class:`Sarg`, or None when it is not one."""
    columns = alias_columns.get(alias, ())

    def constant(expr: Expr) -> bool:
        return is_constant(expr, alias_columns, bound_aliases)

    if isinstance(conjunct, BinaryOp) and conjunct.op in {
            "=", "<", "<=", ">", ">="}:
        col, other, op = (column_of_alias(conjunct.left, alias, columns),
                          conjunct.right, conjunct.op)
        if col is None:
            col, other, op = (column_of_alias(conjunct.right, alias, columns),
                              conjunct.left, _FLIP.get(op, op))
        if col is None or not constant(other):
            return None
        return Sarg("cmp", col, (other,), conjunct, op)
    negated = False
    if isinstance(conjunct, Between) and not conjunct.negated:
        kind = "between"
        values = tuple(side if constant(side) else None
                       for side in (conjunct.low, conjunct.high))
        usable = values != (None, None)
    elif isinstance(conjunct, InList) and not conjunct.negated:
        kind, values = "in", tuple(conjunct.items)
        usable = bool(values) and all(map(constant, values))
    elif isinstance(conjunct, Like):
        kind, values, negated = "like", (conjunct.pattern,), conjunct.negated
        usable = constant(conjunct.pattern)
    else:
        return None
    col = column_of_alias(conjunct.operand, alias, columns)
    if col is None or not usable:
        return None
    return Sarg(kind, col, values, conjunct, negated=negated)


def sargs_of(where: Optional[Expr], alias: str,
             alias_columns: Dict[str, Sequence[str]],
             bound_aliases=()) -> List[Sarg]:
    """The sargable AND-ed conjuncts of ``where`` on ``alias``."""
    if where is None:
        return []
    found = (sargable(conjunct, alias, alias_columns, bound_aliases)
             for conjunct in conjuncts(where))
    return [sarg for sarg in found if sarg is not None]


def _bound_value(expr: Optional[Expr], ctx: Optional[EvalContext]) -> Any:
    """One value side for :func:`bounds_of`: None bounds nothing."""
    if expr is None:
        return None
    if ctx is None:
        return True
    try:
        return const_value(expr, ctx)
    except SQLError:
        return None


def bounds_of(sargs: Sequence[Sarg], ctx: Optional[EvalContext],
              sources: Optional[Dict[str, List[Expr]]] = None
              ) -> Dict[str, Dict[str, Any]]:
    """Per-column bounds of ``sargs`` under ``ctx``:
    ``{column: {"eq": v} | {"low": (v, incl), "high": (v, incl)}}``.

    A value that is NULL or fails to evaluate (``SQLError``) bounds
    nothing.  IN (a, b, c) is not a contiguous range; it bounds by
    min/max for index pruning (exact filtering happens later).  With
    ``ctx`` None every value stands in as ``True``: the bound *kinds*
    alone, which is all :func:`index_signature` reads — how the planner
    predicts a nested-loop probe's index before any outer row exists.
    ``sources``, when given, collects per column the conjuncts that
    bounded it (for EXPLAIN rendering)."""
    bounds: Dict[str, Dict[str, Any]] = {}
    for sarg in sargs:
        kind = sarg.kind
        if kind == "like":
            continue
        values = [_bound_value(expr, ctx) for expr in sarg.values]
        slot: Dict[str, Any] = {}
        if kind == "cmp":
            value, op = values[0], sarg.op
            if value is None:
                continue
            if op == "=":
                slot["eq"] = value
            elif op in ("<", "<="):
                slot["high"] = (value, op == "<=")
            else:
                slot["low"] = (value, op == ">=")
        elif kind == "between":
            if values[0] is not None:
                slot["low"] = (values[0], True)
            if values[1] is not None:
                slot["high"] = (values[1], True)
            if not slot:
                continue
        else:
            if any(value is None for value in values):
                continue
            try:
                slot["low"] = (min(values, key=_SQL_ORDER), True)
                slot["high"] = (max(values, key=_SQL_ORDER), True)
            except TypeMismatchError:
                continue
        bounds.setdefault(sarg.column, {}).update(slot)
        if sources is not None:
            sources.setdefault(sarg.column, []).append(sarg.source)
    return bounds


_SQL_ORDER = functools.cmp_to_key(compare_values)


# (index name, n leading equality columns, has range on next column);
# None means no index serves the bounds (sequential scan).
ScanSignature = Optional[Tuple[str, int, bool]]


def index_signature(heap, bounds: Dict[str, Dict[str, Any]]
                    ) -> ScanSignature:
    """The index choice for ``bounds``: leading-column scoring, 2 per
    equality column and 1 for a range on the next column; the first
    best-scoring index wins.  Only the bound *kinds* ("eq" / "low" /
    "high") are read, so the planner's probe prediction
    (``bounds_of(sargs, None)``), plan-cache guard validation and
    execution all choose through this one function and cannot diverge."""
    best: ScanSignature = None
    best_score = 0
    for index in heap.indexes.values():
        n_eq = 0
        for col in index.columns:
            slot = bounds.get(col)
            if slot and "eq" in slot:
                n_eq += 1
            else:
                break
        score = n_eq * 2
        has_range = False
        if n_eq < len(index.columns):
            slot = bounds.get(index.columns[n_eq])
            if slot and ("low" in slot or "high" in slot):
                score += 1
                has_range = True
        if score > best_score:
            best_score = score
            best = (index.name, n_eq, has_range)
    return best


def key_range(schema, columns: Sequence[str], n_eq: int, has_range: bool,
              bounds: Dict[str, Dict[str, Any]]
              ) -> Optional[Tuple[Optional[Tuple], Optional[Tuple],
                                  bool, bool]]:
    """(low_key, high_key, low_incl, high_incl) of the walk over an
    index on ``columns`` of ``schema`` that binds ``n_eq`` leading
    columns by equality and, with ``has_range``, the next one by range;
    None when nothing is bound (a whole-index walk).  A bound keys as
    ``=`` compares it with the column's values: a Decimal on an INT
    column exactly (:func:`exact_key_part`), anything else as the index
    keys its entries."""
    def key(values: List[Any]) -> Tuple:
        parts: Tuple = ()
        for col, value in zip(columns, values):
            if type(value) is Decimal and \
                    value_class(schema.column(col).type_name) == "int":
                parts += exact_key_part(value)
            else:
                parts += normalize_key_part(value)
        return parts

    low_vals = [bounds[col]["eq"] for col in columns[:n_eq]]
    if not has_range:           # an equality prefix: one key, both ends
        point = key(low_vals) if low_vals else None
        return None if point is None else (point, point, True, True)
    high_vals = list(low_vals)
    low_incl = high_incl = True
    slot = bounds[columns[n_eq]]
    if "low" in slot:
        value, low_incl = slot["low"]
        low_vals.append(value)
    if "high" in slot:
        value, high_incl = slot["high"]
        high_vals.append(value)
    return (key(low_vals) if low_vals else None,
            key(high_vals) if high_vals else None,
            low_incl, high_incl)


def scan_estimate(row_count: int, n_eq: int, has_range: bool,
                  unique_covered: bool,
                  eq_ndv: Optional[int] = None) -> float:
    """Selectivity estimate over the snapshot-anchored committed row
    count.  Equality prefixes divide by the anchored distinct-key count
    of the bound columns when the caller supplies it (``eq_ndv``),
    falling back to the System-R 1/4 guess; a range keeps the classic
    1/3.  (Lives here, beside the index scoring, so a plan node can
    recost itself without importing the planner.)"""
    base = float(max(row_count, 1))
    if unique_covered:
        return 1.0
    est = base
    if n_eq:
        if eq_ndv is not None:
            est = max(1.0, est / float(max(eq_ndv, 1)))
        else:
            est = max(1.0, est / 4.0)
    if has_range:
        est = max(1.0, est / 3.0)
    return est


def _l2(x: float) -> float:
    """log₂ clamped away from zero — the cost model's loop factor."""
    return math.log2(max(float(x), 2.0))


# (n_eq, has_range, unique_covered, eq column names) — everything a scan
# needs to re-derive its row/cost estimates from anchored statistics.
CostSig = Tuple[int, bool, bool, Tuple[str, ...]]


def ordered_scan_sig(bounds: Dict[str, Dict[str, Any]],
                     order_column: str) -> CostSig:
    """CostSig of an index-order walk: only bounds on the leading
    (order) column narrow it."""
    slot = bounds.get(order_column, {})
    n_eq = 1 if "eq" in slot else 0
    has_range = n_eq == 0 and ("low" in slot or "high" in slot)
    return (n_eq, has_range, False, (order_column,) if n_eq else ())


def _sort_cost(rows: float, ordered: bool) -> float:
    """The content sort of a scan's output, paid only when it runs."""
    return rows * _l2(rows) if ordered else 0.0


def scan_cost(db, table: str, cost_sig: Optional[CostSig],
              ordered: bool = True) -> Tuple[float, float]:
    """(est_rows, est_cost) of one pass over ``table`` from the
    anchored statistics — the single formula behind every heap access
    path, so choosing (the planner's candidate costing) and rendering
    (each node's ``recost``) cannot disagree.

    ``cost_sig`` None is the full heap walk; otherwise an index descent
    plus the matched rows.  Estimates depend on the bound *shape* only,
    never on bound values, so a cached template and a fresh plan of the
    same statement cost alike.  ``ordered`` adds the content sort of
    the output; an index-order walk never pays it."""
    row_count = db.stats.table_stats(table).row_count
    if cost_sig is None:
        rows = float(max(row_count, 0))
        return rows, max(rows, 1.0) + _sort_cost(rows, ordered)
    n_eq, has_range, unique_covered, eq_cols = cost_sig
    ndv = None
    if eq_cols and not unique_covered:   # else scan_estimate returns 1
        ndv = db.stats.ndv(table, eq_cols)
    est = scan_estimate(row_count, n_eq, has_range, unique_covered,
                        eq_ndv=ndv)
    return est, _l2(row_count) + est + _sort_cost(est, ordered)


# ---------------------------------------------------------------------------
# The scan runtime — SSI hooks live here
# ---------------------------------------------------------------------------

def row_content_key(values: Dict[str, Any]) -> str:
    """Content-defined sort key shared by heap and columnar scans:
    physical version ids differ across nodes (aborted executions burn
    ids), so wherever row order can reach a result, sorting rows by
    content makes every node (and every store) see the same order."""
    return repr(sorted(values.items(), key=lambda kv: kv[0]))


def scan_reader(rt: Runtime, table_name: str, index: Optional[Index] = None,
                key_order: bool = False
                ) -> Tuple[Callable[[Optional[Tuple]], List[RowVersion]],
                           Any, Optional[int]]:
    """The SSI prologue of every heap scan, split at the key range so an
    SSI fix lands once (docs/sql_engine.md, "The read path"): the access
    check, catalog lookups and missing-index / as-of / provenance tests
    are paid here, once.  ``read(keys)`` of the returned ``(read,
    snapshot, own_xid)`` pays the index slice, the version lookup, the
    predicate read (SIREAD range) and the section 3.4.1
    :func:`window_checks` over the candidates it returns.  ``keys`` None
    reads the whole table (or ``index`` end to end) and raises the
    section 4.3 :class:`MissingIndexError` under ``tx.require_index``;
    ``key_order`` asks for full key order.  An AS OF execution pins
    visibility to ``BlockSnapshot(height)`` and keeps no SSI books: that
    state never changes, and the executor makes the transaction
    read-only."""
    rt.check_read(table_name)
    schema = rt.db.catalog.schema_of(table_name)
    heap = rt.db.catalog.heap_of(table_name)
    tx = rt.tx
    missing_index = tx.require_index and not schema.system \
        and not tx.provenance
    as_of = rt.ctx.as_of_height is not None and not tx.provenance
    snapshot = tx.snapshot
    record = tx.record_predicate_read

    def read(keys: Optional[Tuple]) -> List[RowVersion]:
        if keys is None:
            if missing_index:
                raise MissingIndexError(
                    f"no index supports the predicate on {table_name!r}; "
                    f"the execute-order-in-parallel flow requires "
                    f"index-backed predicate reads")
            candidates = heap.all_versions() if index is None \
                else heap.resolve(index.scan_all())
            predicate = PredicateRead(table=table_name, columns=())
        else:
            low_key, high_key, low_incl, high_incl = keys
            depth = max(key_depth(low_key), key_depth(high_key), 1)
            if key_order:
                candidate_ids = index.ordered_scan(low_key, high_key,
                                                   low_incl, high_incl)
            else:
                candidate_ids = index._scan(low_key, high_key, low_incl,
                                            high_incl, depth)
            candidates = heap.resolve(candidate_ids)
            predicate = PredicateRead(
                table=table_name, columns=index.columns[:depth],
                low_key=low_key, high_key=high_key,
                low_inclusive=low_incl, high_inclusive=high_incl)
        if not as_of:
            record(predicate)
            window_checks(rt, table_name, candidates)
        return candidates

    if as_of:                   # pure committed-height semantics
        return read, BlockSnapshot(rt.ctx.as_of_height), None
    return read, snapshot, tx.xid


def visible_rows(rt: Runtime, candidates: List[RowVersion], snapshot,
                 own_xid: Optional[int], ordered: bool) -> List[Any]:
    """What a heap scan hands up: the value dicts of the versions of
    ``candidates`` it sees, each the version's own (no operator may
    mutate one: tests/sql/test_no_mutation.py) — or, in a provenance
    session, every *committed* version (section 4.2) as a copy carrying
    its pseudo-columns.  Content order unless ``ordered`` is False and
    this is not a content-order repeat."""
    if rt.tx.provenance:
        is_committed = rt.db.statuses.is_committed
        rows = [{**v.provenance_header(), **v.values}
                for v in candidates if is_committed(v.xmin)]
    else:
        rows = [version.values for version in visible_versions(
            candidates, snapshot, rt.db.statuses, own_xid)]
    if ordered or rt.content_order:
        rows.sort(key=row_content_key)
    return rows


def execute_scan(rt: Runtime, table_name: str, alias: str,
                 bounds: Dict[str, Dict[str, Any]],
                 ordered: bool = True) -> List[Any]:
    """Scan ``table_name`` through the index :func:`index_signature`
    picks for ``bounds`` (the whole heap when none), returning what
    :func:`visible_rows` hands up."""
    heap = rt.db.catalog.heap_of(table_name)
    return visible_rows(rt, *scan_candidates(
        rt, table_name, heap, index_signature(heap, bounds), bounds), ordered)


def scan_candidates(rt: Runtime, table_name: str, heap,
                    signature: ScanSignature,
                    bounds: Dict[str, Dict[str, Any]]) -> Tuple:
    """``(candidates, snapshot, own_xid)``: the key range of ``bounds``
    on the ``signature`` index (the whole heap for None) read through
    :func:`scan_reader`."""
    index = keys = None
    if signature is not None:
        index = heap.indexes[signature[0]]
        keys = key_range(rt.db.catalog.schema_of(table_name), index.columns,
                         signature[1], signature[2], bounds)
    read, snapshot, own_xid = scan_reader(rt, table_name, index)
    return read(keys), snapshot, own_xid


def window_checks(rt: Runtime, table_name: str,
                  candidates: List[RowVersion]) -> None:
    """Paper section 3.4.1: when executing below the node's committed
    height, a predicate-matching row created (phantom) or deleted
    (stale) in the window aborts the transaction."""
    snapshot = rt.tx.snapshot
    if not isinstance(snapshot, BlockSnapshot) or rt.tx.provenance:
        return
    current = rt.db.committed_height
    if current <= snapshot.height:
        return
    for version in candidates:
        if version_committed_in_window(version, rt.db.statuses,
                                       snapshot.height, current):
            if version.deleter_block is None:
                raise SerializationFailure(
                    f"phantom read on {table_name!r}: row created at "
                    f"block {version.creator_block} > snapshot height "
                    f"{snapshot.height}", reason="phantom-read")
        if version_deleted_in_window(version, rt.db.statuses,
                                     snapshot.height, current):
            raise SerializationFailure(
                f"stale read on {table_name!r}: row deleted at block "
                f"{version.deleter_block} > snapshot height "
                f"{snapshot.height}", reason="stale-read")


# ---------------------------------------------------------------------------
# Expression rendering (EXPLAIN)
# ---------------------------------------------------------------------------

def expr_sql(expr: Expr) -> str:
    """Render an expression back to compact SQL for plan display."""
    if isinstance(expr, Literal):
        if expr.value is None:
            return "NULL"
        if isinstance(expr.value, bool):
            return "TRUE" if expr.value else "FALSE"
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return str(expr.value)
    if isinstance(expr, ColumnRef):
        return expr.qualified
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Star):
        return f"{expr.table}.*" if expr.table else "*"
    if isinstance(expr, BinaryOp):
        if expr.op == "IN_SUBQUERY":
            return f"{_operand_sql(expr.left)} IN (subquery)"
        return (f"{_operand_sql(expr.left)} {expr.op} "
                f"{_operand_sql(expr.right)}")
    if isinstance(expr, UnaryOp):
        if expr.op == "NOT":
            return f"NOT {_operand_sql(expr.operand)}"
        return f"{expr.op}{_operand_sql(expr.operand)}"
    if isinstance(expr, FunctionCall):
        if expr.star:
            return f"{expr.name}(*)"
        args = ", ".join(expr_sql(a) for a in expr.args)
        prefix = "DISTINCT " if expr.distinct else ""
        return f"{expr.name}({prefix}{args})"
    if isinstance(expr, IsNull):
        return (f"{_operand_sql(expr.operand)} IS "
                f"{'NOT ' if expr.negated else ''}NULL")
    if isinstance(expr, Between):
        return (f"{_operand_sql(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}BETWEEN "
                f"{_operand_sql(expr.low)} AND {_operand_sql(expr.high)}")
    if isinstance(expr, InList):
        items = ", ".join(expr_sql(i) for i in expr.items)
        return (f"{_operand_sql(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}IN ({items})")
    if isinstance(expr, Like):
        return (f"{_operand_sql(expr.operand)} "
                f"{'NOT ' if expr.negated else ''}LIKE "
                f"{_operand_sql(expr.pattern)}")
    if isinstance(expr, CaseExpr):
        parts = ["CASE"]
        for cond, result in expr.whens:
            parts.append(f"WHEN {expr_sql(cond)} THEN {expr_sql(result)}")
        if expr.else_ is not None:
            parts.append(f"ELSE {expr_sql(expr.else_)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, IntervalLiteral):
        return f"INTERVAL '{expr.text}'"
    if isinstance(expr, SubqueryExpr):
        return "EXISTS (subquery)" if expr.exists else "(subquery)"
    return repr(expr)


def _operand_sql(expr: Expr) -> str:
    if isinstance(expr, BinaryOp):
        return f"({expr_sql(expr)})"
    return expr_sql(expr)


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------

class PlanNode:
    """Base physical operator."""

    est_rows: float = 0.0
    est_cost: float = 0.0

    def rows(self, rt: Runtime) -> Iterable:
        """This execution's rows: a list (a batch) or an iterator."""
        raise NotImplementedError

    def children(self) -> List["PlanNode"]:
        return []

    def describe(self) -> str:
        return type(self).__name__

    def recost(self, db) -> None:
        """Recompute ``est_rows`` / ``est_cost`` from this node's
        children and the database's snapshot-anchored statistics.  Leaf
        scans re-derive from ``db.stats``; composite operators fold
        their children's estimates — so a bottom-up pass
        (:func:`recost_plan`) refreshes the whole tree, and EXPLAIN of a
        cached template renders the same ``cost~``/``rows~`` annotations
        a fresh plan would."""
        return None


def recost_plan(node: PlanNode, db) -> None:
    """Bottom-up estimate refresh over a plan tree (children first)."""
    for child in node.children():
        recost_plan(child, db)
    node.recost(db)


def render_plan(node: PlanNode, depth: int = 0,
                lines: Optional[List[str]] = None,
                stats: Optional[Dict[int, "OpStats"]] = None) -> List[str]:
    """Pretty-print a plan tree, Postgres-style, annotating every
    operator with its estimated cost and output rows.  With ``stats``
    (an EXPLAIN ANALYZE run's :func:`instrument_plan` output) each line
    additionally carries the operator's actual rows/loops/wall time."""
    if lines is None:
        lines = []
    prefix = "" if depth == 0 else "  " * depth + "-> "
    line = (prefix + node.describe() +
            f" (cost~{int(node.est_cost)} rows~{int(node.est_rows)})")
    if stats is not None:
        st = stats.get(id(node))
        if st is not None:
            if st.loops:
                line += (f" (actual rows={st.rows} loops={st.loops} "
                         f"time={st.seconds * 1000.0:.3f}ms)")
            else:
                line += " (actual never executed)"
    lines.append(line)
    for child in node.children():
        render_plan(child, depth + 1, lines, stats)
    return lines


@dataclass
class OpStats:
    """Per-operator actuals collected during an EXPLAIN ANALYZE run."""

    rows: int = 0
    loops: int = 0
    seconds: float = 0.0


def instrument_plan(root: PlanNode) -> Dict[int, OpStats]:
    """Attach row/loop/time counters to every operator of a plan tree.

    Wrapping happens at *instance* level (``node.__dict__``), so the
    class behaviour of a cached, shared plan template is untouched and
    :func:`deinstrument_plan` restores the tree exactly.  Operators that
    are consumed through a side entry point get that wrapped instead of
    ``rows``: a scan's ``rows`` reads through ``scan_rows``, which is
    also where a HashJoin pulls its build side (an IndexOrderScan has
    ``rows`` alone), and a DynamicProbe never runs at all
    (NestedLoopJoin drives it per outer row and reports through
    ``Runtime.probe_stats``).  Timing covers time spent *inside* the
    operator (children inclusive, consumers exclusive), Postgres-style:
    per call for a batch, per step for a stream.
    """
    stats: Dict[int, OpStats] = {}

    def wrap(node: PlanNode, attr: str) -> None:
        inner = getattr(node, attr)
        st = stats[id(node)]

        def counted(rt):
            st.loops += 1
            t0 = time.perf_counter()
            out = inner(rt)
            st.seconds += time.perf_counter() - t0
            if isinstance(out, (list, Batch)):
                st.rows += len(out)
                return out
            return stepped(out)

        def stepped(it):
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    st.seconds += time.perf_counter() - t0
                    return
                st.seconds += time.perf_counter() - t0
                st.rows += 1
                yield item

        node.__dict__[attr] = counted

    def visit(node: PlanNode) -> None:
        stats[id(node)] = OpStats()
        if isinstance(node, DynamicProbe):
            pass    # counted by NestedLoopJoin via rt.probe_stats
        elif isinstance(node, SeqScan) and \
                not isinstance(node, IndexOrderScan):
            wrap(node, "scan_rows")
        else:
            wrap(node, "rows")
        for child in node.children():
            visit(child)

    visit(root)
    return stats


def deinstrument_plan(root: PlanNode) -> None:
    """Remove :func:`instrument_plan`'s instance-level wrappers — the
    template may live in the (possibly shared) plan cache."""
    def visit(node: PlanNode) -> None:
        for attr in ("rows", "scan_rows"):
            node.__dict__.pop(attr, None)
        for child in node.children():
            visit(child)

    visit(root)


class OneRow(PlanNode):
    """FROM-less SELECT: a single empty environment."""

    est_rows = 1.0

    def rows(self, rt: Runtime) -> Iterator[Env]:
        yield {}

    def recost(self, db) -> None:
        self.est_rows = 1.0
        self.est_cost = 0.0

    def describe(self) -> str:
        return "Result"


def _scan_target(table: str, alias: str) -> str:
    return f"on {table}" + (f" as {alias}" if alias != table else "")


def _order_note(ordered: bool) -> str:
    return "" if ordered else " (any order)"


class SeqScan(PlanNode):
    """Full-heap scan (no usable index), and the base of every scan.

    Scan nodes are plan *templates*: they store the WHERE clause as its
    normalized sargable conjuncts (``sargs`` — value expressions, never
    values).  Bounds are derived from the live execution context on
    every run, so a tree pulled from the plan cache scans — and records
    SIREAD state — exactly as a freshly planned one would.

    ``ordered`` is the planner's order-observability mark: False when no
    result of the statement can depend on this scan's row order, which
    lets the scan skip its content sort.  It is a function of the
    statement, the catalog and the provenance flag only.
    """

    # The structural bound shape estimates re-derive from (None: the
    # full heap walk).
    cost_sig: Optional[CostSig] = None

    def __init__(self, table: str, alias: str, sargs: Sequence[Sarg] = (),
                 ordered: bool = True):
        self.table = table
        self.alias = alias
        self.sargs = list(sargs)
        self.ordered = ordered

    def bounds(self, rt: Runtime) -> Dict[str, Dict[str, Any]]:
        """This execution's bounds: the ones planning or plan-cache
        guard validation already computed under the statement context,
        else derived now."""
        bounds = None
        if rt.scan_bounds is not None:
            bounds = rt.scan_bounds.get(id(self))
        if bounds is None:
            bounds = bounds_of(self.sargs, rt.ctx)
        return bounds

    def scan_rows(self, rt: Runtime) -> List[Dict[str, Any]]:
        return execute_scan(rt, self.table, self.alias, self.bounds(rt),
                            self.ordered)

    def rows(self, rt: Runtime) -> Batch:
        return Batch({self.alias: self.scan_rows(rt)})

    def recost(self, db) -> None:
        self.est_rows, self.est_cost = scan_cost(
            db, self.table, self.cost_sig, self.ordered)

    def describe(self) -> str:
        return (f"SeqScan {_scan_target(self.table, self.alias)}"
                f"{_order_note(self.ordered)}")


class IndexScan(SeqScan):
    """Index-served scan; execution derives the same bounds the planner
    scored (``execute_scan`` re-runs the deterministic index choice over
    them).

    ``cost_sig`` carries the structural bound shape so estimates
    re-derive from anchored statistics (``recost``) without re-planning;
    its ``unique_covered`` marks a point lookup (every column of a
    unique index bound by equality) — a structural fact the planner's
    join strategy may rely on, unlike row counts.  ``exact`` lists the
    WHERE conjuncts the index range enforces exactly (every row the scan
    returns satisfies them), so a Filter above need not repeat them.
    """

    def __init__(self, table: str, alias: str, sargs: Sequence[Sarg],
                 index_name: str, conditions: Sequence[Expr],
                 cost_sig: CostSig, ordered: bool = True,
                 exact: Sequence[Expr] = ()):
        super().__init__(table, alias, sargs, ordered)
        self.index_name = index_name
        self.conditions = list(conditions)
        self.cost_sig = cost_sig
        self.unique_covered = cost_sig[2]
        self.exact = list(exact)

    def describe(self) -> str:
        conds = ", ".join(expr_sql(c) for c in self.conditions)
        return (f"IndexScan {_scan_target(self.table, self.alias)} "
                f"using {self.index_name} ({conds})"
                f"{_order_note(self.ordered)}")


class Filter(PlanNode):
    """Residual predicate over environment rows: the WHERE conjuncts no
    access path below already enforces exactly."""

    def __init__(self, child: PlanNode, predicate: Expr,
                 binder: Optional[Binder] = None):
        self.child = child
        self.predicate = predicate
        self._predicate = compile_predicate(predicate, binder)
        self.est_rows = child.est_rows

    def rows(self, rt: Runtime) -> Iterator[Env]:
        predicate = self._predicate
        row_ctx = rt.ctx.row_context()
        for env in self.child.rows(rt):
            row_ctx.env = env
            if predicate(row_ctx):
                yield env

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        self.est_rows = self.child.est_rows
        self.est_cost = self.child.est_cost + self.child.est_rows

    def describe(self) -> str:
        return f"Filter ({expr_sql(self.predicate)})"


class DynamicProbe(PlanNode):
    """Explain-only child of a NestedLoopJoin: the inner access path
    follows each outer row's bounds — ``sargs`` were normalized with the
    already-joined aliases bound, so outer-row values feed the index
    bounds.  ``signature`` is the index the bound kinds predict,
    ``exact`` the ON conjuncts it enforces; ``est_rows``/``est_cost``
    are *per-probe* (``cost_sig`` None: per-row sequential rescans)."""

    def __init__(self, table: str, alias: str, sargs: Sequence[Sarg],
                 index_name: Optional[str], conditions: Sequence[Expr],
                 cost_sig: Optional[CostSig], ordered: bool = True,
                 exact: Sequence[Expr] = ()):
        self.table = table
        self.alias = alias
        self.sargs = list(sargs)
        self.index_name = index_name
        self.conditions = list(conditions)
        self.cost_sig = cost_sig
        self.ordered = ordered   # see SeqScan
        self.signature: ScanSignature = None if index_name is None \
            else (index_name, cost_sig[0], cost_sig[1])
        self.exact = list(exact)

    def recost(self, db) -> None:
        self.est_rows, self.est_cost = scan_cost(
            db, self.table, self.cost_sig, ordered=self.ordered)

    def describe(self) -> str:
        note = _order_note(self.ordered)
        if self.index_name is None:
            return (f"SeqScan {_scan_target(self.table, self.alias)} "
                    f"(per outer row){note}")
        conds = ", ".join(expr_sql(c) for c in self.conditions)
        return (f"IndexProbe {_scan_target(self.table, self.alias)} "
                f"using {self.index_name} ({conds}) (per outer row){note}")


class NestedLoopJoin(PlanNode):
    """Per-outer-row inner scan with narrow per-probe predicate reads;
    the probe's :func:`scan_reader` prologue is paid once, at the first
    outer row.  Each outer row's bounds pick its signature; while that
    is the planned one, only the ON conjuncts ``probe.exact`` leaves are
    evaluated (none: no closure at all), else (a NULL outer key bounds
    nothing) the full ON over a scan of its own, counting
    ``sql.probe_fallbacks``."""

    def __init__(self, outer: PlanNode, join: Join, probe: DynamicProbe,
                 est_rows: float = 0.0, binder: Optional[Binder] = None):
        self.outer = outer
        self.join = join
        self.probe = probe
        self._on = compile_predicate(join.on, binder)
        residual = without(join.on, probe.exact)
        self._residual_on = None if residual is None \
            else compile_predicate(residual, binder)
        self.est_rows = est_rows

    def rows(self, rt: Runtime) -> Batch:
        join = self.join
        alias = join.table.alias
        table = join.table.name
        left = join.kind == "LEFT"
        probe = self.probe
        sargs, ordered, planned = probe.sargs, probe.ordered, probe.signature
        fallbacks = rt.db.sql_probe_fallbacks
        row_ctx = rt.ctx.row_context()
        probe_st = (rt.probe_stats or {}).get(id(probe))
        schema = rt.db.catalog.schema_of(table)
        null_row = {col: None for col in schema.column_names()}
        heap = rt.db.catalog.heap_of(table)
        read = None
        out: Dict[str, List[Dict[str, Any]]] = {}   # the output columns
        for env in self.outer.rows(rt):
            if read is None:        # the prologue, once
                index = None if planned is None \
                    else heap.indexes[planned[0]]
                read, snapshot, own_xid = scan_reader(rt, table, index)
                out = {name: [] for name in [*env, alias]}
            row_ctx.env = env
            bounds = bounds_of(sargs, row_ctx)
            if probe_st is not None:
                t0 = time.perf_counter()
            signature = index_signature(heap, bounds)
            if signature == planned:
                on = self._residual_on
                keys = None if index is None else key_range(
                    schema, index.columns, planned[1], planned[2], bounds)
                inner_rows = visible_rows(rt, read(keys), snapshot, own_xid,
                                          ordered)
            else:
                fallbacks.inc()
                on = self._on
                inner_rows = visible_rows(rt, *scan_candidates(
                    rt, table, heap, signature, bounds), ordered)
            if probe_st is not None:
                probe_st.loops += 1
                probe_st.rows += len(inner_rows)
                probe_st.seconds += time.perf_counter() - t0
            if on is None:
                matched = inner_rows
            else:
                matched = []
                for values in inner_rows:
                    row_ctx.env = {**env, alias: values}
                    if on(row_ctx):
                        matched.append(values)
            if left and not matched:
                matched = [dict(null_row)]
            for name, values in env.items():
                out[name] += repeat(values, len(matched))
            out[alias] += matched
        return Batch(out)

    def children(self) -> List[PlanNode]:
        return [self.outer, self.probe]

    def recost(self, db) -> None:
        outer_rows = max(self.outer.est_rows, 1.0)
        self.est_rows = outer_rows * max(self.probe.est_rows, 1.0)
        self.est_cost = self.outer.est_cost + \
            outer_rows * max(self.probe.est_cost, 1.0)

    def describe(self) -> str:
        on = f" on ({expr_sql(self.join.on)})" if self.join.on is not None \
            else ""
        return f"NestedLoopJoin {self.join.kind}{on}"


def without(expr: Optional[Expr], exact: Sequence[Expr]) -> Optional[Expr]:
    """``expr`` minus its conjuncts that are (by identity) in ``exact``:
    ``expr`` itself when none is, None when nothing is left."""
    parts = [] if expr is None else conjuncts(expr)
    kept = [conj for conj in parts
            if not any(conj is enforced for enforced in exact)]
    if len(kept) == len(parts):
        return expr
    return functools.reduce(lambda left, right: BinaryOp(
        "AND", left, right), kept) if kept else None


def join_estimates(db, outer: PlanNode, inner: PlanNode, join,
                   inner_key_cols: Tuple[str, ...]
                   ) -> Tuple[float, float]:
    """(est_rows, est_cost) of a :class:`HashJoin`, which reads both
    sides once: output is the classic ``|outer|·|inner| / NDV(key)``
    over the anchored distinct-key count of the inner join columns; cost
    is both inputs plus one pass over each side's rows (build, then
    probe)."""
    ndv = db.stats.ndv(join.table.name, inner_key_cols) \
        if inner_key_cols else 1
    outer_rows = max(outer.est_rows, 1.0)
    inner_rows = max(inner.est_rows, 1.0)
    est = max(1.0, outer_rows * inner_rows / float(max(ndv, 1)))
    if join.kind == "LEFT":
        est = max(est, outer_rows)
    cost = outer.est_cost + inner.est_cost + outer_rows + inner_rows
    return est, cost


class HashJoin(PlanNode):
    """Build a hash table over the inner scan once, probe per outer row.

    The equi-key pairs come from ON/WHERE conjuncts; the full ON clause is
    still re-evaluated per candidate pair, so NULL-key and residual
    semantics match the nested loop exactly.  Buckets are index keys,
    which rank values as ``=`` compares them (TRUE = 1, 1 = 1.0); the
    ON re-evaluation removes bucket collisions.  Output order also matches:
    probe rows stream in outer order, bucket entries preserve the build
    scan's content-sorted order.
    """

    def __init__(self, outer: PlanNode, join: Join, build: SeqScan,
                 keys: Sequence[Tuple[str, Expr]], est_rows: float = 0.0,
                 binder: Optional[Binder] = None):
        self.outer = outer
        self.join = join
        self.build = build
        self.keys = list(keys)     # (inner column, probe expression)
        self._probe_fns = [compile_expr(expr, binder) for _, expr in keys]
        self._on = compile_predicate(join.on, binder)
        self.est_rows = est_rows

    def rows(self, rt: Runtime) -> Iterator[Env]:
        join = self.join
        alias = join.table.alias
        on = self._on
        schema = rt.db.catalog.schema_of(join.table.name)
        null_row = {col: None for col in schema.column_names()}
        inner_cols = [col for col, _ in self.keys]
        probe_fns = self._probe_fns

        table: Dict[Tuple, List[Dict[str, Any]]] = {}
        for values in self.build.scan_rows(rt):
            try:
                key = normalize_key([values.get(c) for c in inner_cols])
            except TypeMismatchError:
                continue  # unindexable key value can never equal a probe
            table.setdefault(key, []).append(values)

        row_ctx = rt.ctx.row_context()
        for env in self.outer.rows(rt):
            row_ctx.env = env
            probe_vals = [fn(row_ctx) for fn in probe_fns]
            try:
                candidates = table.get(normalize_key(probe_vals), ())
            except TypeMismatchError:
                candidates = ()
            matched = False
            for values in candidates:
                candidate_env = {**env, alias: values}
                row_ctx.env = candidate_env
                if on(row_ctx):
                    matched = True
                    yield candidate_env
            if join.kind == "LEFT" and not matched:
                yield {**env, alias: dict(null_row)}

    def children(self) -> List[PlanNode]:
        return [self.outer, self.build]

    def recost(self, db) -> None:
        self.est_rows, self.est_cost = join_estimates(
            db, self.outer, self.build, self.join,
            tuple(col for col, _ in self.keys))

    def describe(self) -> str:
        alias = self.join.table.alias
        conds = ", ".join(f"{alias}.{col} = {expr_sql(e)}"
                          for col, e in self.keys)
        return f"HashJoin {self.join.kind} ({conds})"


class HashAggregate(PlanNode):
    """GROUP BY / global aggregation, HAVING, and grouped projection.

    Emits ``(order_keys, output_row)`` pairs for Sort/Distinct/Limit.
    The child is materialised once, each group key and aggregate
    argument gathered as a column (:meth:`_gather`), and the columns
    grouped and folded by the kernels ``ColumnarAggregate`` uses
    (:mod:`repro.sql.aggregate`).  A group's non-aggregate expressions
    evaluate against its first row.
    """

    def __init__(self, child: PlanNode, group_by: Sequence[Expr],
                 aggregates: Sequence[FunctionCall], having: Optional[Expr],
                 items: Sequence[SelectItem], order_items: Sequence[OrderItem],
                 est_rows: float = 0.0, binder: Optional[Binder] = None):
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        self.having = having
        self.items = list(items)
        self.order_items = list(order_items)
        self.est_rows = est_rows
        # (fingerprint, call, its one argument's fingerprint or None):
        # arity/star errors are raised when the first group forms.
        args: Dict[str, Expr] = {}
        self._agg_specs = []
        for call in self.aggregates:
            arg = None
            if not call.star and len(call.args) == 1:
                arg = expr_fingerprint(call.args[0])
                args.setdefault(arg, call.args[0])
            self._agg_specs.append((expr_fingerprint(call), call, arg))
        self._arg_names = list(args)    # gathered after the group keys
        exprs = self.group_by + list(args.values())
        self._fns = [compile_expr(expr, binder) for expr in exprs]
        refs = [_bound_ref(expr, binder) for expr in exprs]
        self._refs = None if None in refs else refs
        self._having = (None if having is None
                        else compile_predicate(having, binder))
        self._item_fns = [_compile_grouped_item(item, binder)
                          for item in self.items]
        self._order_fns = [compile_expr(o.expr, binder)
                           for o in self.order_items]

    def _folds(self) -> Tuple[List[int], List[Optional[str]]]:
        """Per aggregate its fold mode and the gathered column it reads
        (None for ``count(*)``); raises the call-shape errors."""
        modes, columns = [], []
        for _, call, arg in self._agg_specs:
            if call.star and call.name != "count":
                raise ExecutionError(f"{call.name}(*) is not valid")
            if not call.star and arg is None:
                raise ExecutionError(
                    f"aggregate {call.name}() takes exactly one argument")
            modes.append(FOLD_COUNT if call.star
                         else fold_mode(call.name, call.distinct))
            columns.append(arg)
        return modes, columns

    def _gather(self, rows, row_ctx: EvalContext) -> List[Sequence[Any]]:
        """Each group key and aggregate argument as a column over
        ``rows``: by the lookup a bound column's closure tries first,
        else (or when a row lacks the column) by one pass of the
        closures in row order, so the first error is a per-row fold's."""
        if self._refs is not None:
            try:
                return [list(map(itemgetter(name),
                                 rows.columns[alias] if type(rows) is Batch
                                 else map(itemgetter(alias), rows)))
                        for alias, name in self._refs]
            except KeyError:
                pass
        fns = self._fns
        out = []
        for env in rows:
            row_ctx.env = env
            out.append([fn(row_ctx) for fn in fns])
        return list(zip(*out)) if out else [()] * len(fns)

    def rows(self, rt: Runtime) -> List[Tuple[Tuple, Tuple]]:
        row_ctx = rt.ctx.row_context()
        rows = self.child.rows(rt)
        if type(rows) is not Batch:
            rows = list(rows)
        n_rows = len(rows)
        n_keys = len(self.group_by)
        groups: List[Tuple[Env, int, Dict[str, Any]]] = []
        modes: List[int] = []
        if n_rows or not n_keys:    # else: no group, so no fold either
            modes, columns = self._folds()
            gathered = self._gather(rows, row_ctx)
            keys = gathered[:n_keys]
            values_of = dict(zip(self._arg_names, gathered[n_keys:]))
            if not n_keys:
                groups.append((rows[0] if n_rows else {}, n_rows, {
                    name: non_null(None, values)
                    for name, values in values_of.items()}))
            else:
                ids, order, firsts = group_ids(
                    keys[0] if n_keys == 1 else list(zip(*keys)))
                counts, parts = split_groups(ids, len(order), values_of, {})
                groups = [(rows[firsts[i]], counts[i],
                           {name: part[i] for name, part in parts.items()})
                          for i in range(len(order))]

        specs = self._agg_specs
        having, item_fns, order_fns = \
            self._having, self._item_fns, self._order_fns
        out = []
        for first, count, values in groups:
            states = [new_fold_state(mode) for mode in modes]
            fold(states, modes, columns, count, values, {})
            row_ctx.env = first
            row_ctx.aggregate_values = {
                fingerprint: finish_fold(call.name, mode, state,
                                         call.distinct)
                for (fingerprint, call, _), mode, state
                in zip(specs, modes, states)}
            if having is not None and not having(row_ctx):
                continue
            out.append((tuple([fn(row_ctx) for fn in order_fns]),
                        tuple([fn(row_ctx) for fn in item_fns])))
        return out

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        child_rows = self.child.est_rows
        self.est_rows = child_rows if self.group_by else 1.0
        self.est_cost = self.child.est_cost + 2.0 * child_rows

    def describe(self) -> str:
        if self.group_by:
            keys = ", ".join(expr_sql(g) for g in self.group_by)
            return f"HashAggregate (group by {keys})"
        return "HashAggregate (global)"


def _bound_ref(expr: Expr, binder: Optional[Binder]
               ) -> Optional[Tuple[str, str]]:
    """``(alias, column)`` of a column reference qualified or bound to
    one alias by ``binder``: the lookup its closure tries first."""
    if type(expr) is not ColumnRef:
        return None
    if expr.table is not None:
        return expr.table, expr.name
    if binder is None:
        return None
    owners = [alias for alias, cols in binder.items() if expr.name in cols]
    return (owners[0], expr.name) if len(owners) == 1 else None


def _compile_grouped_item(item: SelectItem, binder) -> Any:
    if isinstance(item.expr, Star):
        def run_star(row_ctx):
            raise ExecutionError("'*' is not valid with GROUP BY")
        return run_star
    return compile_expr(item.expr, binder)


class Project(PlanNode):
    """Plain (non-grouped) projection, including ``*`` expansion.

    Emits ``(order_keys, output_row)`` pairs.
    """

    def __init__(self, child: PlanNode, items: Sequence[SelectItem],
                 order_items: Sequence[OrderItem], columns: Sequence[str],
                 est_rows: float = 0.0, binder: Optional[Binder] = None):
        self.child = child
        self.items = list(items)
        self.order_items = list(order_items)
        self.columns = list(columns)
        self.est_rows = est_rows
        # Star items need the runtime environment (provenance columns,
        # alias expansion), so they stay interpreted; everything else
        # compiles once.
        self._item_fns = [
            None if isinstance(item.expr, Star)
            else compile_expr(item.expr, binder) for item in self.items]
        self._order_fns = [compile_expr(o.expr, binder)
                           for o in self.order_items]

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        row_ctx = rt.ctx.row_context()
        for env in self.child.rows(rt):
            row_ctx.env = env
            output: List[Any] = []
            for item, fn in zip(self.items, self._item_fns):
                if fn is None:
                    output.extend(_expand_star(item.expr, env, rt))
                else:
                    output.append(fn(row_ctx))
            order_keys = tuple(fn(row_ctx) for fn in self._order_fns)
            yield (order_keys, tuple(output))

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        self.est_rows = self.child.est_rows
        self.est_cost = self.child.est_cost + self.child.est_rows

    def describe(self) -> str:
        return f"Project ({', '.join(self.columns)})"


def _expand_star(star: Star, env: Env, rt: Runtime) -> List[Any]:
    out: List[Any] = []
    aliases = [star.table] if star.table else sorted(env)
    for alias in aliases:
        if alias not in env:
            raise ExecutionError(f"unknown alias {alias!r} for '*'")
        cols = rt.alias_columns.get(alias)
        names = list(cols) if cols else sorted(env[alias])
        if rt.tx.provenance:
            # Provenance pseudo-columns ride along, in the same fixed
            # order the output columns advertise them.
            names.extend(c for c in PROVENANCE_COLUMNS if c not in names)
        for name in names:
            out.append(env[alias].get(name))
    return out


class Sort(PlanNode):
    """ORDER BY over decorated ``(order_keys, output)`` pairs;
    NULLS LAST, stable.  Under a Limit whose ``limit`` / ``offset`` are
    absent, literals or parameters (same value twice, no side effect) it
    keeps the first ``offset + limit`` by :func:`heapq.nsmallest`, which
    is ``sorted(...)[:k]`` (LIMIT 0 sorts all: the scans beneath must
    still run, and ``nsmallest(0, ...)`` never reads its input)."""

    def __init__(self, child: PlanNode, order_items: Sequence[OrderItem],
                 limit: Optional[Expr] = None, offset: Optional[Expr] = None):
        self.child = child
        self.order_items = list(order_items)
        self.est_rows = child.est_rows
        cheap = all(expr is None or type(expr) in (Literal, Param)
                    for expr in (limit, offset))
        self._keep = (limit, offset) if cheap and limit is not None \
            else None

    def rows(self, rt: Runtime) -> List[Tuple[Tuple, Tuple]]:
        order_items = self.order_items

        def cmp_rows(a, b):
            for spec, av, bv in zip(order_items, a[0], b[0]):
                if av is None and bv is None:
                    continue
                if av is None:
                    return 1   # NULLS LAST
                if bv is None:
                    return -1
                c = compare_values(av, bv)
                if c:
                    return c if spec.ascending else -c
            return 0

        key = functools.cmp_to_key(cmp_rows)
        if self._keep is not None:
            limit, offset = self._keep
            count = _row_count("LIMIT", limit, rt.ctx)
            if count:   # nsmallest(0, ...) would never run the scans
                count += _row_count("OFFSET", offset, rt.ctx) or 0
                return heapq.nsmallest(count, self.child.rows(rt), key=key)
        return sorted(self.child.rows(rt), key=key)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        rows = self.child.est_rows
        self.est_rows = rows
        self.est_cost = self.child.est_cost + rows * _l2(rows)

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr_sql(o.expr)} {'ASC' if o.ascending else 'DESC'}"
            for o in self.order_items)
        return f"Sort ({keys})"


class Distinct(PlanNode):
    """SELECT DISTINCT over decorated pairs: dedup on the output row,
    with the ``=`` comparator's notion of equal (:func:`bucket_key`)."""

    def __init__(self, child: PlanNode):
        self.child = child
        self.est_rows = child.est_rows

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        seen = set()
        for keys, row in self.child.rows(rt):
            key = bucket_key(row)
            if key not in seen:
                seen.add(key)
                yield (keys, row)

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        self.est_rows = self.child.est_rows
        self.est_cost = self.child.est_cost + self.child.est_rows

    def describe(self) -> str:
        return "Distinct"


def _row_count(clause: str, expr: Optional[Expr],
               ctx: EvalContext) -> Optional[int]:
    """Value of a LIMIT / OFFSET expression: a non-negative integer, or
    None when absent or NULL."""
    if expr is None:
        return None
    value = const_value(expr, ctx)
    if value is None:
        return None
    if type(value) is not int:
        raise ExecutionError(
            f"{clause} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ExecutionError(f"{clause} must not be negative")
    return value


class Limit(PlanNode):
    """LIMIT/OFFSET.

    The child is drained completely before truncating: scans and
    nested-loop probes have SSI side effects (SIREAD recording, ACL
    checks, the EO missing-index abort, window checks) that must happen
    exactly as they would without the LIMIT — ``SELECT ... LIMIT 0``
    still performs every read the predicate describes.
    """

    def __init__(self, child: PlanNode, limit: Optional[Expr],
                 offset: Optional[Expr]):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.est_rows = child.est_rows

    def rows(self, rt: Runtime) -> List[Tuple[Tuple, Tuple]]:
        start, stop = self._slice_bounds(rt)
        return list(self.child.rows(rt))[start:stop]

    def children(self) -> List[PlanNode]:
        return [self.child]

    def recost(self, db) -> None:
        self.est_rows = self.child.est_rows
        self.est_cost = self.child.est_cost

    def _slice_bounds(self, rt: Runtime) -> Tuple[int, Optional[int]]:
        start = _row_count("OFFSET", self.offset, rt.ctx) or 0
        count = _row_count("LIMIT", self.limit, rt.ctx)
        return start, None if count is None else start + count

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit={expr_sql(self.limit)}")
        if self.offset is not None:
            parts.append(f"offset={expr_sql(self.offset)}")
        return f"Limit ({', '.join(parts)})"


# ---------------------------------------------------------------------------
# Index-order streaming: the ordered scan and the streaming Limit over it
# ---------------------------------------------------------------------------

class IndexOrderScan(SeqScan):
    """Scan that emits rows in *index order* instead of content order —
    the source of a :class:`StreamingLimit`, read through ``rows`` only.

    The candidate versions come from walking an index whose leading
    column is ``order_column`` (a range walk when the execution-time
    bounds constrain that column, the whole index otherwise), so the
    output is ordered by that column without any O(n·log n) sort.  Two
    determinism obligations remain:

    * physical index order is NOT node-deterministic for *equal* keys
      (entries tie-break on version ids, which differ across nodes —
      aborted executions burn ids), so rows within an equal-key run are
      content-sorted before they are emitted: key-major, content-minor
      order is identical on every node;
    * the SSI side effects — the predicate read, the phantom/stale
      window checks over every candidate, and the EO missing-index
      abort — happen eagerly in :meth:`prepare`, *before* the first row
      is consumed, so a streaming Limit that stops early (or consumes
      nothing) still performs them exactly once.  The predicate read
      covers the whole scanned range, rows past the limit included (see
      docs/sql_engine.md, "Streaming and SSI").
    """

    def __init__(self, table: str, alias: str, sargs: Sequence[Sarg],
                 index_name: str, order_column: str,
                 descending: bool = False,
                 conditions: Sequence[Expr] = (),
                 cost_sig: CostSig = (0, False, False, ())):
        super().__init__(table, alias, sargs)
        self.index_name = index_name
        self.order_column = order_column
        self.descending = descending
        self.conditions = list(conditions)
        self.cost_sig = cost_sig

    # -- preparation (SSI side effects happen here, exactly once) --------

    def prepare(self, rt: Runtime):
        if rt.prepared_scans is None:
            rt.prepared_scans = {}
        state = rt.prepared_scans.get(id(self))
        if state is not None:
            return state
        index = rt.db.catalog.heap_of(self.table).indexes.get(
            self.index_name)
        if index is None or index.columns[0] != self.order_column:
            raise ExecutionError(
                f"index {self.index_name!r} no longer orders "
                f"{self.table}.{self.order_column} (stale plan)")
        # Only bounds on the leading (order) column narrow the walk.
        bounds = self.bounds(rt)
        n_eq, has_range, _, _ = ordered_scan_sig(bounds, self.order_column)
        read, snapshot, own_xid = scan_reader(rt, self.table, index,
                                              key_order=True)
        state = (read(key_range(rt.db.catalog.schema_of(self.table),
                                (self.order_column,), n_eq, has_range,
                                bounds)), snapshot, own_xid)
        rt.prepared_scans[id(self)] = state
        return state

    # -- ordered iteration ------------------------------------------------

    def rows(self, rt: Runtime) -> Iterator[Env]:
        """Rows in (key, content) order: each run of equal index keys
        content-sorted; visibility runs per candidate as the consumer
        advances."""
        candidates, snapshot, own_xid = self.prepare(rt)
        statuses = rt.db.statuses
        alias, column = self.alias, self.order_column
        walk = reversed(candidates) if self.descending else candidates
        visible = (version.values for version in walk
                   if visible_versions((version,), snapshot, statuses,
                                       own_xid))
        for _, run in groupby(visible, key=lambda values:
                              normalize_key_part(values.get(column))):
            for values in sorted(run, key=row_content_key):
                yield {alias: values}

    def recost(self, db) -> None:
        # Index walk + matched rows: the output is never content-sorted
        # as a whole, only within equal-key runs.
        self.est_rows, self.est_cost = scan_cost(
            db, self.table, self.cost_sig, ordered=False)

    def describe(self) -> str:
        direction = "desc" if self.descending else "asc"
        conds = "; ".join(expr_sql(c) for c in self.conditions)
        cond_note = f" ({conds})" if conds else ""
        return (f"IndexOrderScan {_scan_target(self.table, self.alias)} "
                f"using {self.index_name}{cond_note} "
                f"(order by {self.order_column} {direction})")


class StreamingLimit(Limit):
    """LIMIT/OFFSET over an index-order pipeline.

    Unlike :class:`Limit`, the child is consumed lazily and iteration
    stops at the slice boundary — the point of the index-order pipeline
    is to not materialize (or sort) rows past the LIMIT.  The SSI
    obligations a draining Limit met implicitly are met explicitly
    instead: :meth:`IndexOrderScan.prepare` records the predicate read
    and runs the candidate window checks before the first row is
    consumed, even for ``LIMIT 0``.  Rows past the slice are never
    read, but the predicate read covers them, so SSI conflict detection
    stays conservative.
    """

    def __init__(self, child: PlanNode, limit: Optional[Expr],
                 offset: Optional[Expr], scan: IndexOrderScan):
        super().__init__(child, limit, offset)
        self.scan = scan

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        start, stop = self._slice_bounds(rt)
        self.scan.prepare(rt)   # SSI side effects even when stop == 0
        yield from islice(self.child.rows(rt), start, stop)

    def describe(self) -> str:
        parts = ["streaming"]
        if self.limit is not None:
            parts.append(f"limit={expr_sql(self.limit)}")
        if self.offset is not None:
            parts.append(f"offset={expr_sql(self.offset)}")
        return f"Limit ({', '.join(parts)})"
