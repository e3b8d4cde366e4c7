"""Binder + logical→physical planner.

Stage 1 (**bind**): resolve every table reference against the catalog and
build the alias→columns map the rest of planning (and ``*`` expansion)
uses.  ORDER BY references to select-list aliases are resolved here into a
side list of effective order items — the parsed AST is never mutated, so a
cached statement (stored procedures re-execute the same tree) can't see a
corrupted ORDER BY.

Stage 2 (**physical planning**): pick access paths and join strategies
from the *snapshot-anchored* statistics in :mod:`repro.sql.stats`
(committed row counts and distinct-key counts pinned to the committed
block height — identical on every node at the same height, so cost-based
choices cannot diverge SIREAD sets across replicas):

* scans: WHERE is normalized once per scan (``plan.sargable``); the
  bounds of that list (evaluated against the statement's parameters /
  PL variables / outer row context) go through ``plan.index_signature``,
  the same function execution and plan-cache validation choose with, so
  index choice — and therefore the candidate set the phantom/stale
  window checks inspect — cannot differ between them;
* joins: the planner costs a :class:`HashJoin` (build the inner side
  once, probe per outer row) against an index-:class:`NestedLoopJoin`
  (dynamic per-row probes).  The decision is a pure function of
  (statement fingerprint, anchored statistics), and the plan cache keys
  on the stats anchor, so every node planning at one committed height
  picks the same plan.  Under ``tx.require_index`` (the
  execute-order-in-parallel flow) the pre-costing structural rules apply
  unchanged: a hash build whose scan no index can serve is never chosen —
  the nested-loop probes keep every predicate read index-backed,
  preserving the paper's section 4.3 rule — and the full-index walk of
  the streaming Limit is never planned;
* Limit-only pipelines (single table, ``ORDER BY <indexed column>
  LIMIT n``) stream through an :class:`IndexOrderScan` +
  :class:`StreamingLimit` instead of materialize-and-sort.

``EXPLAIN <stmt>`` renders the physical tree (:func:`render_plan`) with
per-operator ``cost~``/``rows~`` annotations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.analytics.operators import (
    AggSpec,
    ColumnarAggregate,
    ColumnarScan,
)
from repro.sql import functions
from repro.sql.ast_nodes import (
    BinaryOp, ColumnRef, Expr, FunctionCall, Join, Literal, OrderItem,
    Select, Star, SubqueryExpr, UnaryOp,
)
from repro.sql.catalog import value_class
from repro.sql.expressions import EvalContext, expr_fingerprint
from repro.sql.plan import (
    PROVENANCE_COLUMNS,
    CostSig,
    DynamicProbe,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    IndexOrderScan,
    IndexScan,
    Limit,
    NestedLoopJoin,
    OneRow,
    PlanNode,
    Project,
    Sarg,
    ScanSignature,
    SeqScan,
    Sort,
    StreamingLimit,
    bounds_of,
    column_of_alias,
    conjuncts,
    index_signature,
    is_constant,
    join_estimates,
    ordered_scan_sig,
    recost_plan,
    render_plan,
    sargable,
    sargs_of,
    without,
)
from repro.sql.plancache import ScanGuard

# Value classes (sql.catalog.value_class) in which values that compare
# equal are the same value: no 2 / 2.0, no 0.0 / -0.0, no NaN.
_EXACT_CLASSES = frozenset({"int", "text", "bool"})


class timed:
    """Context manager capturing a perf_counter interval."""

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.started
        return False


# ---------------------------------------------------------------------------
# Plan containers
# ---------------------------------------------------------------------------

@dataclass
class SelectPlan:
    """A planned SELECT: operator tree + binder output.

    The tree is a reusable *template*: operators hold compiled
    expressions and structural choices but no per-execution values
    (scan bounds derive from the live context), so the plan cache can
    hand the same instance to any number of executions.  ``guards``
    capture the structural access-path choices; the cache re-validates
    them before every reuse.
    """

    root: PlanNode
    columns: List[str]
    alias_columns: Dict[str, Sequence[str]] = field(default_factory=dict)
    guards: List[ScanGuard] = field(default_factory=list)
    # False when the scans were planned to ignore row order
    # (Planner._order_observable); the executor then repeats a failed
    # run in content order.
    ordered: bool = True

    def explain(self) -> List[str]:
        return render_plan(self.root)


class Planner:
    """Plans statements for one database + one transaction."""

    def __init__(self, db, tx):
        self.db = db
        self.tx = tx
        # One ScanGuard per statically planned scan (in planning order);
        # the plan cache replays these against each execution context.
        self.guards: List[ScanGuard] = []
        # Bounds extracted while planning, by scan-node id — handed to
        # the first execution so scans don't derive them again (cache hits
        # get the equivalent map from guard validation).
        self.scan_bounds: Dict[int, Dict[str, Dict[str, Any]]] = {}
        # Whether the scans being planned must emit content order;
        # plan_select clears it for statements whose results cannot
        # depend on row order (DML target scans always keep it).
        self.ordered = True

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def bind_select(self, stmt: Select) -> Dict[str, Sequence[str]]:
        """alias -> column names for every table the query references."""
        alias_columns: Dict[str, Sequence[str]] = {}
        if stmt.from_table is not None:
            refs = [stmt.from_table] + [j.table for j in stmt.joins]
            for ref in refs:
                schema = self.db.catalog.schema_of(ref.name)
                alias_columns[ref.alias] = schema.column_names()
        return alias_columns

    def effective_order_items(
            self, stmt: Select,
            alias_columns: Dict[str, Sequence[str]]) -> List[OrderItem]:
        """ORDER BY may reference select-list aliases (``SELECT sum(v) AS
        total ... ORDER BY total``); resolve those refs to the aliased
        expression *without mutating the parsed tree*.  Real columns
        shadow aliases."""
        aliases = {item.alias: item.expr for item in stmt.items
                   if item.alias is not None}
        known_columns = {col for cols in alias_columns.values()
                         for col in cols}
        out: List[OrderItem] = []
        for order in stmt.order_by:
            expr = order.expr
            if isinstance(expr, ColumnRef) and expr.table is None \
                    and expr.name in aliases \
                    and expr.name not in known_columns:
                out.append(OrderItem(expr=aliases[expr.name],
                                     ascending=order.ascending))
            else:
                out.append(order)
        return out

    def collect_aggregates(self, stmt: Select,
                           order_items: Sequence[OrderItem]
                           ) -> List[FunctionCall]:
        found: List[FunctionCall] = []
        seen: Set[str] = set()

        def visit(expr: Optional[Expr]):
            if expr is None:
                return
            for node in expr.walk():
                if isinstance(node, FunctionCall) and \
                        node.name in functions.AGGREGATE_NAMES:
                    key = expr_fingerprint(node)
                    if key not in seen:
                        seen.add(key)
                        found.append(node)

        for item in stmt.items:
            visit(item.expr)
        visit(stmt.having)
        for order in order_items:
            visit(order.expr)
        return found

    def output_columns(self, stmt: Select,
                       alias_columns: Dict[str, Sequence[str]]) -> List[str]:
        columns: List[str] = []
        for item in stmt.items:
            if isinstance(item.expr, Star):
                aliases = ([item.expr.table] if item.expr.table
                           else sorted(alias_columns))
                for alias in aliases:
                    cols = alias_columns.get(alias, [])
                    columns.extend(cols)
                    if self.tx.provenance:
                        columns.extend(
                            c for c in PROVENANCE_COLUMNS if c not in cols)
            elif item.alias:
                columns.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                columns.append(item.expr.name)
            elif isinstance(item.expr, FunctionCall):
                columns.append(item.expr.name)
            else:
                columns.append(f"column{len(columns) + 1}")
        return columns

    # ------------------------------------------------------------------
    # Scan planning
    # ------------------------------------------------------------------

    def _columnar_routing(self, ctx: EvalContext) -> bool:
        """True when this statement executes at a pinned AS OF height, so
        the node's columnar replica serves its scans."""
        return ctx.as_of_height is not None and not self.tx.provenance

    def _register(self, scan: SeqScan,
                  bounds: Dict[str, Dict[str, Any]],
                  signature: ScanSignature,
                  columnar: bool = False) -> SeqScan:
        """The step every statically planned scan ends with: record the
        :class:`ScanGuard` the plan cache replays (the structural index
        choice under the scan's own sargs), hand the plan-time bounds to
        the first execution, and cost the node."""
        self.guards.append(ScanGuard(scan.table, scan.sargs, signature,
                                     node=scan, columnar=columnar))
        self.scan_bounds[id(scan)] = bounds
        scan.recost(self.db)
        return scan

    def _plan_columnar_scan(self, table: str, alias: str,
                            sargs: Sequence[Sarg],
                            ctx: EvalContext) -> ColumnarScan:
        """Columnar access path for an AS OF scan.  The guard records no
        index signature (the store has none to validate) but still
        threads the bounds to execution for zone-map pruning."""
        return self._register(
            ColumnarScan(table, alias, sargs, ordered=self.ordered),
            bounds_of(sargs, ctx), None, columnar=True)

    def plan_scan(self, table: str, alias: str, where: Optional[Expr],
                  ctx: EvalContext,
                  alias_columns: Optional[Dict[str, Sequence[str]]] = None
                  ) -> SeqScan:
        """Access path for one table: IndexScan when the sargable bounds
        (resolved against ``ctx``) are served by an index, SeqScan
        otherwise.  WHERE is normalized here, once; the node keeps the
        value-free :class:`Sarg` list (templates carry no per-execution
        values), execution derives the bounds from the live context and
        re-runs the same deterministic index choice over them.

        Statements pinned to an AS OF height route to the columnar
        replica instead (:class:`ColumnarScan`) — reads below the
        committed height have no SSI obligations, so the
        index-backed-predicate rules don't apply there."""
        if alias_columns is None:
            schema = self.db.catalog.schema_of(table)
            alias_columns = {alias: schema.column_names()}
        sargs = sargs_of(where, alias, alias_columns)
        if self._columnar_routing(ctx):
            return self._plan_columnar_scan(table, alias, sargs, ctx)
        heap = self.db.catalog.heap_of(table)
        sources: Dict[str, List[Expr]] = {}
        bounds = bounds_of(sargs, ctx, sources)
        signature = index_signature(heap, bounds)
        if signature is None:
            scan: SeqScan = SeqScan(table, alias, sargs,
                                    ordered=self.ordered)
        else:
            name, n_eq, has_range = signature
            index = heap.indexes[name]
            conditions, cost_sig = self._index_path(index, n_eq,
                                                    has_range, sources)
            scan = IndexScan(
                table, alias, sargs, name, conditions, cost_sig,
                ordered=self.ordered,
                exact=self._exact_conjuncts(table, index.columns[:n_eq],
                                            sources, alias_columns))
        return self._register(scan, bounds, signature)

    @staticmethod
    def _index_path(index, n_eq: int, has_range: bool,
                    sources: Dict[str, List[Expr]]
                    ) -> Tuple[List[Expr], CostSig]:
        """(EXPLAIN conditions, cost signature) of an index range over
        ``n_eq`` equality columns and, with ``has_range``, the next one:
        the conjuncts that bounded those columns, and the structural
        shape estimates re-derive from."""
        unique_covered = index.unique and n_eq == len(index.columns)
        return (Planner._conditions(sources,
                                    index.columns[:n_eq + has_range]),
                (n_eq, has_range, unique_covered,
                 tuple(index.columns[:n_eq])))

    @staticmethod
    def _conditions(sources: Dict[str, List[Expr]],
                    columns: Sequence[str]) -> List[Expr]:
        """The conjuncts that bounded ``columns``, each once."""
        conditions: List[Expr] = []
        for col in columns:
            for conj in sources.get(col, []):
                if conj not in conditions:
                    conditions.append(conj)
        return conditions

    def _exact_conjuncts(self, table: str, eq_columns: Sequence[str],
                         sources: Dict[str, List[Expr]],
                         alias_columns: Dict[str, Sequence[str]]
                         ) -> List[Expr]:
        """The conjuncts an index's equality prefix enforces exactly:
        every row the range returns satisfies them, and evaluating them
        on those rows cannot raise.  That holds for a ``column = value``
        conjunct that is the only source of its column's bound, on a
        column whose declared type keeps one exactly-comparable Python
        class in the index key (int, text, bool): an equal key is then
        an ``=`` match (a Decimal bound on an INT column keys exactly,
        ``plan.key_range``), and a value of another rank matches no key.
        FLOAT (NaN), NUMERIC (keys go through float) and system tables
        (values are not coerced) stay with the Filter, and so does an
        unqualified name two joined tables share (the Filter is what
        reports the ambiguity)."""
        schema = self.db.catalog.schema_of(table)
        if schema.system:
            return []
        exact: List[Expr] = []
        for col in eq_columns:
            found = sources.get(col, [])
            if len(found) != 1 or not isinstance(found[0], BinaryOp) \
                    or found[0].op != "=":
                continue
            if value_class(schema.column(col).type_name) \
                    not in _EXACT_CLASSES:
                continue
            conj = found[0]
            shared = sum(col in cols for cols in alias_columns.values()) > 1
            if shared and any(isinstance(side, ColumnRef)
                              and side.name == col and side.table is None
                              for side in (conj.left, conj.right)):
                continue
            exact.append(conj)
        return exact

    def _plan_index_order_scan(self, table: str, alias: str,
                               sargs: Sequence[Sarg], ctx: EvalContext,
                               index_name: str, order_column: str,
                               descending: bool = False) -> IndexOrderScan:
        """An :class:`IndexOrderScan` over ``index_name`` (whose leading
        column is ``order_column``), with the standard ScanGuard so the
        plan cache revalidates structure and threads bounds.  Bounds on
        the order column narrow the index walk; everything else is left
        to the Filter above."""
        sources: Dict[str, List[Expr]] = {}
        bounds = bounds_of(sargs, ctx, sources)
        scan = IndexOrderScan(
            table, alias, sargs, index_name, order_column,
            descending=descending,
            conditions=self._conditions(sources, [order_column]),
            cost_sig=ordered_scan_sig(bounds, order_column))
        return self._register(
            scan, bounds,
            index_signature(self.db.catalog.heap_of(table), bounds))

    def _order_index_for(self, table: str,
                         column: str) -> Optional[str]:
        """The index that orders ``table`` by ``column``: smallest name
        among indexes whose leading column is ``column`` (name order is
        catalog-deterministic — replicas run the same DDL)."""
        heap = self.db.catalog.heap_of(table)
        names = sorted(name for name, index in heap.indexes.items()
                       if index.columns and index.columns[0] == column)
        return names[0] if names else None

    # ------------------------------------------------------------------
    # Join planning
    # ------------------------------------------------------------------

    def _plan_probe(self, join: Join, sargs: Sequence[Sarg],
                    alias_columns: Dict[str, Sequence[str]],
                    tables: Dict[str, str]) -> DynamicProbe:
        """Structural dry-run of the per-row bound derivation: which
        index would a nested-loop probe use, given that outer-row columns
        become constants at probe time?  The bound *kinds* of the probe's
        sargs go through the same :func:`index_signature` execution
        uses, so predicted and executed index choice cannot diverge.
        The join may skip the prefix's exact conjuncts whose value side
        is statically exact too (int, text or bool; not NUMERIC)."""
        heap = self.db.catalog.heap_of(join.table.name)
        sources: Dict[str, List[Expr]] = {}
        signature = index_signature(heap, bounds_of(sargs, None, sources))
        name, conditions, cost_sig, exact = None, [], None, []
        if signature is not None:
            name, n_eq, has_range = signature
            index = heap.indexes[name]
            conditions, cost_sig = self._index_path(
                index, n_eq, has_range, sources)
            value_of = {id(sarg.source): sarg.values[0] for sarg in sargs}
            exact = [conj for conj in self._exact_conjuncts(
                         join.table.name, index.columns[:n_eq], sources,
                         alias_columns)
                     if self._static_class(value_of[id(conj)], alias_columns,
                                           tables) in _EXACT_CLASSES]
        probe = DynamicProbe(join.table.name, join.table.alias, sargs,
                             name, conditions, cost_sig,
                             ordered=self.ordered, exact=exact)
        probe.recost(self.db)
        return probe

    def _binder(self, alias_columns: Dict[str, Sequence[str]]):
        """Compile-time column pre-resolution input: disabled under
        provenance sessions, whose pseudo-columns extend row environments
        beyond the schema the binder knows about."""
        return None if self.tx.provenance else alias_columns

    def _cost_based(self) -> bool:
        """Cost-based strategy choice applies outside the EO flow, where
        the section 4.3 structural rules stay authoritative.  The flag is
        part of the plan-cache key, so the mode can never flip between a
        miss and a hit."""
        return not self.tx.require_index

    def plan_join(self, outer: PlanNode, join: Join, where: Optional[Expr],
                  ctx: EvalContext, planned_aliases: Set[str],
                  alias_columns: Dict[str, Sequence[str]],
                  tables: Dict[str, str],
                  filtered: bool = False) -> PlanNode:
        """Join strategy for one joined table.

        ``filtered`` says a residual Filter will sit above the joins
        even if the FROM table's scan survives; every candidate is then
        charged one predicate evaluation per row it emits.

        Determinism: every cost input is snapshot-anchored (sql/stats.py)
        and every structural input is part of the plan-cache key, so the
        chosen strategy is a pure function of (statement fingerprint,
        anchored statistics) — nodes at the same committed height always
        agree, and a cache hit can never produce a different plan than a
        fresh planning pass.
        """
        # Conditions usable for the inner access path may come from the
        # ON clause and from the WHERE clause.
        combined = join.on
        if where is not None:
            combined = (where if combined is None
                        else BinaryOp("AND", combined, where))
        alias = join.table.alias
        schema = self.db.catalog.schema_of(join.table.name)

        # The probe sees the already-joined aliases as constants (its
        # outer row supplies them).  An equi-join key is an ``=`` sarg
        # whose value needs that outer row: a value constant without it
        # is a build-side bound, not a key.
        probe = self._plan_probe(join, sargs_of(
            combined, alias, alias_columns, planned_aliases), alias_columns,
            tables)
        keys = [(sarg.column, sarg.values[0]) for sarg in probe.sargs
                if sarg.kind == "cmp" and sarg.op == "="
                and not is_constant(sarg.values[0], alias_columns)]
        unique_covered = probe.cost_sig is not None and probe.cost_sig[2]

        binder = self._binder(alias_columns)
        outer_est = max(outer.est_rows, 1.0)
        nlj_cost = outer.est_cost + outer_est * max(probe.est_cost, 1.0)

        build: Optional[SeqScan] = None
        if keys:
            # The build side is scanned once, so only conjuncts constant
            # at plan time (no outer-row references) can bound it.
            build = self.plan_scan(join.table.name, alias, combined, ctx,
                                   alias_columns)

        if not self._cost_based():
            # Pre-costing structural rules (also the EO section 4.3
            # flow): hash when an equi-key exists, except index-less
            # builds under require_index and point-lookup shapes.
            hash_allowed = build is not None
            if hash_allowed:
                if self.tx.require_index and not schema.system \
                        and not self.tx.provenance \
                        and not isinstance(build, IndexScan):
                    hash_allowed = False
                elif unique_covered or (isinstance(outer, IndexScan)
                                        and outer.unique_covered):
                    hash_allowed = False
            if hash_allowed:
                node: PlanNode = HashJoin(outer, join, build, keys,
                                          binder=binder)
            else:
                node = NestedLoopJoin(outer, join, probe, binder=binder)
            node.recost(self.db)
            return node

        # ---- cost-based choice -----------------------------------------
        nlj_rows = outer_est * max(probe.est_rows, 1.0)
        candidates: List[Tuple[float, int, str]] = [
            (nlj_cost + (nlj_rows if filtered else 0.0), 1, "nlj")]
        if build is not None:
            hash_rows, hash_cost = join_estimates(
                self.db, outer, build, join, tuple(c for c, _ in keys))
            candidates.append(
                (hash_cost + (hash_rows if filtered else 0.0), 0, "hash"))

        _, _, choice = min(candidates)
        if choice == "hash":
            node = HashJoin(outer, join, build, keys, binder=binder)
        else:
            node = NestedLoopJoin(outer, join, probe, binder=binder)
        node.recost(self.db)
        return node

    # ------------------------------------------------------------------
    # Order observability (docs/sql_engine.md, "Row order: when it is
    # observable")
    # ------------------------------------------------------------------

    @staticmethod
    def _column_of(expr: Expr, alias_columns: Dict[str, Sequence[str]]
                   ) -> Optional[Tuple[str, str]]:
        """The (alias, column) a plain reference names among this
        statement's tables; None for anything else, an ambiguous name
        included."""
        if not isinstance(expr, ColumnRef):
            return None
        if expr.table is not None:
            owners = [expr.table] if expr.name in \
                alias_columns.get(expr.table, ()) else []
        else:
            owners = [alias for alias, cols in alias_columns.items()
                      if expr.name in cols]
        return (owners[0], expr.name) if len(owners) == 1 else None

    def _static_class(self, expr: Expr,
                      alias_columns: Dict[str, Sequence[str]],
                      tables: Dict[str, str]) -> Optional[str]:
        """The one value class (sql.catalog.value_class) every non-NULL
        value of ``expr`` has, when declared types show it: columns of
        user tables, literals, and ``+ - *`` over numeric ones (which
        cannot raise).  None means "assume nothing"."""
        if isinstance(expr, Literal):
            value = expr.value
            for py_type, name in ((bool, "bool"), (int, "int"),
                                  (float, "float"), (str, "text")):
                if isinstance(value, py_type):
                    return name
            return None
        if isinstance(expr, ColumnRef):
            owner = self._column_of(expr, alias_columns)
            if owner is None:
                return None
            schema = self.db.catalog.schema_of(tables[owner[0]])
            if schema.system:       # written without coerce_value
                return None
            return value_class(schema.column(owner[1]).type_name)
        if isinstance(expr, UnaryOp) and expr.op == "-":
            operand = self._static_class(expr.operand, alias_columns,
                                         tables)
            return operand if operand in ("int", "float") else None
        if isinstance(expr, BinaryOp) and expr.op in ("+", "-", "*"):
            sides = {self._static_class(side, alias_columns, tables)
                     for side in (expr.left, expr.right)}
            if sides <= {"int", "float"}:
                return "float" if "float" in sides else "int"
        return None

    def _group_invariant(self, expr: Expr,
                         group_cols: Sequence[Tuple[str, str]],
                         alias_columns: Dict[str, Sequence[str]]) -> bool:
        """True when ``expr`` has the same value on every row of a
        group: outside its aggregate calls it reads this statement's
        tables through group-key columns only (a group's non-aggregate
        expressions are evaluated on the group's first row)."""
        if isinstance(expr, FunctionCall) and \
                expr.name in functions.AGGREGATE_NAMES:
            return True
        if isinstance(expr, (Star, SubqueryExpr)):
            return False
        if isinstance(expr, ColumnRef):
            owner = self._column_of(expr, alias_columns)
            if owner is not None:
                return owner in group_cols
            # A variable or an enclosing query's column is row-free; a
            # name this statement's tables share is an error either way.
            return expr.table not in alias_columns and not any(
                expr.name in cols for cols in alias_columns.values())
        return all(self._group_invariant(child, group_cols, alias_columns)
                   for child in expr.children())

    def _order_observable(self, stmt: Select,
                          alias_columns: Dict[str, Sequence[str]],
                          order_items: Sequence[OrderItem],
                          aggregates: Sequence[FunctionCall]) -> bool:
        """Can the row order of this statement's scans reach its result?

        It cannot when everything the scans feed is a HashAggregate
        whose folds and whose output order are both order-free:

        * every aggregate is ``count`` (DISTINCT only over a typed
          argument), or non-DISTINCT ``sum``/``avg`` over a statically
          int-or-float argument (``fold_sum`` is exact for either), or
          ``min``/``max`` over a class where equal means identical;
        * group keys are plain columns of such a class, every other
          expression of a group reads only its keys and aggregates, and
          an ORDER BY naming every group key orders the groups totally;
          a global aggregate emits one row.

        A pure function of (statement, catalog, provenance flag), all
        of them plan-cache key components.  Anything not shown here to
        be order-free keeps content order: projections, DML scans,
        provenance sessions, ``SELECT … INTO`` without an aggregate."""
        if self.tx.provenance or stmt.from_table is None:
            return True
        if not aggregates and not stmt.group_by:
            return True
        tables = {ref.alias: ref.name for ref in
                  [stmt.from_table] + [join.table for join in stmt.joins]}
        for call in aggregates:
            if call.star:
                continue
            if len(call.args) != 1:
                return True
            arg = self._static_class(call.args[0], alias_columns, tables)
            if call.name == "count":
                if call.distinct and arg is None:
                    return True
            elif call.name in ("sum", "avg"):
                if call.distinct or arg not in ("int", "float"):
                    return True
            elif arg not in _EXACT_CLASSES:
                return True
        group_cols = []
        for group in stmt.group_by:
            if self._static_class(group, alias_columns, tables) \
                    not in _EXACT_CLASSES:
                return True
            group_cols.append(self._column_of(group, alias_columns))
        if None in group_cols:      # a key that is not a plain column
            return True
        grouped = [item.expr for item in stmt.items] + \
            [order.expr for order in order_items]
        if stmt.having is not None:
            grouped.append(stmt.having)
        if not all(self._group_invariant(expr, group_cols, alias_columns)
                   for expr in grouped):
            return True
        ordered_cols = {self._column_of(order.expr, alias_columns)
                        for order in order_items}
        return not set(group_cols) <= ordered_cols

    # ------------------------------------------------------------------
    # SELECT planning
    # ------------------------------------------------------------------

    def plan_select(self, stmt: Select, ctx: EvalContext) -> SelectPlan:
        alias_columns = self.bind_select(stmt)
        order_items = self.effective_order_items(stmt, alias_columns)
        aggregates = self.collect_aggregates(stmt, order_items)
        columns = self.output_columns(stmt, alias_columns)
        self.ordered = self._order_observable(stmt, alias_columns,
                                              order_items, aggregates)

        if self._columnar_routing(ctx) and stmt.from_table is not None:
            fast = self._try_columnar_aggregate(
                stmt, ctx, alias_columns, order_items, aggregates)
            if fast is not None:
                top: PlanNode = fast
                if stmt.order_by:
                    top = Sort(top, order_items, stmt.limit, stmt.offset)
                if stmt.limit is not None or stmt.offset is not None:
                    top = Limit(top, stmt.limit, stmt.offset)
                return self._finish(top, columns, alias_columns)

        stream = self._try_streaming_limit(stmt, ctx, alias_columns,
                                           order_items, aggregates,
                                           columns)
        if stream is not None:
            return stream

        if stmt.from_table is None:
            source: PlanNode = OneRow()
        else:
            source = self.plan_scan(stmt.from_table.name,
                                    stmt.from_table.alias, stmt.where, ctx,
                                    alias_columns)
            planned = {stmt.from_table.alias}
            filtered = self._residual(stmt.where, source) is not None
            tables = {ref.alias: ref.name for ref in
                      [stmt.from_table] + [join.table for join in stmt.joins]}
            for join in stmt.joins:
                source = self.plan_join(
                    source, join, stmt.where, ctx, planned, alias_columns,
                    tables, filtered=filtered)
                planned.add(join.table.alias)
        binder = self._binder(alias_columns)
        residual = self._residual(stmt.where, source)
        if residual is not None:
            source = Filter(source, residual, binder=binder)

        if stmt.group_by or aggregates:
            top: PlanNode = HashAggregate(
                source, stmt.group_by, aggregates, stmt.having, stmt.items,
                order_items, est_rows=source.est_rows, binder=binder)
        else:
            top = Project(source, stmt.items, order_items, columns,
                          est_rows=source.est_rows, binder=binder)
        if stmt.order_by:
            top = Sort(top, order_items,
                       *(() if stmt.distinct else (stmt.limit, stmt.offset)))
        if stmt.distinct:
            top = Distinct(top)
        if stmt.limit is not None or stmt.offset is not None:
            top = Limit(top, stmt.limit, stmt.offset)
        return self._finish(top, columns, alias_columns)

    @staticmethod
    def _residual(where: Optional[Expr], source: PlanNode
                  ) -> Optional[Expr]:
        """What is left of WHERE for the Filter above ``source``: the
        conjuncts the FROM table's IndexScan does not enforce exactly.
        Only that scan counts — every row of it reaches the Filter as
        it was read, whereas a joined table's rows may have been
        NULL-extended, and probe bounds are re-derived per outer row."""
        leaf = source
        while isinstance(leaf, (NestedLoopJoin, HashJoin)):
            leaf = leaf.outer
        return without(where, leaf.exact if type(leaf) is IndexScan else ())

    def _finish(self, top: PlanNode, columns: List[str],
                alias_columns: Dict[str, Sequence[str]]) -> SelectPlan:
        recost_plan(top, self.db)
        return SelectPlan(root=top, columns=columns,
                          alias_columns=alias_columns,
                          guards=self.guards, ordered=self.ordered)

    # ------------------------------------------------------------------
    # Streaming Limit pipelines (index-order scan, no materialize/sort)
    # ------------------------------------------------------------------

    #: Declared types whose index-key order provably matches the Sort
    #: comparator.  NUMERIC/DECIMAL is excluded: index keys normalize
    #: Decimals through float, which can collapse values the comparator
    #: distinguishes.
    _ORDER_SAFE_TYPES = frozenset({
        "INT", "INTEGER", "BIGINT", "SERIAL", "INT4", "INT8",
        "FLOAT", "DOUBLE", "REAL", "TIMESTAMP", "BOOLEAN",
        "TEXT", "VARCHAR", "CHAR",
    })

    def _try_streaming_limit(self, stmt: Select, ctx: EvalContext,
                             alias_columns: Dict[str, Sequence[str]],
                             order_items: Sequence[OrderItem],
                             aggregates: List[FunctionCall],
                             columns: List[str]) -> Optional[SelectPlan]:
        """``SELECT ... FROM t [WHERE ...] ORDER BY <indexed column>
        LIMIT n`` streams through an IndexOrderScan + StreamingLimit
        instead of materialize-and-sort, when the ordering column has an
        ordering index and index order provably equals the Sort order:
        the column's declared type is in ``_ORDER_SAFE_TYPES``, and it
        is NOT NULL or the order is descending.  Eligibility is purely
        structural, so every node (and cache hit) agrees."""
        if not self._cost_based():
            return None
        if stmt.from_table is None or stmt.joins:
            return None
        if aggregates or stmt.group_by or stmt.distinct:
            return None
        if stmt.limit is None or len(order_items) != 1:
            return None
        if self.tx.provenance or ctx.as_of_height is not None:
            return None
        item = order_items[0]
        if not isinstance(item.expr, ColumnRef):
            return None
        alias = stmt.from_table.alias
        table = stmt.from_table.name
        col = column_of_alias(item.expr, alias,
                              alias_columns.get(alias, ()))
        if col is None:
            return None
        schema = self.db.catalog.schema_of(table)
        column = schema.column(col)
        if column.type_name.upper() not in self._ORDER_SAFE_TYPES:
            return None
        # Ascending index order emits NULLs first, Sort puts them last —
        # a nullable column only streams descending (reversed walk ends
        # with NULLs, which is exactly NULLS LAST).
        if item.ascending and not column.not_null:
            return None
        index_name = self._order_index_for(table, col)
        if index_name is None:
            return None
        scan = self._plan_index_order_scan(
            table, alias, sargs_of(stmt.where, alias, alias_columns), ctx,
            index_name, col, descending=not item.ascending)
        binder = self._binder(alias_columns)
        source: PlanNode = scan
        if stmt.where is not None:
            source = Filter(source, stmt.where, binder=binder)
        top: PlanNode = Project(source, stmt.items, order_items, columns,
                                binder=binder)
        top = StreamingLimit(top, stmt.limit, stmt.offset, scan)
        return self._finish(top, columns, alias_columns)

    # ------------------------------------------------------------------
    # Columnar aggregate pushdown (AS OF fast path)
    # ------------------------------------------------------------------

    _VECTOR_NUMERIC_TYPES = frozenset({
        "INT", "INTEGER", "BIGINT", "SERIAL", "INT4", "INT8",
        "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL", "TIMESTAMP",
    })

    def _try_columnar_aggregate(self, stmt: Select, ctx: EvalContext,
                                alias_columns: Dict[str, Sequence[str]],
                                order_items: Sequence[OrderItem],
                                aggregates: List[FunctionCall]
                                ) -> Optional[ColumnarAggregate]:
        """Build a vectorized :class:`ColumnarAggregate` when the whole
        statement shape is covered, else None (the generic ColumnarScan
        pipeline handles it).  Covered means: single table, aggregates
        over plain columns (``sum``/``avg`` on numeric types only — the
        row store's string "sum" concatenates in content order, which a
        vector fold cannot reproduce), GROUP BY plain columns with an
        ORDER BY covering every group column (so output order is fully
        determined and node-independent), and a WHERE whose every
        conjunct is sargable with all its values constant (comparisons,
        BETWEEN, non-negated IN-lists, LIKE / NOT LIKE — a literal
        prefix also feeds the zone-map pruner).  No HAVING / DISTINCT /
        joins / subqueries."""
        if stmt.joins or stmt.distinct or stmt.having is not None:
            return None
        if not aggregates:
            return None
        alias = stmt.from_table.alias
        table = stmt.from_table.name
        inner_cols = alias_columns.get(alias, ())
        schema = self.db.catalog.schema_of(table)

        group_cols: List[str] = []
        for group in stmt.group_by:
            col = column_of_alias(group, alias, inner_cols)
            if col is None:
                return None
            group_cols.append(col)

        agg_specs: List[AggSpec] = []
        agg_index: Dict[str, int] = {}
        for call in aggregates:
            if call.distinct:
                return None
            if call.star:
                if call.name != "count":
                    return None
                spec = AggSpec(expr_fingerprint(call), "count", None,
                               star=True)
            else:
                if len(call.args) != 1:
                    return None
                col = column_of_alias(call.args[0], alias, inner_cols)
                if col is None:
                    return None
                if call.name in {"sum", "avg"} and \
                        schema.column(col).type_name.upper() not in \
                        self._VECTOR_NUMERIC_TYPES:
                    return None
                spec = AggSpec(expr_fingerprint(call), call.name, col)
            agg_index[spec.fingerprint] = len(agg_specs)
            agg_specs.append(spec)

        def spec_of(expr: Expr) -> Optional[Tuple[str, int]]:
            if isinstance(expr, FunctionCall):
                pos = agg_index.get(expr_fingerprint(expr))
                return None if pos is None else ("agg", pos)
            col = column_of_alias(expr, alias, inner_cols)
            if col is not None and col in group_cols:
                return ("group", group_cols.index(col))
            return None

        output_specs: List[Tuple[str, int]] = []
        for item in stmt.items:
            spec = spec_of(item.expr)
            if spec is None:
                return None
            output_specs.append(spec)

        order_specs: List[Tuple[str, int]] = []
        ordered_groups: Set[str] = set()
        for order in order_items:
            spec = spec_of(order.expr)
            if spec is None:
                return None
            if spec[0] == "group":
                ordered_groups.add(group_cols[spec[1]])
            order_specs.append(spec)
        if group_cols and set(group_cols) - ordered_groups:
            # Without a total order over the group keys the emission
            # order would leak physical ingest order — the row store
            # emits first-encounter-over-content order instead, and the
            # two must stay byte-identical.
            return None

        sargs: List[Sarg] = []
        if stmt.where is not None:
            for conj in conjuncts(stmt.where):
                sarg = sargable(conj, alias, alias_columns)
                if sarg is None or None in sarg.values:
                    return None     # a conjunct the vectors cannot test
                sargs.append(sarg)

        # The scan's sargs are the aggregate's vector predicates.
        scan = self._plan_columnar_scan(table, alias, sargs, ctx)
        return ColumnarAggregate(
            scan, group_cols, agg_specs, output_specs, order_specs,
            list(stmt.items),
            est_rows=scan.est_rows if group_cols else 1.0)
