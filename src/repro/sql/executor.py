"""SQL executor: statement orchestration over the plan-based engine.

Statements execute in three stages:

1. the binder/planner (:mod:`repro.sql.planner`) turns the parsed AST
   into a physical operator tree, choosing index access paths and join
   strategies from catalog statistics;
2. the operator tree (:mod:`repro.sql.plan`) runs Volcano-style; the
   scan operators own the SSI responsibilities (SIREAD recording, the
   execute-order-in-parallel missing-index abort, the section 3.4.1
   phantom/stale window checks);
3. this module drives DML side effects (constraint checks, version
   creation, ww bookkeeping) and DDL against the catalog.

``EXPLAIN <stmt>`` returns the rendered physical plan as a one-column
result, so plans are observable and testable end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    AccessDenied,
    BlindUpdateError,
    ConstraintViolation,
    ExecutionError,
)
if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.mvcc.database import Database

from repro.mvcc.transaction import (
    PredicateRead,
    TransactionContext,
    WriteSetEntry,
)
from repro.sql.ast_nodes import (
    CreateFunction, CreateIndex, CreateTable, Delete, DropFunction,
    DropTable, Explain, Insert, Literal, Select, Statement, Update,
)
from repro.sql.catalog import (
    ColumnDef,
    TableSchema,
    coerce_value,
)
from repro.sql.expressions import (
    EvalContext,
    compiled,
    compiled_predicate,
)
from repro.sql.plan import (
    PROVENANCE_COLUMNS,
    Runtime,
    deinstrument_plan,
    index_signature,
    instrument_plan,
    recost_plan,
    render_plan,
    row_content_key,
    scan_candidates,
    window_checks,
)
from repro.sql.plancache import PlanCache, PlanEntry
from repro.sql.planner import Planner, SelectPlan, timed
from repro.storage.index import normalize_key
from repro.storage.visibility import visible_versions

__all__ = [
    "AccessChecker", "Executor", "PROVENANCE_COLUMNS", "Result", "run_sql",
]


@dataclass
class Result:
    """Outcome of one statement."""

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple] = field(default_factory=list)
    rowcount: int = 0

    def scalar(self) -> Any:
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


def _referenced_tables(stmt: Statement) -> set:
    """Every table a statement would read or write, including tables
    inside subqueries (used by EXPLAIN's access check)."""
    from repro.sql.ast_nodes import Expr, SubqueryExpr

    out: set = set()

    def visit_expr(expr: Optional[Expr]) -> None:
        if expr is None:
            return
        for node in expr.walk():
            if isinstance(node, SubqueryExpr):
                visit_select(node.select)

    def visit_select(sel: Select) -> None:
        if sel.from_table is not None:
            out.add(sel.from_table.name)
        for join in sel.joins:
            out.add(join.table.name)
            visit_expr(join.on)
        for item in sel.items:
            visit_expr(item.expr)
        visit_expr(sel.where)
        visit_expr(sel.having)
        for expr in sel.group_by:
            visit_expr(expr)
        for order in sel.order_by:
            visit_expr(order.expr)
        visit_expr(sel.limit)
        visit_expr(sel.offset)

    if isinstance(stmt, Select):
        visit_select(stmt)
    elif isinstance(stmt, Update):
        out.add(stmt.table)
        visit_expr(stmt.where)
        for clause in stmt.sets:
            visit_expr(clause.value)
    elif isinstance(stmt, Delete):
        out.add(stmt.table)
        visit_expr(stmt.where)
    elif isinstance(stmt, Insert):
        out.add(stmt.table)
        if stmt.select is not None:
            visit_select(stmt.select)
        for row in stmt.rows:
            for expr in row:
                visit_expr(expr)
    return out


class AccessChecker:
    """Interface for table-level access control (see node.access_control)."""

    def check_read(self, username: str, table: str) -> None:  # pragma: no cover
        return

    def check_write(self, username: str, table: str) -> None:  # pragma: no cover
        return


class Executor:
    """Statement driver bound to one database + one transaction.

    ``default_as_of`` pins every SELECT of this executor to a block
    height (the session-level time-travel API: ``node.query(sql,
    as_of=h)``); an explicit ``AS OF`` clause on a statement overrides
    it."""

    def __init__(self, database: "Database", tx: TransactionContext,
                 acl: Optional[AccessChecker] = None,
                 default_as_of: Optional[int] = None):
        self.db = database
        self.tx = tx
        self.acl = acl
        self.default_as_of = default_as_of
        # Depth of nested statement execution: correlated subqueries run
        # through this executor mid-statement and must not count (or
        # double-bill their time) as standalone statements in the
        # database's per-statement histograms.
        self._stmt_depth = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def execute(self, stmt: Statement, params: Sequence[Any] = (),
                variables: Optional[Dict[str, Any]] = None) -> Result:
        self.tx.check_active()
        ctx = EvalContext(
            params=list(params), variables=variables or {},
            allow_nondeterministic=self.tx.allow_nondeterministic,
            subquery_fn=self._run_subquery)
        if isinstance(stmt, Select):
            return self._execute_select(stmt, ctx)
        if isinstance(stmt, Update):
            return self._execute_update(stmt, ctx)
        if isinstance(stmt, Delete):
            return self._execute_delete(stmt, ctx)
        if isinstance(stmt, Explain):
            return self._execute_explain(stmt, ctx)
        self._stmt_depth += 1   # INSERT ... SELECT is one statement
        try:
            with timed() as exec_t:
                result = self._execute_unplanned(stmt, ctx)
        finally:
            self._stmt_depth -= 1
        self.db.sql_exec_seconds.observe(exec_t.seconds)
        return result

    def _execute_unplanned(self, stmt: Statement, ctx: EvalContext
                           ) -> Result:
        """INSERT and DDL: statements with no plan of their own."""
        if isinstance(stmt, Insert):
            return self._execute_insert(stmt, ctx)
        if isinstance(stmt, CreateTable):
            return self._execute_create_table(stmt, ctx)
        if isinstance(stmt, CreateIndex):
            return self._execute_create_index(stmt)
        if isinstance(stmt, DropTable):
            self._check_write(stmt.name, ddl=True)
            self.db.catalog.drop_table(stmt.name, if_exists=stmt.if_exists)
            return Result()
        if isinstance(stmt, (CreateFunction, DropFunction)):
            raise ExecutionError(
                "CREATE/DROP FUNCTION must go through the deployment "
                "system contracts (section 3.7)")
        raise ExecutionError(
            f"unsupported statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    # Access control helpers
    # ------------------------------------------------------------------

    def _check_read(self, table: str) -> None:
        if self.acl is not None:
            self.acl.check_read(self.tx.username, table)

    def _check_write(self, table: str, ddl: bool = False) -> None:
        if self.tx.read_only:
            raise ExecutionError(
                "cannot write in a read-only transaction")
        if self.acl is not None:
            self.acl.check_write(self.tx.username, table)

    def _runtime(self, ctx: EvalContext,
                 alias_columns: Dict[str, Sequence[str]],
                 scan_bounds: Optional[Dict[int, Dict]] = None) -> Runtime:
        return Runtime(db=self.db, tx=self.tx, ctx=ctx,
                       alias_columns=alias_columns,
                       check_read=self._check_read,
                       scan_bounds=scan_bounds)

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def _run_subquery(self, select: Select, outer_ctx: EvalContext
                      ) -> List[Tuple]:
        sub_ctx = EvalContext(
            variables=outer_ctx.variables, params=outer_ctx.params,
            allow_nondeterministic=outer_ctx.allow_nondeterministic,
            subquery_fn=self._run_subquery, outer=outer_ctx,
            as_of_height=outer_ctx.as_of_height)
        self._stmt_depth += 1
        try:
            return self._execute_select(select, sub_ctx).rows
        finally:
            self._stmt_depth -= 1

    # ------------------------------------------------------------------
    # AS OF resolution (time travel)
    # ------------------------------------------------------------------

    def _apply_as_of(self, stmt: Select, ctx: EvalContext) -> None:
        """Resolve the statement's time-travel pin into
        ``ctx.as_of_height``.

        Precedence: an explicit ``AS OF`` clause wins; otherwise a pin
        inherited from the enclosing query (subqueries read at the same
        height); otherwise the executor's ``default_as_of``.  A pinned
        height must name immutable, still-retained state: read-only
        session, at or below the committed height, at or above the
        vacuum retention horizon."""
        clause = stmt.as_of
        if clause is None:
            if ctx.as_of_height is not None:
                return  # inherited from the outer query, already checked
            if self.default_as_of is None:
                return
            height: Any = self.default_as_of
            latest = False
        elif clause.latest:
            height = None
            latest = True
        else:
            height = compiled(clause.block)(ctx)
            latest = False

        if self.tx.provenance:
            raise ExecutionError(
                "AS OF cannot be combined with PROVENANCE (provenance "
                "sessions already see every committed version)")
        if not self.tx.read_only:
            raise ExecutionError(
                "AS OF queries require a read-only session: historical "
                "state is immutable and executes outside SSI")
        committed = self.db.committed_height
        if latest:
            height = committed
        if height is None:
            raise ExecutionError("AS OF BLOCK height must not be NULL")
        # Strict typing: a fractional height silently truncating (or a
        # string/boolean coercing) would read the *wrong* historical
        # state without any diagnostic.
        if isinstance(height, bool) or not isinstance(height, (int, float)):
            raise ExecutionError(
                f"AS OF BLOCK height must be an integer, got "
                f"{height!r}")
        if isinstance(height, float):
            if not height.is_integer():
                raise ExecutionError(
                    f"AS OF BLOCK height must be an integer, got "
                    f"{height!r}")
            height = int(height)
        if height < 0:
            raise ExecutionError(
                f"AS OF BLOCK height must not be negative, got {height}")
        if height > committed:
            raise ExecutionError(
                f"AS OF BLOCK {height} is above this node's committed "
                f"height {committed} (cannot read the future)")
        retained = getattr(self.db, "retained_height", 0)
        if height < retained:
            raise ExecutionError(
                f"AS OF BLOCK {height} precedes the vacuum retention "
                f"horizon {retained}: that history has been pruned")
        ctx.as_of_height = height

    def _plan_select_cached(self, stmt: Select, ctx: EvalContext
                            ) -> Tuple[SelectPlan, bool, Optional[Dict]]:
        """Fetch a guard-validated plan template from the statement
        cache, or plan and cache a fresh one.  Returns
        (plan, hit, bounds-by-scan-node from guard validation)."""
        self._apply_as_of(stmt, ctx)
        cache = self.db.plan_cache
        version = self.db.catalog.version_token
        key = PlanCache.key_for(
            stmt, ctx, self.tx, version,
            stats_anchor=self.db.stats.anchor)
        got = cache.get(key, self.db, ctx)
        if got is not None:
            entry, scan_bounds = got
            return entry.plan, True, scan_bounds
        planner = Planner(self.db, self.tx)
        plan = planner.plan_select(stmt, ctx)
        cache.store(key, PlanEntry(plan=plan, guards=plan.guards,
                                   catalog_version=version))
        return plan, False, planner.scan_bounds

    def _run_plan(self, plan: SelectPlan, ctx: EvalContext,
                  scan_bounds: Optional[Dict[int, Dict]],
                  probe_stats: Optional[Dict] = None) -> List[Tuple]:
        """Drain a SELECT plan into its output rows.

        A plan whose scans ignore row order (``plan.ordered`` False)
        returns what the content-ordered run would, but when rows
        differ in how they fail it can fail on another row first — and
        the message reaches the ledger.  So a failed run is repeated in
        content order, and that run's outcome is the statement's."""
        def drain(content_order: bool) -> List[Tuple]:
            rt = self._runtime(ctx, plan.alias_columns, scan_bounds)
            rt.probe_stats = probe_stats
            rt.content_order = content_order
            return [row for _, row in plan.root.rows(rt)]

        try:
            return drain(False)
        except Exception:
            if plan.ordered:
                raise
        return drain(True)

    def _execute_select(self, stmt: Select, ctx: EvalContext) -> Result:
        if stmt.provenance and not self.tx.provenance:
            raise AccessDenied(
                "PROVENANCE SELECT requires a provenance session")
        with timed() as plan_t:
            plan, cache_hit, scan_bounds = \
                self._plan_select_cached(stmt, ctx)
        with timed() as exec_t:
            output = self._run_plan(plan, ctx, scan_bounds)
        if self._stmt_depth == 0:
            self.db.sql_plan_seconds.observe(plan_t.seconds)
            self.db.sql_exec_seconds.observe(exec_t.seconds)
            threshold = getattr(self.db, "slow_query_threshold_ms", 0.0)
            if threshold and (plan_t.seconds + exec_t.seconds) * 1e3 \
                    >= threshold:
                # Structured slow-query log: observability-only (the
                # planner never reads it back), so wall-clock here
                # cannot perturb determinism.
                self.db.note_slow_query({
                    "kind": "select",
                    "plan": plan.root.describe(),
                    "plan_ms": round(plan_t.seconds * 1e3, 3),
                    "exec_ms": round(exec_t.seconds * 1e3, 3),
                    "rows": len(output),
                    "cache_hit": cache_hit,
                })
        return Result(columns=plan.columns, rows=output,
                      rowcount=len(output))

    # ------------------------------------------------------------------
    # EXPLAIN
    # ------------------------------------------------------------------

    def _execute_explain(self, stmt: Explain, ctx: EvalContext) -> Result:
        # A plan reveals schema, index names and row estimates — require
        # the same read access the statement itself would.
        for table in sorted(_referenced_tables(stmt.statement)):
            self._check_read(table)
        inner = stmt.statement
        if stmt.analyze:
            return self._execute_explain_analyze(inner, ctx)
        cache_note = "bypass"
        if isinstance(inner, Select):
            plan, hit, _ = self._plan_select_cached(inner, ctx)
            self._recost_template(plan.root, hit)
            lines = plan.explain()
            cache_note = "hit" if hit else "miss"
        elif isinstance(inner, (Update, Delete)):
            verb = "Update" if isinstance(inner, Update) else "Delete"
            scan, hit, _ = self._plan_dml_scan_cached(inner, ctx)
            self._recost_template(scan, hit)
            lines = [f"{verb} on {inner.table}"]
            render_plan(scan, depth=1, lines=lines)
            cache_note = "hit" if hit else "miss"
        elif isinstance(inner, Insert):
            lines = [f"Insert on {inner.table}"]
            if inner.select is not None:
                plan, hit, _ = self._plan_select_cached(inner.select, ctx)
                self._recost_template(plan.root, hit)
                render_plan(plan.root, depth=1, lines=lines)
                cache_note = "hit" if hit else "miss"
            else:
                lines.append(f"  -> Values ({len(inner.rows)} row"
                             f"{'s' if len(inner.rows) != 1 else ''})")
        else:
            raise ExecutionError(
                f"EXPLAIN does not support {type(inner).__name__}")
        lines.append(f"Plan Cache: {cache_note}")
        return Result(columns=["QUERY PLAN"],
                      rows=[(line,) for line in lines],
                      rowcount=len(lines))

    def _recost_template(self, root, hit: bool) -> None:
        """EXPLAIN is the one reader of ``cost~``/``rows~``, so it is
        where a cached template's estimates are brought up to the
        anchored statistics (committed state can move under one anchor:
        a standalone database commits without advancing its height).  A
        hit then renders what a cold re-plan at the same anchor would;
        a miss was costed by the planner a moment ago."""
        if hit:
            recost_plan(root, self.db)

    def _execute_explain_analyze(self, inner: Statement,
                                 ctx: EvalContext) -> Result:
        """EXPLAIN ANALYZE: execute the statement and render the plan
        with per-operator actual rows / loops / wall time.

        SELECT only — executing DML under EXPLAIN would mutate state.
        The instrumentation wraps operator iterators at instance level
        for the duration of this one execution and is removed in a
        ``finally`` (the plan template may live in a shared cache); the
        SSI side effects of the run are exactly a normal SELECT's.
        """
        if not isinstance(inner, Select):
            raise ExecutionError(
                f"EXPLAIN ANALYZE supports only SELECT (executing "
                f"{type(inner).__name__} under EXPLAIN would modify "
                f"data)")
        with timed() as plan_t:
            plan, hit, scan_bounds = self._plan_select_cached(inner, ctx)
            self._recost_template(plan.root, hit)
        stats = instrument_plan(plan.root)
        try:
            with timed() as exec_t:
                # actuals accumulate in ``stats``
                self._run_plan(plan, ctx, scan_bounds, probe_stats=stats)
        finally:
            deinstrument_plan(plan.root)
        lines = render_plan(plan.root, stats=stats)
        lines.append(f"Plan Cache: {'hit' if hit else 'miss'}")
        lines.append(f"Planning Time: {plan_t.seconds * 1e3:.3f} ms")
        lines.append(f"Execution Time: {exec_t.seconds * 1e3:.3f} ms")
        return Result(columns=["QUERY PLAN"],
                      rows=[(line,) for line in lines],
                      rowcount=len(lines))

    # ------------------------------------------------------------------
    # INSERT
    # ------------------------------------------------------------------

    def _execute_insert(self, stmt: Insert, ctx: EvalContext) -> Result:
        self._check_write(stmt.table)
        schema = self.db.catalog.schema_of(stmt.table)
        heap = self.db.catalog.heap_of(stmt.table)

        if stmt.select is not None:
            sub = self._execute_select(stmt.select, ctx)
            rows_values = [list(row) for row in sub.rows]
        else:
            # A literal is its value: no closure memoized on the node (a
            # genesis seed is tens of thousands of them, cached forever).
            rows_values = [[expr.value if type(expr) is Literal
                            else compiled(expr)(ctx) for expr in row]
                           for row in stmt.rows]

        columns = stmt.columns or schema.column_names()
        inserted = 0
        for raw in rows_values:
            if len(raw) != len(columns):
                raise ExecutionError(
                    f"INSERT has {len(raw)} values for {len(columns)} "
                    f"columns")
            values: Dict[str, Any] = dict(zip(columns, raw))
            self._apply_defaults_and_validate(schema, values, ctx)
            self._check_unique(schema, heap, values, exclude_row=None)
            version = heap.insert_version(values, self.tx.xid)
            self.tx.record_write(WriteSetEntry(
                table=stmt.table, kind="insert", new_version=version))
            inserted += 1
        return Result(rowcount=inserted)

    def _apply_defaults_and_validate(self, schema: TableSchema,
                                     values: Dict[str, Any],
                                     ctx: EvalContext) -> None:
        for col in schema.columns:
            if col.name not in values or values[col.name] is None:
                if col.default is not None and col.name not in values:
                    values[col.name] = compiled(col.default)(ctx)
                else:
                    values.setdefault(col.name, None)
            if values[col.name] is not None:
                values[col.name] = coerce_value(
                    values[col.name], col.type_name, col.name)
            elif col.not_null:
                raise ConstraintViolation(
                    f"column {col.name!r} of {schema.name!r} is NOT NULL",
                    constraint="not_null", table=schema.name)
        unknown = set(values) - set(schema.column_names())
        if unknown:
            raise ExecutionError(
                f"unknown column(s) {sorted(unknown)} for {schema.name!r}")
        self._check_checks(schema, values, ctx)

    def _check_checks(self, schema: TableSchema, values: Dict[str, Any],
                      ctx: EvalContext) -> None:
        row_ctx = ctx.child_for_row({schema.name: values})
        for col in schema.columns:
            if col.check is not None:
                if compiled(col.check)(row_ctx) is False:
                    raise ConstraintViolation(
                        f"check constraint on column {col.name!r} failed",
                        constraint="check", table=schema.name)
        for check in schema.checks:
            if compiled(check)(row_ctx) is False:
                raise ConstraintViolation(
                    f"table check constraint on {schema.name!r} failed",
                    constraint="check", table=schema.name)

    def _check_unique(self, schema: TableSchema, heap, values: Dict[str, Any],
                      exclude_row: Optional[int]) -> None:
        for index in heap.indexes.values():
            if not index.unique:
                continue
            key_values = [values.get(c) for c in index.columns]
            if any(v is None for v in key_values):
                continue
            candidate_ids = index.scan_eq(key_values)
            candidates = heap.resolve(candidate_ids)
            low = high = normalize_key(key_values)
            self.tx.record_predicate_read(PredicateRead(
                table=schema.name, columns=index.columns,
                low_key=low, high_key=high))
            rt = self._runtime(EvalContext(), {})
            window_checks(rt, schema.name, candidates)
            for version in candidates:
                if exclude_row is not None and \
                        version.row_id == exclude_row:
                    continue
                if visible_versions((version,), self.tx.snapshot,
                                    self.db.statuses, self.tx.xid):
                    raise ConstraintViolation(
                        f"duplicate key value violates unique constraint "
                        f"{index.name!r}", constraint=index.name,
                        table=schema.name)

    # ------------------------------------------------------------------
    # UPDATE / DELETE
    # ------------------------------------------------------------------

    def _plan_dml_scan_cached(self, stmt, ctx: EvalContext):
        """Cached access-path template for an UPDATE/DELETE target table
        (same key structure and guard validation as SELECT plans).
        Returns (scan node, hit, bounds-by-scan-node)."""
        table = stmt.table
        schema = self.db.catalog.schema_of(table)
        alias_columns = {table: schema.column_names()}
        cache = self.db.plan_cache
        version = self.db.catalog.version_token
        key = PlanCache.key_for(
            stmt, ctx, self.tx, version,
            stats_anchor=self.db.stats.anchor)
        got = cache.get(key, self.db, ctx)
        if got is not None:
            entry, scan_bounds = got
            return entry.plan, True, scan_bounds
        planner = Planner(self.db, self.tx)
        scan = planner.plan_scan(table, table, stmt.where, ctx,
                                 alias_columns)
        cache.store(key, PlanEntry(plan=scan, guards=planner.guards,
                                   catalog_version=version))
        return scan, False, planner.scan_bounds

    def _plan_target_scan(self, stmt, ctx: EvalContext):
        """Plan + run the access path for an UPDATE/DELETE target table,
        returning (schema, heap, the target versions it sees)."""
        table = stmt.table
        schema = self.db.catalog.schema_of(table)
        heap = self.db.catalog.heap_of(table)
        alias_columns = {table: schema.column_names()}
        with timed() as plan_t:
            scan, _hit, scan_bounds = \
                self._plan_dml_scan_cached(stmt, ctx)
        with timed() as exec_t:
            rt = self._runtime(ctx, alias_columns, scan_bounds)
            bounds = scan.bounds(rt)
            candidates, snapshot, own_xid = scan_candidates(
                rt, table, heap, index_signature(heap, bounds), bounds)
            targets = visible_versions(candidates, snapshot,
                                       self.db.statuses, own_xid)
            if scan.ordered or rt.content_order:
                targets.sort(key=lambda v: row_content_key(v.values))
        self.db.sql_plan_seconds.observe(plan_t.seconds)
        self.db.sql_exec_seconds.observe(exec_t.seconds)
        return schema, heap, targets

    def _execute_update(self, stmt: Update, ctx: EvalContext) -> Result:
        self._check_write(stmt.table)
        if stmt.where is None and self.tx.forbid_blind_updates:
            raise BlindUpdateError(
                "blind updates are not supported in the "
                "execute-order-in-parallel flow (section 3.4.3)")
        schema, heap, targets = self._plan_target_scan(stmt, ctx)
        where_fn = compiled_predicate(stmt.where)
        set_fns = [(clause.column, compiled(clause.value))
                   for clause in stmt.sets]
        updated = 0
        row_ctx = ctx.row_context()
        for version in targets:
            row_ctx.env = {stmt.table: version.values}
            if not where_fn(row_ctx):
                continue
            new_values = dict(version.values)
            for column, value_fn in set_fns:
                schema.column(column)  # validates existence, per old path
                new_values[column] = value_fn(row_ctx)
            self._apply_defaults_and_validate(schema, new_values, ctx)
            self._check_unique(schema, heap, new_values,
                               exclude_row=version.row_id)
            new_version = heap.update_version(version, new_values,
                                              self.tx.xid)
            self.tx.record_write(WriteSetEntry(
                table=stmt.table, kind="update",
                old_version=version, new_version=new_version))
            updated += 1
        return Result(rowcount=updated)

    def _execute_delete(self, stmt: Delete, ctx: EvalContext) -> Result:
        self._check_write(stmt.table)
        if stmt.where is None and self.tx.forbid_blind_updates:
            raise BlindUpdateError(
                "blind deletes are not supported in the "
                "execute-order-in-parallel flow (section 3.4.3)")
        schema, heap, targets = self._plan_target_scan(stmt, ctx)
        where_fn = compiled_predicate(stmt.where)
        deleted = 0
        row_ctx = ctx.row_context()
        for version in targets:
            row_ctx.env = {stmt.table: version.values}
            if not where_fn(row_ctx):
                continue
            heap.delete_version(version, self.tx.xid)
            self.tx.record_write(WriteSetEntry(
                table=stmt.table, kind="delete", old_version=version))
            deleted += 1
        return Result(rowcount=deleted)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def _execute_create_table(self, stmt: CreateTable,
                              ctx: EvalContext) -> Result:
        self._check_write(stmt.name, ddl=True)
        columns = [ColumnDef(name=c.name, type_name=c.type_name,
                             not_null=c.not_null or c.primary_key,
                             default=c.default, check=c.check)
                   for c in stmt.columns]
        unique = [[c.name] for c in stmt.columns if c.unique]
        schema = TableSchema(name=stmt.name, columns=columns,
                             primary_key=list(stmt.primary_key),
                             unique_constraints=unique,
                             checks=list(stmt.checks))
        self.db.catalog.create_table(schema,
                                     if_not_exists=stmt.if_not_exists)
        return Result()

    def _execute_create_index(self, stmt: CreateIndex) -> Result:
        self._check_write(stmt.table, ddl=True)
        self.db.catalog.create_index(stmt.name, stmt.table, stmt.columns,
                                     unique=stmt.unique,
                                     if_not_exists=stmt.if_not_exists)
        return Result()


def run_sql(database: "Database", tx: TransactionContext, sql: str,
            params: Sequence[Any] = (),
            variables: Optional[Dict[str, Any]] = None,
            acl: Optional[AccessChecker] = None) -> Result:
    """Parse and execute a ;-separated SQL script; returns the last
    statement's result."""
    from repro.sql.parser import parse_sql

    executor = Executor(database, tx, acl=acl)
    result = Result()
    for stmt in parse_sql(sql):
        result = executor.execute(stmt, params=params, variables=variables)
    return result
