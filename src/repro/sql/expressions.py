"""Expression evaluation with SQL three-valued logic.

``None`` doubles as SQL NULL.  Comparisons involving NULL yield NULL;
AND/OR follow Kleene logic; WHERE treats NULL as not-satisfied.  Aggregate
calls are *not* evaluated here — the executor computes them per group and
supplies their values through ``EvalContext.aggregate_values`` keyed by the
expression fingerprint.

There is one evaluator: :func:`compile_expr` lowers an AST subtree *once*
into nested Python closures, so per-row hot paths (Filter/Project/HashJoin/
HashAggregate operators, DML loops, PL bodies) pay no dispatch or
re-analysis cost, and one-shot sites (sargable-bound resolution, LIMIT)
call the same closure through the node memo (:func:`compiled`).
Compilation pre-resolves column references against binder output where
unambiguous, precompiles literal LIKE patterns, and precomputes aggregate
fingerprints.  Every node must turn an expression into the same value *or
the same error* (the abort reason is a ledger column), so evaluation
raises only :class:`ReproError` subclasses whose text is written here —
never the interpreter's own, which differs between Python versions.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError, TypeMismatchError
from repro.sql import functions
from repro.sql.ast_nodes import (
    Between, BinaryOp, CaseExpr, ColumnRef, Expr, FunctionCall, InList,
    IntervalLiteral, IsNull, Like, Literal, Param, Star, SubqueryExpr,
    UnaryOp,
)


def expr_fingerprint(expr: Expr) -> str:
    """Stable textual identity of an expression (used to key aggregate
    values and GROUP BY matching)."""
    return repr(expr)


@dataclass
class EvalContext:
    """Everything needed to evaluate an expression against one row.

    ``outer`` chains to the enclosing query's row context so correlated
    subqueries resolve names with proper SQL scoping: the innermost scope
    wins; only unresolved names escape outward.
    """

    # alias -> column values for the current joined row
    env: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # PL variables and procedure parameters by name
    variables: Dict[str, Any] = field(default_factory=dict)
    # positional parameters ($1 is params[0])
    params: Sequence[Any] = ()
    allow_nondeterministic: bool = True
    # fingerprint -> computed aggregate value (set by the executor)
    aggregate_values: Optional[Dict[str, Any]] = None
    # callback to run subqueries: fn(select_ast, outer_ctx) -> list of rows
    subquery_fn: Optional[Callable] = None
    # enclosing query's row context (correlated subqueries)
    outer: Optional["EvalContext"] = None
    # time-travel pin: block height this statement (and its subqueries)
    # reads at — set by the executor's AS OF resolution, None for normal
    # latest-state execution
    as_of_height: Optional[int] = None

    def child_for_row(self, env: Dict[str, Dict[str, Any]]) -> "EvalContext":
        return EvalContext(env=env, variables=self.variables,
                           params=self.params,
                           allow_nondeterministic=self.allow_nondeterministic,
                           aggregate_values=self.aggregate_values,
                           subquery_fn=self.subquery_fn,
                           outer=self.outer,
                           as_of_height=self.as_of_height)

    def row_context(self) -> "EvalContext":
        """One context for a whole row loop: the operator assigns
        ``env`` (and, when grouping, ``aggregate_values``) per row
        instead of building a child context per row per expression.
        Nothing may keep it past the row it was evaluated for."""
        return self.child_for_row({})


def _resolve_column(ref: ColumnRef, ctx: EvalContext) -> Any:
    scope: Optional[EvalContext] = ctx
    saw_alias = False
    while scope is not None:
        env = scope.env
        if ref.table is not None:
            if ref.table in env:
                saw_alias = True
                values = env[ref.table]
                if ref.name in values:
                    return values[ref.name]
            scope = scope.outer
            continue
        matches = [alias for alias, values in env.items()
                   if ref.name in values]
        if len(matches) > 1:
            raise ExecutionError(
                f"ambiguous column reference {ref.name!r}")
        if matches:
            return env[matches[0]][ref.name]
        scope = scope.outer
    if ref.table is not None:
        if saw_alias:
            raise ExecutionError(
                f"column {ref.name!r} not found in {ref.table!r}")
        raise ExecutionError(f"unknown table alias {ref.table!r}")
    if ref.name in ctx.variables:
        return ctx.variables[ref.name]
    raise ExecutionError(f"unknown column or variable {ref.name!r}")


_NAN = float("nan")


def _numeric_pair(left: Any, right: Any):
    """Reconcile Decimal/float mixes for arithmetic and comparison."""
    if isinstance(left, Decimal) and isinstance(right, float):
        return float(left), right
    if isinstance(left, float) and isinstance(right, Decimal):
        return left, float(right)
    return left, right


def _arith(op: str, left: Any, right: Any) -> Any:
    if left is None or right is None:
        return None
    if op == "||":
        return str(left) + str(right)
    if isinstance(left, IntervalValue) or isinstance(right, IntervalValue):
        return IntervalValue.combine(op, left, right)
    if isinstance(left, bool) or isinstance(right, bool):
        raise TypeMismatchError(f"cannot apply {op} to booleans")
    if isinstance(left, str) or isinstance(right, str):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            raise TypeMismatchError("use || for string concatenation")
        raise TypeMismatchError(f"cannot apply {op} to strings")
    try:
        left, right = _numeric_pair(left, right)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise ExecutionError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                # SQL integer division truncates toward zero.
                q = abs(left) // abs(right)
                return q if (left >= 0) == (right >= 0) else -q
            return left / right
        if op == "%":
            if right == 0:
                raise ExecutionError("division by zero")
            return left % right
    except TypeError:
        raise TypeMismatchError(
            f"cannot apply {op} to {type(left).__name__} and "
            f"{type(right).__name__}") from None
    except (InvalidOperation, ValueError):
        # Decimal's invalid operations (a signaling NaN, inf - inf, ...),
        # and float() of a signaling NaN.
        raise ExecutionError(
            f"{op} has no NUMERIC result for these operands") from None
    raise ExecutionError(f"unknown arithmetic operator {op!r}")


def compare_values(left: Any, right: Any) -> Optional[int]:
    """SQL comparison: returns -1/0/1, or None when either side is NULL.

    A total order on numbers: NaN is equal to itself and above every
    other number (PostgreSQL's rule, and the one ``bucket_key`` groups
    by), so zone maps, ``min`` / ``max`` and sorts do not depend on
    where in their input a NaN sits."""
    if left is None or right is None:
        return None
    kind = type(left)
    if kind is type(right) and (kind is float or kind is int
                                or kind is str):
        # Same plain class on both sides — nearly every comparison a
        # typed column meets; nothing below would reconcile anything.
        if left == right:
            return 0
        if left < right:
            return -1
        return 1 if left > right else _nan_order(left, right)
    if isinstance(left, IntervalValue) and isinstance(right, IntervalValue):
        left, right = left.seconds, right.seconds
    # A Decimal NaN (sNaN too) orders as float NaN does; Decimal itself
    # would raise InvalidOperation at ``<``.
    if isinstance(left, Decimal) and left.is_nan():
        left = _NAN
    if isinstance(right, Decimal) and right.is_nan():
        right = _NAN
    left, right = _numeric_pair(left, right)
    if isinstance(left, bool) != isinstance(right, bool):
        if isinstance(left, (int, float, Decimal)) and \
                isinstance(right, (int, float, Decimal)):
            left, right = (int(left) if isinstance(left, bool) else left,
                           int(right) if isinstance(right, bool) else right)
    try:
        if left == right:
            return 0
        if left < right:
            return -1
        return 1 if left > right else _nan_order(left, right)
    except TypeError:
        raise TypeMismatchError(
            f"cannot compare {type(left).__name__} with "
            f"{type(right).__name__}") from None


def _nan_order(left: Any, right: Any) -> int:
    """``compare_values`` for a pair that is neither ``==``, ``<`` nor
    ``>``: at least one side is NaN."""
    if left != left:
        return 0 if right != right else 1
    return -1


def _compare(op: str, left: Any, right: Any) -> Optional[bool]:
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    if op == "=":
        return cmp == 0
    if op == "<>":
        return cmp != 0
    if op == "<":
        return cmp < 0
    if op == "<=":
        return cmp <= 0
    if op == ">":
        return cmp > 0
    if op == ">=":
        return cmp >= 0
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _logical_and(left: Optional[bool], right: Optional[bool]):
    if left is False or right is False:
        return False
    if left is None or right is None:
        return None
    return True


def _logical_or(left: Optional[bool], right: Optional[bool]):
    if left is True or right is True:
        return True
    if left is None or right is None:
        return None
    return False


@dataclass(frozen=True)
class IntervalValue:
    """Runtime value of INTERVAL literals (seconds)."""

    seconds: float

    @staticmethod
    def combine(op: str, left: Any, right: Any) -> Any:
        lsec = left.seconds if isinstance(left, IntervalValue) else left
        rsec = right.seconds if isinstance(right, IntervalValue) else right
        if op == "+":
            return lsec + rsec
        if op == "-":
            return lsec - rsec
        raise TypeMismatchError(f"cannot apply {op} to intervals")


@functools.lru_cache(maxsize=512)
def _like_to_regex(pattern: str) -> "re.Pattern":
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def _as_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    raise TypeMismatchError(
        f"expected boolean, got {type(value).__name__}")


def _bool_or_none(value: Any) -> Optional[bool]:
    if value is None:
        return None
    return _as_bool(value)


def _run_subquery(expr: Expr, ctx: EvalContext) -> List[tuple]:
    if not isinstance(expr, SubqueryExpr):
        raise ExecutionError("expected subquery")
    if ctx.subquery_fn is None:
        raise ExecutionError("subqueries are not allowed in this context")
    return ctx.subquery_fn(expr.select, ctx)


def _eval_subquery(expr: SubqueryExpr, ctx: EvalContext) -> Any:
    rows = _run_subquery(expr, ctx)
    if expr.exists:
        return len(rows) > 0
    if not rows:
        return None
    if len(rows) > 1:
        raise ExecutionError("scalar subquery returned more than one row")
    if len(rows[0]) != 1:
        raise ExecutionError("scalar subquery must select one column")
    return rows[0][0]


# ---------------------------------------------------------------------------
# Expression compilation — AST lowered once into nested closures
# ---------------------------------------------------------------------------

Binder = Dict[str, Sequence[str]]        # alias -> column names (binder output)
CompiledExpr = Callable[[EvalContext], Any]


def compile_predicate(expr: Optional[Expr],
                      binder: Optional[Binder] = None
                      ) -> Callable[[EvalContext], bool]:
    """Compiled WHERE/HAVING semantics: NULL counts as not-satisfied."""
    if expr is None:
        return lambda ctx: True
    fn = compile_expr(expr, binder)
    return lambda ctx: fn(ctx) is True


def compiled(expr: Expr) -> CompiledExpr:
    """Binder-less compile memoized on the AST node itself, so re-executed
    statements (stored procedures, cached parse trees) compile each
    expression exactly once process-wide.  The attribute lives outside the
    dataclass fields, so ``repr`` fingerprints are unaffected."""
    fn = expr.__dict__.get("_compiled")
    if fn is None:
        fn = compile_expr(expr)
        expr.__dict__["_compiled"] = fn
    return fn


def compiled_predicate(expr: Optional[Expr]
                       ) -> Callable[[EvalContext], bool]:
    """Node-memoized :func:`compile_predicate` (binder-less)."""
    if expr is None:
        return lambda ctx: True
    fn = expr.__dict__.get("_compiled_pred")
    if fn is None:
        fn = compile_predicate(expr)
        expr.__dict__["_compiled_pred"] = fn
    return fn


def compile_expr(expr: Expr, binder: Optional[Binder] = None) -> CompiledExpr:
    """Lower ``expr`` into a closure ``fn(ctx) -> value``.

    ``binder``, when given, is the planner's alias→columns map: unqualified
    column references whose name appears in exactly one alias are resolved
    to a direct two-dict lookup at compile time (falling back to the full
    scoped resolution when the alias is absent from the row environment,
    e.g. in correlated-subquery scopes) — same values, same errors, same
    messages as without a binder.
    """
    if isinstance(expr, Literal):
        value = expr.value
        return lambda ctx: value
    if isinstance(expr, IntervalLiteral):
        interval = IntervalValue(expr.seconds)
        return lambda ctx: interval
    if isinstance(expr, ColumnRef):
        return _compile_column(expr, binder)
    if isinstance(expr, Param):
        return _compile_param(expr)
    if isinstance(expr, Star):
        def run_star(ctx):
            raise ExecutionError(
                "'*' is only valid in SELECT lists or COUNT(*)")
        return run_star
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr, binder)
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr, binder)
    if isinstance(expr, IsNull):
        operand = compile_expr(expr.operand, binder)
        if expr.negated:
            return lambda ctx: operand(ctx) is not None
        return lambda ctx: operand(ctx) is None
    if isinstance(expr, Between):
        return _compile_between(expr, binder)
    if isinstance(expr, InList):
        return _compile_in(expr, binder)
    if isinstance(expr, Like):
        return _compile_like(expr, binder)
    if isinstance(expr, CaseExpr):
        return _compile_case(expr, binder)
    if isinstance(expr, FunctionCall):
        return _compile_function(expr, binder)
    if isinstance(expr, SubqueryExpr):
        return lambda ctx: _eval_subquery(expr, ctx)
    raise ExecutionError(f"cannot evaluate {type(expr).__name__}")


def _compile_column(ref: ColumnRef, binder: Optional[Binder]) -> CompiledExpr:
    name = ref.name
    if ref.table is not None:
        table = ref.table

        def run_qualified(ctx):
            values = ctx.env.get(table)
            if values is not None and name in values:
                return values[name]
            return _resolve_column(ref, ctx)
        return run_qualified
    if binder is not None:
        matches = [alias for alias, cols in binder.items() if name in cols]
        if len(matches) == 1:
            alias = matches[0]

            def run_bound(ctx):
                values = ctx.env.get(alias)
                if values is not None and name in values:
                    return values[name]
                return _resolve_column(ref, ctx)
            return run_bound

    def run_unqualified(ctx):
        env = ctx.env
        if len(env) == 1:
            # Single-alias fast path: ambiguity is impossible and the
            # innermost scope wins, so a direct hit is authoritative.
            values = next(iter(env.values()))
            if name in values:
                return values[name]
        return _resolve_column(ref, ctx)
    return run_unqualified


def _compile_param(expr: Param) -> CompiledExpr:
    token = expr.name
    if token.startswith("$"):
        position = int(token[1:]) - 1

        def run_positional(ctx):
            if not 0 <= position < len(ctx.params):
                raise ExecutionError(f"parameter {token} out of range")
            return ctx.params[position]
        return run_positional
    name = token[1:]

    def run_named(ctx):
        variables = ctx.variables
        if name in variables:
            return variables[name]
        raise ExecutionError(f"unbound parameter {token}")
    return run_named


def _compile_unary(expr: UnaryOp, binder: Optional[Binder]) -> CompiledExpr:
    operand = compile_expr(expr.operand, binder)
    if expr.op == "NOT":
        def run_not(ctx):
            value = operand(ctx)
            if value is None:
                return None
            return not _as_bool(value)
        return run_not
    if expr.op == "-":
        def run_neg(ctx):
            value = operand(ctx)
            if value is None:
                return None
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float, Decimal)):
                raise TypeMismatchError(
                    f"cannot apply unary - to {type(value).__name__}")
            return -value
        return run_neg
    if expr.op == "+":
        return operand
    op = expr.op

    def run_unknown(ctx):
        raise ExecutionError(f"unknown unary operator {op!r}")
    return run_unknown


def _compile_binary(expr: BinaryOp, binder: Optional[Binder]) -> CompiledExpr:
    op = expr.op
    if op == "AND":
        # Both sides always evaluate (no short-circuit): an error on
        # either side surfaces regardless of the other.
        left = compile_expr(expr.left, binder)
        right = compile_expr(expr.right, binder)
        return lambda ctx: _logical_and(_bool_or_none(left(ctx)),
                                        _bool_or_none(right(ctx)))
    if op == "OR":
        left = compile_expr(expr.left, binder)
        right = compile_expr(expr.right, binder)
        return lambda ctx: _logical_or(_bool_or_none(left(ctx)),
                                       _bool_or_none(right(ctx)))
    if op == "IN_SUBQUERY":
        needle_fn = compile_expr(expr.left, binder)
        subquery = expr.right

        def run_in_subquery(ctx):
            needle = needle_fn(ctx)
            rows = _run_subquery(subquery, ctx)
            if needle is None:
                return None
            return any(row and compare_values(needle, row[0]) == 0
                       for row in rows)
        return run_in_subquery
    left = compile_expr(expr.left, binder)
    right = compile_expr(expr.right, binder)
    if op in {"=", "<>", "<", "<=", ">", ">="}:
        return lambda ctx: _compare(op, left(ctx), right(ctx))
    return lambda ctx: _arith(op, left(ctx), right(ctx))


def _compile_between(expr: Between, binder: Optional[Binder]) -> CompiledExpr:
    operand = compile_expr(expr.operand, binder)
    low = compile_expr(expr.low, binder)
    high = compile_expr(expr.high, binder)
    negated = expr.negated

    def run_between(ctx):
        value = operand(ctx)
        lo = low(ctx)
        hi = high(ctx)
        result = _logical_and(_compare(">=", value, lo),
                              _compare("<=", value, hi))
        if result is None:
            return None
        return (not result) if negated else result
    return run_between


def _compile_in(expr: InList, binder: Optional[Binder]) -> CompiledExpr:
    operand_fn = compile_expr(expr.operand, binder)
    item_fns = [compile_expr(item, binder) for item in expr.items]
    negated = expr.negated

    def run_in(ctx):
        operand = operand_fn(ctx)
        if operand is None:
            return None
        saw_null = False
        for fn in item_fns:
            value = fn(ctx)
            if value is None:
                saw_null = True
                continue
            if compare_values(operand, value) == 0:
                return not negated
        if saw_null:
            return None
        return negated
    return run_in


def _compile_like(expr: Like, binder: Optional[Binder]) -> CompiledExpr:
    operand = compile_expr(expr.operand, binder)
    negated = expr.negated
    if isinstance(expr.pattern, Literal) and \
            isinstance(expr.pattern.value, str):
        regex = _like_to_regex(expr.pattern.value)

        def run_static(ctx):
            value = operand(ctx)
            if value is None:
                return None
            result = bool(regex.match(str(value)))
            return (not result) if negated else result
        return run_static
    pattern_fn = compile_expr(expr.pattern, binder)

    def run_dynamic(ctx):
        value = operand(ctx)
        pattern = pattern_fn(ctx)
        if value is None or pattern is None:
            return None
        result = bool(_like_to_regex(str(pattern)).match(str(value)))
        return (not result) if negated else result
    return run_dynamic


def _compile_case(expr: CaseExpr, binder: Optional[Binder]) -> CompiledExpr:
    whens = [(compile_expr(cond, binder), compile_expr(result, binder))
             for cond, result in expr.whens]
    else_fn = (None if expr.else_ is None
               else compile_expr(expr.else_, binder))

    def run_case(ctx):
        for cond_fn, result_fn in whens:
            if cond_fn(ctx) is True:
                return result_fn(ctx)
        return else_fn(ctx) if else_fn is not None else None
    return run_case


def _compile_function(expr: FunctionCall,
                      binder: Optional[Binder]) -> CompiledExpr:
    name = expr.name
    if name in functions.AGGREGATE_NAMES:
        key = expr_fingerprint(expr)

        def run_aggregate(ctx):
            if ctx.aggregate_values is None:
                raise ExecutionError(
                    f"aggregate {name}() not allowed here")
            if key not in ctx.aggregate_values:
                raise ExecutionError(
                    f"aggregate {name}() was not computed for this query")
            return ctx.aggregate_values[key]
        return run_aggregate
    arg_fns = [compile_expr(arg, binder) for arg in expr.args]

    def run_call(ctx):
        args = [fn(ctx) for fn in arg_fns]
        return functions.call(
            name, args, allow_nondeterministic=ctx.allow_nondeterministic)
    return run_call
