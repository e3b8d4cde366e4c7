"""Expression evaluation semantics and scalar builtins — the one
evaluator every node runs (``compile_expr`` closures), with and without
the planner's binder pre-resolution."""

from decimal import Decimal
from itertools import product
from math import inf, nan

import pytest

from repro.errors import ExecutionError, ReproError, TypeMismatchError
from repro.sql import functions
from repro.sql.expressions import (
    EvalContext,
    compare_values,
    compile_expr,
    compile_predicate,
)
from repro.sql.parser import Parser


def outcome(expr, ctx, binder):
    """("value", v) or (error type, message) of one compiled run."""
    try:
        return "value", compile_expr(expr, binder)(ctx)
    except ReproError as exc:
        return type(exc), str(exc)


def ev(text, env=None, variables=None, params=()):
    """Evaluate ``text`` twice — no binder, and the binder a planner
    would derive from ``env`` — and require the same value or the same
    error type and message from both."""
    expr = Parser(text).parse_expr()
    ctx = EvalContext(env=env or {}, variables=variables or {},
                      params=list(params))
    binder = {alias: tuple(values) for alias, values in (env or {}).items()}
    plain = outcome(expr, ctx, None)
    assert outcome(expr, ctx, binder) == plain
    kind, result = plain
    if kind != "value":
        raise kind(result)
    return result


def now(text="now()"):
    """Wall-clock expressions: two runs never agree, so one run."""
    return compile_expr(Parser(text).parse_expr())(EvalContext())


class TestArithmetic:
    def test_precedence(self):
        assert ev("2 + 3 * 4") == 14
        assert ev("(2 + 3) * 4") == 20

    def test_unary_minus(self):
        assert ev("-5 + 3") == -2

    def test_integer_division_truncates_toward_zero(self):
        assert ev("7 / 2") == 3
        assert ev("-7 / 2") == -3

    def test_float_division(self):
        assert ev("7.0 / 2") == 3.5

    def test_modulo(self):
        assert ev("7 % 3") == 1

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            ev("1 / 0")
        with pytest.raises(ExecutionError):
            ev("1 % 0")

    def test_string_concat_operator(self):
        assert ev("'a' || 'b' || 1") == "ab1"

    def test_string_plus_rejected(self):
        with pytest.raises(TypeMismatchError):
            ev("'a' + 'b'")

    def test_decimal_float_mix(self):
        ctx_vars = {"d": Decimal("1.5"), "f": 2.0}
        assert ev("d + f", variables=ctx_vars) == 3.5

    def test_null_propagates(self):
        assert ev("NULL + 1") is None
        assert ev("1 * NULL") is None


class TestLogic:
    def test_three_valued_and(self):
        assert ev("TRUE AND NULL") is None
        assert ev("FALSE AND NULL") is False
        assert ev("TRUE AND TRUE") is True

    def test_three_valued_or(self):
        assert ev("TRUE OR NULL") is True
        assert ev("FALSE OR NULL") is None

    def test_not_null(self):
        assert ev("NOT NULL") is None
        assert ev("NOT FALSE") is True

    def test_comparisons_with_null(self):
        assert ev("NULL = NULL") is None
        assert ev("1 < NULL") is None

    def test_is_null(self):
        assert ev("NULL IS NULL") is True
        assert ev("1 IS NOT NULL") is True

    def test_between(self):
        assert ev("5 BETWEEN 1 AND 10") is True
        assert ev("5 NOT BETWEEN 1 AND 10") is False
        assert ev("NULL BETWEEN 1 AND 10") is None

    def test_in_list(self):
        assert ev("2 IN (1, 2, 3)") is True
        assert ev("9 IN (1, 2, 3)") is False
        assert ev("9 IN (1, NULL)") is None  # SQL: unknown
        assert ev("2 NOT IN (1, 3)") is True

    def test_like(self):
        assert ev("'hello' LIKE 'h%'") is True
        assert ev("'hello' LIKE 'h_llo'") is True
        assert ev("'hello' LIKE 'x%'") is False
        assert ev("'h.llo' LIKE 'h.llo'") is True  # dot is literal
        assert ev("'hello' NOT LIKE 'x%'") is True

    def test_case(self):
        assert ev("CASE WHEN 1 > 2 THEN 'a' WHEN 2 > 1 THEN 'b' "
                  "ELSE 'c' END") == "b"
        assert ev("CASE WHEN FALSE THEN 1 END") is None

    def test_predicate_semantics(self):
        expr = Parser("NULL").parse_expr()
        assert compile_predicate(expr)(EvalContext()) is False
        assert compile_predicate(None)(EvalContext()) is True


class TestCompareValues:
    def test_orderings(self):
        assert compare_values(1, 2) == -1
        assert compare_values("b", "a") == 1
        assert compare_values(1.0, 1) == 0

    def test_null_returns_none(self):
        assert compare_values(None, 1) is None

    def test_incomparable_types(self):
        with pytest.raises(TypeMismatchError):
            compare_values("a", 1)

    #: Numbers of every class a column can hold, the unordered and the
    #: twice-represented ones among them.  Two NaN objects: equality
    #: must not come from identity.
    NUMBERS = [nan, float("nan"), inf, -inf, 0.0, -0.0, 1.5, -2.5, 1e308,
               0, 1, -3, 2 ** 70, True, False, Decimal("1.5"), Decimal(2)]

    def test_total_order_on_numbers(self):
        """NaN is equal to itself and above every other number, so the
        comparator is a total preorder: antisymmetric, transitive, and
        every pair is ordered — what zone maps, min / max folds and
        sorts need for their answer not to depend on input order."""
        numbers = self.NUMBERS
        for a, b in product(numbers, repeat=2):
            assert compare_values(a, b) == -compare_values(b, a), (a, b)
            if a != a:
                assert compare_values(a, b) == (0 if b != b else 1)
        for a, b, c in product(numbers, repeat=3):
            if compare_values(a, b) <= 0 and compare_values(b, c) <= 0:
                assert compare_values(a, c) <= 0, (a, b, c)
            if compare_values(a, b) == 0:
                # Equal values order alike against everything.
                assert compare_values(a, c) == compare_values(b, c)

    def test_where_sees_nan_above_every_number(self):
        ctx = EvalContext(params=[nan])
        for sql, expected in (("$1 > 1e308", True), ("$1 = $1", True),
                              ("$1 <= 5", False), ("$1 <> $1", False),
                              ("$1 BETWEEN 0 AND $1", True)):
            expr = Parser(sql).parse_expr()
            assert compile_predicate(expr)(ctx) is expected, sql


class TestColumnResolution:
    def test_qualified(self):
        env = {"t": {"a": 1}, "u": {"a": 2}}
        assert ev("t.a", env=env) == 1
        assert ev("u.a", env=env) == 2

    def test_unqualified_unique(self):
        assert ev("b", env={"t": {"b": 5}}) == 5

    def test_ambiguous_raises(self):
        env = {"t": {"a": 1}, "u": {"a": 2}}
        with pytest.raises(ExecutionError, match="ambiguous"):
            ev("a", env=env)

    def test_variable_fallback(self):
        assert ev("x", variables={"x": 9}) == 9

    def test_positional_params(self):
        assert ev("$1 + $2", params=(3, 4)) == 7

    def test_param_out_of_range(self):
        with pytest.raises(ExecutionError):
            ev("$3", params=(1,))


class TestBuiltins:
    def test_math(self):
        assert ev("abs(-3)") == 3
        assert ev("ceil(1.2)") == 2
        assert ev("floor(1.8)") == 1
        assert ev("round(2.567, 2)") == 2.57
        assert ev("mod(10, 3)") == 1
        assert ev("power(2, 10)") == 1024
        assert ev("sqrt(16.0)") == 4.0
        assert ev("sign(-9)") == -1

    def test_strings(self):
        assert ev("length('abc')") == 3
        assert ev("upper('ab')") == "AB"
        assert ev("lower('AB')") == "ab"
        assert ev("substr('hello', 2, 3)") == "ell"
        assert ev("replace('aaa', 'a', 'b')") == "bbb"
        assert ev("trim('  x  ')") == "x"
        assert ev("strpos('hello', 'll')") == 3
        assert ev("concat('a', NULL, 'b')") == "ab"

    def test_null_handling_builtins(self):
        assert ev("coalesce(NULL, NULL, 3)") == 3
        assert ev("nullif(1, 1)") is None
        assert ev("nullif(1, 2)") == 1
        assert ev("greatest(1, NULL, 5)") == 5
        assert ev("least(1, NULL, 5)") == 1

    def test_null_guard(self):
        assert ev("abs(NULL)") is None
        assert ev("length(NULL)") is None

    def test_unknown_function(self):
        with pytest.raises(ExecutionError, match="unknown function"):
            ev("definitely_not_a_function(1)")

    def test_nondeterministic_blocked_in_contract_mode(self):
        expr = Parser("now()").parse_expr()
        ctx = EvalContext(allow_nondeterministic=False)
        with pytest.raises(ExecutionError, match="non-deterministic"):
            compile_expr(expr)(ctx)

    def test_now_allowed_interactively(self):
        assert now() > 0

    def test_interval_arithmetic(self):
        assert now("now() - INTERVAL '1 hours'") < now()
        assert ev("INTERVAL '1 hours' + INTERVAL '30 minutes'") == 5400

    def test_registry_flags(self):
        assert not functions.lookup("now").deterministic
        assert functions.lookup("abs").deterministic
        assert "random" in functions.NON_DETERMINISTIC_NAMES

    def test_arity_enforced(self):
        with pytest.raises(ExecutionError):
            ev("abs(1, 2)")


# Hostile scalar input: every one of these used to escape as a bare
# TypeError / ValueError / ZeroDivisionError, which Backend.execute does
# not catch.  The messages carry operator, function and *type* names only
# — the interpreter's own text differs between Python versions, and the
# abort reason is a ledger column.
HOSTILE = [
    ("-x", TypeMismatchError, "cannot apply unary - to str"),
    ("-TRUE", TypeMismatchError, "cannot apply unary - to bool"),
    ("- interval '1 day'", TypeMismatchError,
     "cannot apply unary - to IntervalValue"),
    ("abs('x')", ExecutionError, "abs() cannot be applied to (str)"),
    ("round('x')", ExecutionError, "round() cannot be applied to (str)"),
    ("substr('abc', 'x')", ExecutionError,
     "substr() cannot be applied to (str, str)"),
    ("mod(1, 0)", ExecutionError, "division by zero"),
    ("mod('a', 2)", ExecutionError, "mod() cannot be applied to (str, int)"),
    ("greatest('a', 1)", ExecutionError,
     "greatest() cannot be applied to (str, int)"),
    ("least(1, 'a')", ExecutionError,
     "least() cannot be applied to (int, str)"),
    ("sign('a')", ExecutionError, "sign() cannot be applied to (str)"),
    ("sqrt(-1)", ExecutionError, "sqrt() cannot be applied to (int)"),
    ("exp(100000)", ExecutionError, "exp() cannot be applied to (int)"),
    ("power(0, -1)", ExecutionError, "division by zero"),
]


@pytest.mark.parametrize("text, error, message", HOSTILE)
def test_hostile_scalar_input_raises_our_errors(text, error, message):
    with pytest.raises(error) as caught:
        ev(text, variables={"x": "oops"})
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_unary_minus_keeps_numeric_types():
    assert ev("-x", variables={"x": Decimal("1.5")}) == Decimal("-1.5")
    assert ev("-x", variables={"x": 2.5}) == -2.5
    assert ev("-x", variables={"x": None}) is None
