"""Recursive-descent SQL/PL parser.

Grammar covers everything the paper's smart contracts (Appendix A), the
system contracts (section 3.7), and the provenance queries (Table 3) need:
full SELECT with joins / aggregates / GROUP BY / HAVING / ORDER BY / LIMIT,
DML, DDL, CREATE FUNCTION with $$-quoted bodies, and a PL/pgSQL-like
procedural subset (DECLARE, assignments, IF/ELSIF/ELSE, SELECT INTO,
PERFORM, RAISE, RETURN).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.errors import SQLSyntaxError
from repro.sql.ast_nodes import (
    AsOfClause,
    Between, BinaryOp, CaseExpr, ColumnDefNode, ColumnRef, CreateFunction,
    CreateIndex, CreateTable, Delete, DropFunction, DropTable, Explain, Expr,
    FunctionCall, InList, Insert, IntervalLiteral, IsNull, Join, Like,
    Literal, OrderItem, Param, PLAssign, PLBlock, PLIf, PLPerform, PLRaise,
    PLReturn, Select, SelectItem, SetClause, Star, Statement, SubqueryExpr,
    TableRef, UnaryOp, Update,
)
from repro.sql.lexer import Token, tokenize

_AGGREGATES = {"count", "sum", "avg", "min", "max"}

# Keywords that may double as column/variable names (or function names)
# in expressions.
_SOFT_IDENT_KEYWORDS = {"KEY", "INDEX", "CHECK", "LANGUAGE", "NOTICE",
                        "REPLACE", "OF", "BLOCK", "LATEST"}

_TYPE_KEYWORDS = {
    "INT", "INTEGER", "BIGINT", "FLOAT", "DOUBLE", "NUMERIC", "DECIMAL",
    "TEXT", "VARCHAR", "CHAR", "BOOLEAN", "TIMESTAMP", "SERIAL",
}

_INTERVAL_UNITS = {
    "second": 1.0, "seconds": 1.0, "minute": 60.0, "minutes": 60.0,
    "hour": 3600.0, "hours": 3600.0, "day": 86400.0, "days": 86400.0,
    "week": 604800.0, "weeks": 604800.0,
}


class Parser:
    """One-statement-at-a-time recursive descent parser."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.index = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def error(self, message: str) -> SQLSyntaxError:
        tok = self.current
        return SQLSyntaxError(
            f"line {tok.line}: {message} (near {tok.value!r})",
            position=tok.position, line=tok.line)

    def advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def check(self, kind: str, value: Optional[str] = None) -> bool:
        tok = self.current
        return tok.kind == kind and (value is None or tok.value == value)

    def check_kw(self, *keywords: str) -> bool:
        tok = self.current
        return tok.kind == "KEYWORD" and tok.value in keywords

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self.check(kind, value):
            return self.advance()
        return None

    def accept_kw(self, *keywords: str) -> Optional[Token]:
        if self.check_kw(*keywords):
            return self.advance()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self.check(kind, value):
            raise self.error(f"expected {value or kind}")
        return self.advance()

    def expect_kw(self, keyword: str) -> Token:
        if not self.check_kw(keyword):
            raise self.error(f"expected {keyword}")
        return self.advance()

    def expect_ident(self) -> str:
        tok = self.current
        if tok.kind == "IDENT":
            return self.advance().value
        # Non-reserved usage of soft keywords as identifiers.
        if tok.kind == "KEYWORD" and tok.value in {
                "KEY", "INDEX", "CHECK", "LANGUAGE", "END", "NOTICE",
                "COUNT", "SUM", "AVG", "MIN", "MAX", "TIMESTAMP",
                "OF", "BLOCK", "LATEST"}:
            return self.advance().value.lower()
        raise self.error("expected identifier")

    def _as_of_ahead(self) -> bool:
        """True when the next tokens start the time-travel clause:
        ``AS OF BLOCK`` or ``AS OF LATEST``.  Requiring the full head
        keeps ``of``/``block``/``latest`` usable as ordinary aliases
        (``SELECT v AS of FROM t`` still parses as an alias)."""
        if not self.check_kw("AS") or self.index + 2 >= len(self.tokens):
            return False
        second = self.tokens[self.index + 1]
        third = self.tokens[self.index + 2]
        return (second.kind == "KEYWORD" and second.value == "OF"
                and third.kind == "KEYWORD"
                and third.value in ("BLOCK", "LATEST"))

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def parse_statements(self) -> List[Statement]:
        """Parse a ;-separated list of statements."""
        statements: List[Statement] = []
        while not self.check("EOF"):
            while self.accept("PUNCT", ";"):
                pass
            if self.check("EOF"):
                break
            statements.append(self.parse_statement())
            if not self.check("EOF"):
                self.expect("PUNCT", ";")
        return statements

    def parse_statement(self) -> Statement:
        if self.check_kw("EXPLAIN"):
            self.advance()
            # ANALYZE is a soft identifier (not a reserved keyword): no
            # statement can start with a bare identifier, so consuming
            # it here is unambiguous.
            analyze = False
            if self.current.kind == "IDENT" and \
                    self.current.value.upper() == "ANALYZE":
                self.advance()
                analyze = True
            return Explain(statement=self.parse_statement(),
                           analyze=analyze)
        if self.check_kw("PROVENANCE"):
            self.advance()
            select = self.parse_select()
            select.provenance = True
            return select
        if self.check_kw("SELECT"):
            return self.parse_select()
        if self.check_kw("INSERT"):
            return self.parse_insert()
        if self.check_kw("UPDATE"):
            return self.parse_update()
        if self.check_kw("DELETE"):
            return self.parse_delete()
        if self.check_kw("CREATE"):
            return self.parse_create()
        if self.check_kw("DROP"):
            return self.parse_drop()
        raise self.error("expected a statement")

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    def parse_select(self) -> Select:
        self.expect_kw("SELECT")
        distinct = bool(self.accept_kw("DISTINCT"))
        if self.accept_kw("ALL"):
            pass
        items = [self.parse_select_item()]
        while self.accept("PUNCT", ","):
            items.append(self.parse_select_item())

        into_vars: List[str] = []
        if self.accept_kw("INTO"):
            into_vars.append(self.expect_ident())
            while self.accept("PUNCT", ","):
                into_vars.append(self.expect_ident())

        select = Select(items=items, distinct=distinct, into_vars=into_vars)
        if self.accept_kw("FROM"):
            select.from_table = self.parse_table_ref()
            while True:
                join = self.parse_join_opt()
                if join is None:
                    break
                select.joins.append(join)
        if self.accept_kw("WHERE"):
            select.where = self.parse_expr()
        if self.accept_kw("GROUP"):
            self.expect_kw("BY")
            select.group_by.append(self.parse_expr())
            while self.accept("PUNCT", ","):
                select.group_by.append(self.parse_expr())
        if self.accept_kw("HAVING"):
            select.having = self.parse_expr()
        if self.accept_kw("ORDER"):
            self.expect_kw("BY")
            select.order_by.append(self.parse_order_item())
            while self.accept("PUNCT", ","):
                select.order_by.append(self.parse_order_item())
        if self.accept_kw("LIMIT"):
            select.limit = self.parse_expr()
        if self.accept_kw("OFFSET"):
            select.offset = self.parse_expr()
        if self._as_of_ahead():
            self.advance()  # AS
            self.advance()  # OF
            if self.accept_kw("LATEST"):
                select.as_of = AsOfClause(latest=True)
            else:
                self.expect_kw("BLOCK")
                select.as_of = AsOfClause(block=self.parse_expr())
        return select

    def parse_select_item(self) -> SelectItem:
        if self.check("OP", "*"):
            self.advance()
            return SelectItem(expr=Star())
        # t.* form
        if (self.check("IDENT") and self.index + 2 < len(self.tokens)
                and self.tokens[self.index + 1].kind == "PUNCT"
                and self.tokens[self.index + 1].value == "."
                and self.tokens[self.index + 2].kind == "OP"
                and self.tokens[self.index + 2].value == "*"):
            table = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return SelectItem(expr=Star(table=table))
        expr = self.parse_expr()
        alias = None
        if not self._as_of_ahead() and self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.check("IDENT") or self._bare_alias_keyword():
            alias = self._accept_alias()
        return SelectItem(expr=expr, alias=alias)

    def _bare_alias_keyword(self) -> bool:
        """OF/BLOCK/LATEST were identifiers before the time-travel
        grammar; keep accepting them as bare aliases (the clause always
        starts with AS, so there is no ambiguity here)."""
        return self.check_kw("OF", "BLOCK", "LATEST")

    def _accept_alias(self) -> str:
        tok = self.advance()
        return tok.value.lower() if tok.kind == "KEYWORD" else tok.value

    def parse_table_ref(self) -> TableRef:
        name = self.expect_ident()
        alias = name
        if not self._as_of_ahead() and self.accept_kw("AS"):
            alias = self.expect_ident()
        elif self.check("IDENT") or self._bare_alias_keyword():
            alias = self._accept_alias()
        return TableRef(name=name, alias=alias)

    def parse_join_opt(self) -> Optional[Join]:
        if self.accept("PUNCT", ","):
            return Join(kind="CROSS", table=self.parse_table_ref())
        if self.accept_kw("CROSS"):
            self.expect_kw("JOIN")
            return Join(kind="CROSS", table=self.parse_table_ref())
        kind = None
        if self.check_kw("INNER"):
            self.advance()
            kind = "INNER"
        elif self.check_kw("LEFT"):
            self.advance()
            self.accept_kw("OUTER")
            kind = "LEFT"
        elif self.check_kw("JOIN"):
            kind = "INNER"
        if kind is None:
            return None
        self.expect_kw("JOIN")
        table = self.parse_table_ref()
        on = None
        if self.accept_kw("ON"):
            on = self.parse_expr()
        elif kind != "CROSS":
            raise self.error("JOIN requires ON clause")
        return Join(kind=kind, table=table, on=on)

    def parse_order_item(self) -> OrderItem:
        expr = self.parse_expr()
        ascending = True
        if self.accept_kw("DESC"):
            ascending = False
        else:
            self.accept_kw("ASC")
        return OrderItem(expr=expr, ascending=ascending)

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------

    def parse_insert(self) -> Insert:
        self.expect_kw("INSERT")
        self.expect_kw("INTO")
        table = self.expect_ident()
        columns: List[str] = []
        if self.accept("PUNCT", "("):
            columns.append(self.expect_ident())
            while self.accept("PUNCT", ","):
                columns.append(self.expect_ident())
            self.expect("PUNCT", ")")
        if self.check_kw("SELECT"):
            return Insert(table=table, columns=columns,
                          select=self.parse_select())
        self.expect_kw("VALUES")
        rows: List[List[Expr]] = []
        while True:
            self.expect("PUNCT", "(")
            row = [self.parse_expr()]
            while self.accept("PUNCT", ","):
                row.append(self.parse_expr())
            self.expect("PUNCT", ")")
            rows.append(row)
            if not self.accept("PUNCT", ","):
                break
        return Insert(table=table, columns=columns, rows=rows)

    def parse_update(self) -> Update:
        self.expect_kw("UPDATE")
        table = self.expect_ident()
        self.expect_kw("SET")
        sets = [self.parse_set_clause()]
        while self.accept("PUNCT", ","):
            sets.append(self.parse_set_clause())
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return Update(table=table, sets=sets, where=where)

    def parse_set_clause(self) -> SetClause:
        column = self.expect_ident()
        self.expect("OP", "=")
        return SetClause(column=column, value=self.parse_expr())

    def parse_delete(self) -> Delete:
        self.expect_kw("DELETE")
        self.expect_kw("FROM")
        table = self.expect_ident()
        where = None
        if self.accept_kw("WHERE"):
            where = self.parse_expr()
        return Delete(table=table, where=where)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_kw("CREATE")
        or_replace = False
        if self.accept_kw("OR"):
            self.expect_kw("REPLACE")
            or_replace = True
        if self.accept_kw("TABLE"):
            return self.parse_create_table()
        unique = bool(self.accept_kw("UNIQUE"))
        if self.accept_kw("INDEX"):
            return self.parse_create_index(unique)
        if self.accept_kw("FUNCTION"):
            return self.parse_create_function(or_replace)
        raise self.error("expected TABLE, INDEX or FUNCTION")

    def _accept_if_not_exists(self) -> bool:
        if self.check_kw("IF"):
            self.advance()
            self.expect_kw("NOT")
            if not (self.check("IDENT") and
                    self.current.value.upper() == "EXISTS") \
                    and not self.check_kw("EXISTS"):
                raise self.error("expected EXISTS")
            self.advance()
            return True
        return False

    def parse_create_table(self) -> CreateTable:
        if_not_exists = self._accept_if_not_exists()
        name = self.expect_ident()
        self.expect("PUNCT", "(")
        columns: List[ColumnDefNode] = []
        primary_key: List[str] = []
        checks: List[Expr] = []
        while True:
            if self.check_kw("PRIMARY"):
                self.advance()
                self.expect_kw("KEY")
                self.expect("PUNCT", "(")
                primary_key.append(self.expect_ident())
                while self.accept("PUNCT", ","):
                    primary_key.append(self.expect_ident())
                self.expect("PUNCT", ")")
            elif self.check_kw("CHECK"):
                self.advance()
                self.expect("PUNCT", "(")
                checks.append(self.parse_expr())
                self.expect("PUNCT", ")")
            else:
                columns.append(self.parse_column_def())
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ")")
        for col in columns:
            if col.primary_key:
                primary_key.append(col.name)
        return CreateTable(name=name, columns=columns,
                           primary_key=primary_key, checks=checks,
                           if_not_exists=if_not_exists)

    def parse_type_name(self) -> str:
        tok = self.current
        if tok.kind == "KEYWORD" and tok.value in _TYPE_KEYWORDS:
            self.advance()
            name = tok.value
            if name == "DOUBLE":
                self.accept_kw("PRECISION")
                name = "FLOAT"
            if name in {"VARCHAR", "CHAR", "NUMERIC", "DECIMAL"}:
                if self.accept("PUNCT", "("):
                    self.expect("NUMBER")
                    if self.accept("PUNCT", ","):
                        self.expect("NUMBER")
                    self.expect("PUNCT", ")")
            return name
        if tok.kind == "IDENT" and tok.value.lower() in {"void", "int4",
                                                         "int8", "real"}:
            self.advance()
            return tok.value.upper()
        raise self.error("expected a type name")

    def parse_column_def(self) -> ColumnDefNode:
        name = self.expect_ident()
        type_name = self.parse_type_name()
        col = ColumnDefNode(name=name, type_name=type_name)
        while True:
            if self.accept_kw("NOT"):
                self.expect_kw("NULL")
                col.not_null = True
            elif self.accept_kw("NULL"):
                pass
            elif self.check_kw("PRIMARY"):
                self.advance()
                self.expect_kw("KEY")
                col.primary_key = True
                col.not_null = True
            elif self.accept_kw("UNIQUE"):
                col.unique = True
            elif self.accept_kw("DEFAULT"):
                col.default = self.parse_expr()
            elif self.accept_kw("CHECK"):
                self.expect("PUNCT", "(")
                col.check = self.parse_expr()
                self.expect("PUNCT", ")")
            else:
                break
        return col

    def parse_create_index(self, unique: bool) -> CreateIndex:
        if_not_exists = self._accept_if_not_exists()
        name = self.expect_ident()
        self.expect_kw("ON")
        table = self.expect_ident()
        self.expect("PUNCT", "(")
        columns = [self.expect_ident()]
        while self.accept("PUNCT", ","):
            columns.append(self.expect_ident())
        self.expect("PUNCT", ")")
        return CreateIndex(name=name, table=table, columns=columns,
                           unique=unique, if_not_exists=if_not_exists)

    def parse_create_function(self, or_replace: bool) -> CreateFunction:
        name = self.expect_ident()
        self.expect("PUNCT", "(")
        params: List[Tuple[str, str]] = []
        if not self.check("PUNCT", ")"):
            while True:
                pname = self.expect_ident()
                ptype = self.parse_type_name()
                params.append((pname, ptype))
                if not self.accept("PUNCT", ","):
                    break
        self.expect("PUNCT", ")")
        returns = "VOID"
        if self.accept_kw("RETURNS"):
            returns = self.parse_type_name()
        self.expect_kw("AS")
        body_tok = self.expect("STRING")
        if self.accept_kw("LANGUAGE"):
            self.expect_ident()
        return CreateFunction(name=name, params=params, returns=returns,
                              body=body_tok.value, or_replace=or_replace)

    def parse_drop(self) -> Statement:
        self.expect_kw("DROP")
        if self.accept_kw("TABLE"):
            name = self.expect_ident()
            return DropTable(name=name)
        if self.accept_kw("FUNCTION"):
            name = self.expect_ident()
            if self.accept("PUNCT", "("):
                # Ignore the signature in DROP FUNCTION name(type, ...)
                depth = 1
                while depth:
                    tok = self.advance()
                    if tok.kind == "EOF":
                        raise self.error("unterminated DROP FUNCTION args")
                    if tok.kind == "PUNCT" and tok.value == "(":
                        depth += 1
                    elif tok.kind == "PUNCT" and tok.value == ")":
                        depth -= 1
            return DropFunction(name=name)
        raise self.error("expected TABLE or FUNCTION")

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        left = self.parse_and()
        while self.accept_kw("OR"):
            left = BinaryOp("OR", left, self.parse_and())
        return left

    def parse_and(self) -> Expr:
        left = self.parse_not()
        while self.accept_kw("AND"):
            left = BinaryOp("AND", left, self.parse_not())
        return left

    def parse_not(self) -> Expr:
        if self.accept_kw("NOT"):
            return UnaryOp("NOT", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expr:
        left = self.parse_additive()
        while True:
            if self.check("OP") and self.current.value in {
                    "=", "<>", "!=", "<", "<=", ">", ">="}:
                op = self.advance().value
                if op == "!=":
                    op = "<>"
                left = BinaryOp(op, left, self.parse_additive())
                continue
            if self.check_kw("IS"):
                self.advance()
                negated = bool(self.accept_kw("NOT"))
                self.expect_kw("NULL")
                left = IsNull(left, negated=negated)
                continue
            negated = False
            if self.check_kw("NOT") and self.tokens[self.index + 1].kind == \
                    "KEYWORD" and self.tokens[self.index + 1].value in {
                    "BETWEEN", "IN", "LIKE"}:
                self.advance()
                negated = True
            if self.accept_kw("BETWEEN"):
                low = self.parse_additive()
                self.expect_kw("AND")
                high = self.parse_additive()
                left = Between(left, low, high, negated=negated)
                continue
            if self.accept_kw("IN"):
                self.expect("PUNCT", "(")
                if self.check_kw("SELECT"):
                    sub = self.parse_select()
                    self.expect("PUNCT", ")")
                    left = BinaryOp("IN_SUBQUERY", left,
                                    SubqueryExpr(sub))
                else:
                    items = [self.parse_expr()]
                    while self.accept("PUNCT", ","):
                        items.append(self.parse_expr())
                    self.expect("PUNCT", ")")
                    left = InList(left, items, negated=negated)
                continue
            if self.accept_kw("LIKE"):
                left = Like(left, self.parse_additive(), negated=negated)
                continue
            if negated:
                raise self.error("expected BETWEEN, IN or LIKE after NOT")
            break
        return left

    def parse_additive(self) -> Expr:
        left = self.parse_multiplicative()
        while self.check("OP") and self.current.value in {"+", "-", "||"}:
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> Expr:
        left = self.parse_unary()
        while self.check("OP") and self.current.value in {"*", "/", "%"}:
            op = self.advance().value
            left = BinaryOp(op, left, self.parse_unary())
        return left

    def parse_unary(self) -> Expr:
        if self.check("OP") and self.current.value in {"-", "+"}:
            op = self.advance().value
            return UnaryOp(op, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self.parse_primary()
        while self.check("OP", "::"):  # cast — keep the operand type-light
            self.advance()
            self.parse_type_name()
        return expr

    def parse_primary(self) -> Expr:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            text = tok.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if tok.kind == "STRING":
            self.advance()
            return Literal(tok.value)
        if tok.kind == "PARAM":
            self.advance()
            return Param(tok.value)
        if tok.kind == "KEYWORD":
            if tok.value in {"TRUE", "FALSE"}:
                self.advance()
                return Literal(tok.value == "TRUE")
            if tok.value == "NULL":
                self.advance()
                return Literal(None)
            if tok.value == "NOW":
                self.advance()
                self.expect("PUNCT", "(")
                self.expect("PUNCT", ")")
                return FunctionCall(name="now")
            if tok.value == "INTERVAL":
                self.advance()
                text_tok = self.expect("STRING")
                return self._interval_from_text(text_tok.value)
            if tok.value == "CASE":
                return self.parse_case()
            if tok.value in {"COUNT", "SUM", "AVG", "MIN", "MAX"}:
                self.advance()
                return self.parse_function_call(tok.value.lower())
            if tok.value == "EXISTS":
                self.advance()
                self.expect("PUNCT", "(")
                sub = self.parse_select()
                self.expect("PUNCT", ")")
                return SubqueryExpr(sub, exists=True)
            if tok.value == "SELECT":
                sub = self.parse_select()
                return SubqueryExpr(sub)
        if tok.kind == "PUNCT" and tok.value == "(":
            self.advance()
            if self.check_kw("SELECT"):
                sub = self.parse_select()
                self.expect("PUNCT", ")")
                return SubqueryExpr(sub)
            expr = self.parse_expr()
            self.expect("PUNCT", ")")
            return expr
        if tok.kind == "IDENT" or (tok.kind == "KEYWORD"
                                   and tok.value in _SOFT_IDENT_KEYWORDS):
            raw = self.advance().value
            name = raw.lower() if tok.kind == "KEYWORD" else raw
            if self.check("PUNCT", "("):
                return self.parse_function_call(name.lower())
            if self.accept("PUNCT", "."):
                if self.check("OP", "*"):
                    self.advance()
                    return Star(table=name)
                column = self.expect_ident()
                return ColumnRef(name=column, table=name)
            return ColumnRef(name=name)
        raise self.error("expected an expression")

    def _interval_from_text(self, text: str) -> IntervalLiteral:
        parts = text.strip().split()
        if len(parts) != 2:
            raise self.error(f"cannot parse interval {text!r}")
        try:
            qty = float(parts[0])
        except ValueError:
            raise self.error(f"cannot parse interval {text!r}") from None
        unit = parts[1].lower()
        if unit not in _INTERVAL_UNITS:
            raise self.error(f"unknown interval unit {parts[1]!r}")
        return IntervalLiteral(seconds=qty * _INTERVAL_UNITS[unit], text=text)

    def parse_function_call(self, name: str) -> FunctionCall:
        self.expect("PUNCT", "(")
        call = FunctionCall(name=name)
        if self.check("OP", "*"):
            self.advance()
            call.star = True
            self.expect("PUNCT", ")")
            return call
        if self.accept_kw("DISTINCT"):
            call.distinct = True
        if not self.check("PUNCT", ")"):
            call.args.append(self.parse_expr())
            while self.accept("PUNCT", ","):
                call.args.append(self.parse_expr())
        self.expect("PUNCT", ")")
        return call

    def parse_case(self) -> CaseExpr:
        self.expect_kw("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self.accept_kw("WHEN"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            whens.append((cond, self.parse_expr()))
        else_ = None
        if self.accept_kw("ELSE"):
            else_ = self.parse_expr()
        self.expect_kw("END")
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        return CaseExpr(whens=whens, else_=else_)

    # ------------------------------------------------------------------
    # PL bodies (smart-contract procedures)
    # ------------------------------------------------------------------

    def parse_pl_block(self) -> PLBlock:
        declarations: List[Tuple[str, str, Optional[Expr]]] = []
        if self.accept_kw("DECLARE"):
            while not self.check_kw("BEGIN"):
                name = self.expect_ident()
                type_name = self.parse_type_name()
                init: Optional[Expr] = None
                if self.check("OP", "="):
                    self.advance()
                    init = self.parse_expr()
                self.expect("PUNCT", ";")
                declarations.append((name, type_name, init))
        self.expect_kw("BEGIN")
        statements = self.parse_pl_statements(end_keywords=("END",))
        self.expect_kw("END")
        self.accept("PUNCT", ";")
        return PLBlock(declarations=declarations, statements=statements)

    def parse_pl_statements(self, end_keywords) -> List[Statement]:
        statements: List[Statement] = []
        while not self.check_kw(*end_keywords) and not self.check("EOF"):
            statements.append(self.parse_pl_statement())
        return statements

    def parse_pl_statement(self) -> Statement:
        if self.check_kw("IF"):
            return self.parse_pl_if()
        if self.check_kw("RAISE"):
            self.advance()
            level = "EXCEPTION"
            if self.accept_kw("NOTICE"):
                level = "NOTICE"
            else:
                self.accept_kw("EXCEPTION")
            message = self.parse_expr()
            self.expect("PUNCT", ";")
            return PLRaise(level=level, message=message)
        if self.check_kw("RETURN"):
            self.advance()
            value = None
            if not self.check("PUNCT", ";"):
                value = self.parse_expr()
            self.expect("PUNCT", ";")
            return PLReturn(value=value)
        if self.check_kw("PERFORM"):
            self.advance()
            # PERFORM behaves like SELECT without the keyword.
            saved = self.index
            self.tokens.insert(saved, Token("KEYWORD", "SELECT", 0, 0))
            select = self.parse_select()
            self.expect("PUNCT", ";")
            return PLPerform(select=select)
        if self.check_kw("SELECT", "INSERT", "UPDATE", "DELETE", "CREATE",
                         "DROP", "PROVENANCE"):
            stmt = self.parse_statement()
            self.expect("PUNCT", ";")
            return stmt
        # assignment: ident = expr ;  (PL/pgSQL uses :=, we accept = too)
        if self.check("IDENT"):
            name = self.advance().value
            if self.check("OP", "::"):  # var := expr written as var ::= ?
                raise self.error("unsupported operator in assignment")
            self.expect("OP", "=")
            value = self.parse_expr()
            self.expect("PUNCT", ";")
            return PLAssign(name=name, value=value)
        raise self.error("expected a procedural statement")

    def parse_pl_if(self) -> PLIf:
        self.expect_kw("IF")
        branches: List[Tuple[Expr, List[Statement]]] = []
        cond = self.parse_expr()
        self.expect_kw("THEN")
        body = self.parse_pl_statements(("ELSIF", "ELSE", "END"))
        branches.append((cond, body))
        while self.accept_kw("ELSIF"):
            cond = self.parse_expr()
            self.expect_kw("THEN")
            branches.append(
                (cond, self.parse_pl_statements(("ELSIF", "ELSE", "END"))))
        else_body: List[Statement] = []
        if self.accept_kw("ELSE"):
            else_body = self.parse_pl_statements(("END",))
        self.expect_kw("END")
        self.expect_kw("IF")
        self.expect("PUNCT", ";")
        return PLIf(branches=branches, else_body=else_body)


# ---------------------------------------------------------------------------
# Parse cache — SQL text → shared parse tree
# ---------------------------------------------------------------------------
#
# Stored procedures and re-executed transactions replay the same statement
# text on every replica; re-lexing and re-parsing per execution is pure
# overhead.  The cache hands out the *same* AST objects each time — safe
# because the tree is immutable after parsing (the planner resolves ORDER
# BY aliases into a side list precisely so no pass mutates it), and
# required for the statement fast path: plan-cache fingerprints and
# compiled-expression memos attach to the node objects.

_PARSE_CACHE: "OrderedDict[str, Tuple[Statement, ...]]" = OrderedDict()
_PARSE_CACHE_LOCK = threading.Lock()
PARSE_CACHE_CAPACITY = 512
#: Bound on the total characters of cached script text.  The newest
#: entry always stays, so the nodes of one network share one parse of a
#: genesis seed larger than this, and the next network's evicts it —
#: a tree costs tens of bytes per character of its text.
PARSE_CACHE_CHARS = 1 << 18


def clear_parse_cache() -> None:
    """Drop every cached parse tree (benchmarks measuring cold runs)."""
    with _PARSE_CACHE_LOCK:
        _PARSE_CACHE.clear()


def parse_sql(text: str, use_cache: bool = True) -> List[Statement]:
    """Parse a ;-separated SQL script (memoized on the exact text)."""
    if use_cache:
        with _PARSE_CACHE_LOCK:
            cached = _PARSE_CACHE.get(text)
            if cached is not None:
                _PARSE_CACHE.move_to_end(text)
                return list(cached)
    statements = Parser(text).parse_statements()
    if use_cache:
        with _PARSE_CACHE_LOCK:
            _PARSE_CACHE[text] = tuple(statements)
            _PARSE_CACHE.move_to_end(text)
            chars = sum(map(len, _PARSE_CACHE))
            while len(_PARSE_CACHE) > PARSE_CACHE_CAPACITY or (
                    chars > PARSE_CACHE_CHARS and len(_PARSE_CACHE) > 1):
                chars -= len(_PARSE_CACHE.popitem(last=False)[0])
    return statements


def parse_one(text: str) -> Statement:
    """Parse exactly one statement."""
    statements = parse_sql(text)
    if len(statements) != 1:
        raise SQLSyntaxError(
            f"expected exactly one statement, got {len(statements)}")
    return statements[0]


_BODY_CACHE: Dict[str, PLBlock] = {}
_BODY_CACHE_LOCK = threading.Lock()


def parse_procedure_body(text: str) -> PLBlock:
    """Parse a PL body (DECLARE ... BEGIN ... END).

    Memoized: every node of a network deploys the same contract text, and
    the shared tree lets compiled-expression memos amortize across nodes.
    """
    with _BODY_CACHE_LOCK:
        cached = _BODY_CACHE.get(text)
    if cached is not None:
        return cached
    parser = Parser(text)
    block = parser.parse_pl_block()
    if not parser.check("EOF"):
        raise parser.error("trailing tokens after END")
    with _BODY_CACHE_LOCK:
        if len(_BODY_CACHE) > PARSE_CACHE_CAPACITY:
            _BODY_CACHE.clear()
        _BODY_CACHE[text] = block
    return block
