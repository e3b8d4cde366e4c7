"""SQL engine: lexer, parser, expression evaluation and execution."""

from repro.sql.catalog import (
    Catalog,
    ColumnDef,
    SCHEMA_BLOCKCHAIN,
    SCHEMA_PRIVATE,
    TableSchema,
    coerce_value,
)
from repro.sql.catalog import TableStats
from repro.sql.executor import AccessChecker, Executor, Result, run_sql
from repro.sql.parser import parse_one, parse_procedure_body, parse_sql
from repro.sql.planner import Planner

__all__ = [
    "Catalog", "ColumnDef", "SCHEMA_BLOCKCHAIN", "SCHEMA_PRIVATE",
    "TableSchema", "TableStats", "coerce_value", "AccessChecker",
    "Executor", "Planner", "Result",
    "run_sql", "parse_one", "parse_procedure_body", "parse_sql",
]
