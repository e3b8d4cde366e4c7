"""System catalog: schemas, table definitions, constraints, types.

The paper's node hosts a *blockchain* schema (all mutations must go through
smart contracts, everything is versioned and replicated) and an optional
*non-blockchain* schema private to the organization (section 3.7).  The
catalog tracks which schema each table belongs to; the executor enforces
the access rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import CatalogError, TypeMismatchError
from repro.sql.ast_nodes import Expr
from repro.storage.index import Index
from repro.storage.table import HeapTable

SCHEMA_BLOCKCHAIN = "blockchain"
SCHEMA_PRIVATE = "nonblockchain"

_INT_TYPES = {"INT", "INTEGER", "BIGINT", "SERIAL", "INT4", "INT8"}
_FLOAT_TYPES = {"FLOAT", "DOUBLE", "REAL"}
_NUMERIC_TYPES = {"NUMERIC", "DECIMAL"}
_TEXT_TYPES = {"TEXT", "VARCHAR", "CHAR"}
_BOOL_TYPES = {"BOOLEAN"}
_TS_TYPES = {"TIMESTAMP"}


def coerce_value(value: Any, type_name: str, column: str) -> Any:
    """Coerce ``value`` to the declared column type; raise
    :class:`TypeMismatchError` when impossible."""
    if value is None:
        return None
    t = type_name.upper()
    try:
        if t in _INT_TYPES:
            if isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {column!r}: boolean is not an integer")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
            if isinstance(value, Decimal) and value == value.to_integral():
                return int(value)
            raise TypeMismatchError(
                f"column {column!r}: cannot coerce {value!r} to integer")
        if t in _FLOAT_TYPES or t in _TS_TYPES:
            if isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {column!r}: boolean is not numeric")
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, (str, Decimal)):
                return float(value)
            raise TypeMismatchError(
                f"column {column!r}: cannot coerce {value!r} to float")
        if t in _NUMERIC_TYPES:
            if isinstance(value, bool):
                raise TypeMismatchError(
                    f"column {column!r}: boolean is not numeric")
            if isinstance(value, Decimal):
                return value
            if isinstance(value, (int, str)):
                return Decimal(value)
            if isinstance(value, float):
                return Decimal(str(value))
            raise TypeMismatchError(
                f"column {column!r}: cannot coerce {value!r} to numeric")
        if t in _TEXT_TYPES:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float, Decimal, bool)):
                return str(value)
            raise TypeMismatchError(
                f"column {column!r}: cannot coerce {value!r} to text")
        if t in _BOOL_TYPES:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            if isinstance(value, str) and value.lower() in ("true", "false",
                                                            "t", "f"):
                return value.lower() in ("true", "t")
            raise TypeMismatchError(
                f"column {column!r}: cannot coerce {value!r} to boolean")
    except (ValueError, InvalidOperation):
        raise TypeMismatchError(
            f"column {column!r}: cannot coerce {value!r} to {t}") from None
    raise TypeMismatchError(f"column {column!r}: unknown type {type_name!r}")


def value_class(type_name: str) -> Optional[str]:
    """The one Python class :func:`coerce_value` leaves in a column of
    this declared type — ``"int"``, ``"float"``, ``"text"`` or
    ``"bool"`` — or None where the planner should assume nothing
    (NUMERIC: Decimal arithmetic rounds to a context precision)."""
    t = type_name.upper()
    if t in _INT_TYPES:
        return "int"
    if t in _FLOAT_TYPES or t in _TS_TYPES:
        return "float"
    if t in _TEXT_TYPES:
        return "text"
    if t in _BOOL_TYPES:
        return "bool"
    return None


@dataclass(frozen=True)
class TableStats:
    """Planner-facing statistics for one table (see HeapTable counters)."""

    table: str
    live_rows: int
    total_versions: int
    vacuumed_versions: int
    index_count: int


@dataclass
class ColumnDef:
    """Declared column."""

    name: str
    type_name: str
    not_null: bool = False
    default: Optional[Expr] = None
    check: Optional[Expr] = None


@dataclass
class TableSchema:
    """Declared shape of a table."""

    name: str
    columns: List[ColumnDef]
    primary_key: List[str] = field(default_factory=list)
    unique_constraints: List[List[str]] = field(default_factory=list)
    checks: List[Expr] = field(default_factory=list)
    schema: str = SCHEMA_BLOCKCHAIN
    system: bool = False  # system tables (pgLedger) bypass contract rules

    def column(self, name: str) -> ColumnDef:
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_names(self) -> List[str]:
        return [col.name for col in self.columns]

    def has_column(self, name: str) -> bool:
        return any(col.name == name for col in self.columns)


class Catalog:
    """All tables and indexes of one database node.

    ``version`` is a monotonic counter bumped on every DDL change and on
    vacuum-driven statistics drift.  Cached physical plans embed the
    version they were built under, so any bump atomically invalidates
    every stale plan (listeners — e.g. the plan cache — are notified so
    they can purge eagerly).
    """

    def __init__(self):
        self._schemas: Dict[str, TableSchema] = {}
        self._heaps: Dict[str, HeapTable] = {}
        self._version = 0
        self._fingerprint: Optional[int] = None
        self._version_listeners: List[Any] = []
        self._drop_listeners: List[Any] = []

    # -- versioning --------------------------------------------------------

    @property
    def version(self) -> int:
        return self._version

    @property
    def version_token(self) -> tuple:
        """``(version, structure fingerprint)`` — the plan-cache key
        component.  The fingerprint hashes the full structural catalog
        (tables, columns, types, constraints, indexes), so two *different*
        catalogs that happen to share a version count (nodes whose private
        schemas diverged) can never serve each other's templates from a
        process-shared plan cache, while nodes that applied the identical
        DDL sequence converge on the same token and share."""
        if self._fingerprint is None:
            self._fingerprint = self._structure_fingerprint()
        return (self._version, self._fingerprint)

    def _structure_fingerprint(self) -> int:
        parts = []
        for name in sorted(self._schemas):
            schema = self._schemas[name]
            heap = self._heaps[name]
            parts.append((
                name, schema.schema, schema.system,
                tuple((c.name, c.type_name.upper(), c.not_null,
                       repr(c.default), repr(c.check))
                      for c in schema.columns),
                tuple(schema.primary_key),
                tuple(tuple(cols) for cols in schema.unique_constraints),
                tuple(repr(check) for check in schema.checks),
                tuple(sorted((i.name, i.columns, i.unique)
                             for i in heap.indexes.values())),
            ))
        return hash(tuple(parts))

    def bump_version(self) -> int:
        """Advance the catalog version (DDL or stats drift occurred)."""
        self._version += 1
        self._fingerprint = None
        for listener in self._version_listeners:
            listener(self._version)
        return self._version

    def add_version_listener(self, listener) -> None:
        """``listener(new_version)`` fires after every bump."""
        self._version_listeners.append(listener)

    def add_drop_listener(self, listener) -> None:
        """``listener(table_name)`` fires when a table is dropped —
        replicas holding per-table state (the columnar store) must not
        serve a later re-creation from the old copies."""
        self._drop_listeners.append(listener)

    # -- tables ------------------------------------------------------------

    def create_table(self, schema: TableSchema,
                     if_not_exists: bool = False) -> HeapTable:
        if schema.name in self._schemas:
            if if_not_exists:
                return self._heaps[schema.name]
            raise CatalogError(f"table {schema.name!r} already exists")
        heap = HeapTable(schema.name)
        self._schemas[schema.name] = schema
        self._heaps[schema.name] = heap
        # The primary key is automatically a unique index (and satisfies the
        # paper's index-backed-predicate requirement for PK lookups).
        if schema.primary_key:
            heap.add_index(Index(
                name=f"{schema.name}_pkey", table_name=schema.name,
                columns=schema.primary_key, unique=True))
        for cols in schema.unique_constraints:
            heap.add_index(Index(
                name=f"{schema.name}_{'_'.join(cols)}_key",
                table_name=schema.name, columns=cols, unique=True))
        self.bump_version()
        return heap

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        if name not in self._schemas:
            if if_exists:
                return
            raise CatalogError(f"table {name!r} does not exist")
        del self._schemas[name]
        del self._heaps[name]
        for listener in self._drop_listeners:
            listener(name)
        self.bump_version()

    def schema_of(self, name: str) -> TableSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def heap_of(self, name: str) -> HeapTable:
        try:
            return self._heaps[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def table_names(self) -> List[str]:
        return sorted(self._schemas)

    # -- statistics --------------------------------------------------------

    def stats_of(self, name: str) -> TableStats:
        """Live row / version counts maintained by the heap (updated on
        insert, commit, abort and vacuum) — the planner's costing input."""
        heap = self.heap_of(name)
        return TableStats(
            table=name,
            live_rows=heap.live_rows,
            total_versions=len(heap),
            vacuumed_versions=heap.vacuumed_versions,
            index_count=len(heap.indexes))

    def stats(self) -> Dict[str, TableStats]:
        return {name: self.stats_of(name) for name in self.table_names()}

    # -- indexes -----------------------------------------------------------

    def create_index(self, name: str, table: str, columns: Sequence[str],
                     unique: bool = False,
                     if_not_exists: bool = False) -> Index:
        heap = self.heap_of(table)
        schema = self.schema_of(table)
        for col in columns:
            schema.column(col)  # validates existence
        if name in heap.indexes:
            if if_not_exists:
                return heap.indexes[name]
            raise CatalogError(f"index {name!r} already exists")
        index = Index(name=name, table_name=table, columns=columns,
                      unique=unique)
        heap.add_index(index)
        self.bump_version()
        return index
