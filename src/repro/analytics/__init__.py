"""Columnar analytics subsystem: per-node read replica + AS OF operators.

See :mod:`repro.analytics.columnstore` for the storage layout and
:mod:`repro.analytics.operators` for the plan operators the SQL engine
routes `SELECT ... AS OF BLOCK h` statements to (``docs/analytics.md``
has the full design)."""

from repro.analytics.columnstore import (
    ColumnChunk,
    ColumnStore,
    TableColumns,
    visible_at,
)
from repro.analytics.operators import (
    AggSpec,
    ColumnarAggregate,
    ColumnarScan,
)

__all__ = [
    "AggSpec", "ColumnChunk", "ColumnStore", "ColumnarAggregate",
    "ColumnarScan", "TableColumns", "visible_at",
]
