"""Aggregate kernels: ``HashAggregate`` (:mod:`repro.sql.plan`) and
``ColumnarAggregate`` (:mod:`repro.analytics.operators`) rank groups,
split columns and fold through these functions alone, so a value cannot
depend on which store served the read (docs/analytics.md, "Aggregate
kernels"; docs/sql_engine.md, "The read path")."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError
from repro.sql.expressions import compare_values


def bucket_key(values: Sequence[Any]) -> tuple:
    """Hashable GROUP BY / DISTINCT key with ``=``'s equal: Python
    already hashes ``2``, ``2.0``, ``Decimal(2)`` (and ``TRUE``, ``1``)
    alike; NaN, equal to itself under ``=`` only, needs a stand-in."""
    return tuple(v if v == v else NAN_BUCKET for v in values)


NAN_BUCKET = ("NaN",)

# How one aggregate folds its non-NULL argument values.
FOLD_COUNT = 0     # int state
FOLD_BUFFER = 1    # list state: sum / avg / DISTINCT, folded at the end
FOLD_MIN = 2       # running compare_values fold; EMPTY until a value
FOLD_MAX = 3
EMPTY = object()


def fold_mode(name: str, distinct: bool = False) -> int:
    if name == "min":
        return FOLD_MIN
    if name == "max":
        return FOLD_MAX
    if name == "count" and not distinct:
        return FOLD_COUNT
    if name in ("count", "sum", "avg"):
        return FOLD_BUFFER
    raise ExecutionError(f"unknown aggregate {name!r}")


def new_fold_state(mode: int) -> Any:
    return 0 if mode == FOLD_COUNT else [] if mode == FOLD_BUFFER else EMPTY


def group_ids(keys: Sequence[Any]):
    """``(ids, buckets, firsts)`` for one group key per row (a value or
    a tuple): each row's group as its rank of first appearance under
    :func:`bucket_key`'s equal, the distinct buckets in that order, and
    each group's first row position.  One ``dict`` pass; a NaN among the
    distinct keys sends them through :func:`bucket_key` first."""
    rank = dict.fromkeys(keys)
    if any(key != key or type(key) is tuple and key != bucket_key(key)
           for key in rank):
        keys = [bucket_key(key) if type(key) is tuple
                else key if key == key else NAN_BUCKET for key in keys]
        rank = dict.fromkeys(keys)
    for i, key in enumerate(rank):
        rank[key] = i
    ids = list(map(rank.__getitem__, keys))
    firsts = dict(zip(reversed(ids), range(len(ids) - 1, -1, -1)))
    return ids, list(rank), firsts


def non_null(stored, values):
    """``values`` — rows of a column stored as ``stored`` — without the
    NULLs (``values`` itself when it holds none; a typed array never)."""
    return values if type(stored) is array or None not in values \
        else [v for v in values if v is not None]


def split_groups(ids: Sequence[int], groups: int,
                 values_of: Dict[Any, Sequence[Any]], stored_of):
    """``(rows per group id, {column: one value list per group})``: row
    order kept, NULLs dropped (:func:`non_null` of ``stored_of``'s
    entry).  Ids may be negative: a dictionary's NULL code is -1."""
    parts: Dict[Any, List[List[Any]]] = {}
    counts: Any = None
    for name, values in values_of.items():
        part = parts[name] = [[] for _ in range(groups)]
        put = [rows.append for rows in part]
        for i, value in zip(ids, values):
            put[i](value)
        if counts is None:
            counts = list(map(len, part))
        stored = stored_of.get(name)
        if type(stored) is not array and None in values:
            part[:] = [non_null(stored, rows) for rows in part]
    return Counter(ids) if counts is None else counts, parts


def extend_buffer(buffer, stored, values):
    """A sum / avg buffer with ``values`` (non-NULL rows of a column
    stored as ``stored``) appended: a typed array while every
    contribution came from one typecode's storage, else a list."""
    if type(stored) is array:
        typecode = stored.typecode
        if type(buffer) is array:
            if buffer.typecode == typecode:
                if type(values) is list:
                    buffer.fromlist(values)     # half extend()'s cost
                else:
                    buffer.extend(values)
                return buffer
        elif not buffer:
            return array(typecode, values)
    if type(buffer) is array:
        buffer = buffer.tolist()
    buffer.extend(values)
    return buffer


def extreme(mode: int, values) -> Any:
    """``min`` / ``max`` of non-NULL ``values`` under ``compare_values``
    (mixed numeric classes, NaN), the first of equals winning as the
    builtins have it."""
    values = iter(values)
    best = next(values)
    for value in values:
        c = compare_values(value, best)
        if c < 0 if mode == FOLD_MIN else c > 0:
            best = value
    return best


def fold(states: List[Any], modes: Sequence[int],
         columns: Sequence[Any], count: int,
         values_of: Dict[Any, Sequence[Any]], stored_of,
         ordered: Optional[Callable[[Any], bool]] = None) -> None:
    """Fold one group's ``count`` rows into ``states``: aggregate ``j``
    reads the non-NULL ``values_of[columns[j]]`` (None: ``count(*)``).
    ``min`` / ``max`` are the builtins where ``ordered(column)`` says
    Python's order is the engine's, :func:`extreme` elsewhere."""
    for j, mode in enumerate(modes):
        column = columns[j]
        if column is None:                  # count(*)
            states[j] += count
            continue
        values = values_of[column]
        if mode == FOLD_COUNT:
            states[j] += len(values)
        elif mode == FOLD_BUFFER:
            states[j] = extend_buffer(states[j], stored_of.get(column),
                                      values)
        elif values:
            if ordered is not None and ordered(column):
                best = min(values) if mode == FOLD_MIN else max(values)
            else:
                best = extreme(mode, values)
            states[j] = best if states[j] is EMPTY \
                else extreme(mode, (states[j], best))


def finish_fold(name: str, mode: int, state: Any,
                distinct: bool = False) -> Any:
    """An aggregate's value from its final fold state."""
    if mode == FOLD_COUNT:
        return state
    if mode != FOLD_BUFFER:
        return None if state is EMPTY else state
    if distinct:
        unique: List[Any] = []
        for value in state:
            if not any(compare_values(value, u) == 0 for u in unique):
                unique.append(value)
        state = unique
    if name == "count":
        return len(state)
    if not state:
        return None
    total = fold_sum(state)
    return total if name == "sum" else total / len(state)


def fold_sum(values: Sequence[Any]) -> Any:
    """Order-independent SUM (docs/sql_engine.md, "Why `fsum` makes it
    sound"): all-float inputs are ``math.fsum``-ed, exactly rounded, and
    an intermediate overflow is decided by the exact rational sum, so
    the outcome is a function of the values alone; exact and mixed types
    fold sequentially, where order cannot change the result (or the
    planner keeps content order).  A typed ``array`` buffer skips the
    type scan: ``'d'`` goes to ``fsum``, ``'q'`` to the exact ``sum``."""
    if not values:
        return None
    if type(values) is array:
        return _float_sum(values) if values.typecode == "d" \
            else sum(values)
    if set(map(type, values)) == _FLOAT:
        return _float_sum(values)
    total = values[0]
    for value in values[1:]:
        total = total + value
    return total


_FLOAT = {float}


def _float_sum(values: Sequence[float]) -> float:
    try:
        return math.fsum(values)
    except ValueError:
        return math.nan             # inf + -inf, IEEE's answer
    except OverflowError:
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return _float_sum(special)
        try:
            return float(sum(map(Fraction, values)))
        except OverflowError:
            raise ExecutionError(
                "float sum is out of range") from None
