"""Encoded vector representations for sealed column chunks.

Pure-Python columnar storage pays per-object overhead on every value: a
3000-row TEXT column of eight distinct region names holds 3000 list
slots *and* keeps 3000 live string references.  Sealed chunks are
immutable in the value dimension (only deleter stamps mutate late), so
sealing is the natural place to re-encode:

* :class:`RLEVector` — run-length encoding for the ``creators`` /
  ``deleters`` height vectors, which are long constant runs by
  construction (a block's ingest appends one creator height; most rows
  are never deleted).  Late deleter stamps rewrite runs **in place**
  (:meth:`RLEVector.__setitem__` splits and re-merges runs), so the
  version locator keeps working against encoded chunks.
* :class:`DictVector` — dictionary encoding for low-cardinality TEXT
  columns: a sorted dictionary of distinct strings plus a typed code
  array (``-1`` = NULL).  Scans translate predicates to per-code flag
  tables once per chunk instead of comparing per row, and GROUP BY on a
  dictionary column partitions by code.
* typed ``array`` storage for NULL-free pure-``int`` / pure-``float``
  columns (``bool`` is excluded — ``array('q')`` would collapse ``True``
  to ``1`` and break byte-identity with the row store).

Every representation supports ``__len__`` / ``__getitem__`` /
``__iter__`` with the exact values the plain list held, so everything
above the chunk that reads rows (scans, audit reads, compaction,
statistics) is encoding-agnostic; the aggregate kernels are the one
reader that asks which form it was handed.  Visibility leaves here as
:data:`Span` runs (:func:`rle_visible_spans`), never as offset lists.
:func:`vector_bytes` implements the bytes-per-row accounting the
``columnstore.bytes_per_row`` gauge reports.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import chain, compress, repeat, starmap
from operator import is_
from typing import (
    Any,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

__all__ = [
    "DictVector", "RLEVector", "Span", "rle_visible_spans",
    "span_offsets", "typed_array", "vector_bytes",
]

#: A run of consecutive chunk offsets, ``start`` inclusive to ``stop``
#: exclusive — how visibility is handed to the scan operators.
Span = Tuple[int, int]


def _same(a: Any, b: Any) -> bool:
    """Run-merge equality: identity first (None, interned values), value
    equality otherwise."""
    return a is b or a == b


class RLEVector:
    """Run-length encoded vector: parallel lists of cumulative run end
    offsets (exclusive) and run values.  Random reads bisect the ends;
    writes split the containing run and re-merge equal neighbours, so a
    late deleter stamp costs O(runs) instead of re-encoding the chunk."""

    __slots__ = ("_ends", "_values")

    def __init__(self) -> None:
        self._ends: List[int] = []
        self._values: List[Any] = []

    @classmethod
    def from_list(cls, values: Sequence[Any]) -> "RLEVector":
        vec = cls()
        append = vec.append
        for value in values:
            append(value)
        return vec

    def append(self, value: Any) -> None:
        if self._values and _same(self._values[-1], value):
            self._ends[-1] += 1
            return
        self._ends.append((self._ends[-1] if self._ends else 0) + 1)
        self._values.append(value)

    def run_arrays(self) -> Tuple[List[int], List[Any]]:
        """(cumulative run ends, run values) — the raw layout, for run
        walkers like :func:`rle_visible_spans`."""
        return self._ends, self._values

    @property
    def run_count(self) -> int:
        return len(self._values)

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i: int) -> Any:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("RLEVector index out of range")
        return self._values[bisect_right(self._ends, i)]

    def __iter__(self) -> Iterator[Any]:
        prev = 0
        for end, value in zip(self._ends, self._values):
            for _ in range(prev, end):
                yield value
            prev = end

    def __setitem__(self, i: int, value: Any) -> None:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("RLEVector index out of range")
        ends, values = self._ends, self._values
        k = bisect_right(ends, i)
        old = values[k]
        if _same(old, value):
            return
        start = ends[k - 1] if k else 0
        end = ends[k]
        if end - start == 1:
            prev_eq = k > 0 and _same(values[k - 1], value)
            next_eq = k + 1 < len(values) and _same(values[k + 1], value)
            if prev_eq and next_eq:
                del ends[k - 1:k + 1]
                del values[k:k + 2]
            elif prev_eq:
                del ends[k - 1]
                del values[k]
            elif next_eq:
                del ends[k]
                del values[k]
            else:
                values[k] = value
            return
        if i == start:
            if k > 0 and _same(values[k - 1], value):
                ends[k - 1] += 1
            else:
                ends.insert(k, start + 1)
                values.insert(k, value)
            return
        if i == end - 1:
            ends[k] -= 1
            if not (k + 1 < len(values) and _same(values[k + 1], value)):
                ends.insert(k + 1, end)
                values.insert(k + 1, value)
            return
        ends[k:k + 1] = [i, i + 1, end]
        values[k:k + 1] = [old, value, old]

    def __eq__(self, other: Any) -> bool:
        # Runs are canonical (append/setitem merge equal neighbours), so
        # representation equality is value equality.  Byte-identity tests
        # compare chunk internals structurally across nodes.
        if isinstance(other, RLEVector):
            return (self._ends == other._ends
                    and self._values == other._values)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def memory_bytes(self, seen: Set[int]) -> int:
        return (sys.getsizeof(self._ends) + sys.getsizeof(self._values)
                + _payload_bytes(self._values, seen))


class DictVector:
    """Dictionary-encoded low-cardinality column: a sorted list of the
    distinct strings plus a signed typed code array (``-1`` = NULL).
    The sorted dictionary makes code order equal value order, so per-code
    flag tables and per-code aggregation reproduce value-space semantics
    exactly, and the planner's NDV statistic is ``len(dictionary)`` for
    free on fully-visible chunks."""

    __slots__ = ("dictionary", "codes")

    def __init__(self, dictionary: List[str], codes: array) -> None:
        self.dictionary = dictionary
        self.codes = codes

    @classmethod
    def encode(cls, values: Sequence[Any],
               max_ndv: int) -> Optional["DictVector"]:
        """Encode ``values`` when every non-NULL entry is exactly ``str``
        (subclasses would round-trip as plain str and break identity)
        and the cardinality stays within ``max_ndv``; None otherwise."""
        distinct: Set[str] = set()
        for value in values:
            if value is None:
                continue
            if type(value) is not str:
                return None
            distinct.add(value)
            if len(distinct) > max_ndv:
                return None
        if not distinct:
            return None
        dictionary = sorted(distinct)
        code_of = {value: code for code, value in enumerate(dictionary)}
        typecode = ("b" if len(dictionary) <= 127
                    else "h" if len(dictionary) <= 32767 else "l")
        codes = array(typecode,
                      (code_of[v] if v is not None else -1 for v in values))
        return cls(dictionary, codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i: int) -> Optional[str]:
        code = self.codes[i]
        return self.dictionary[code] if code >= 0 else None

    def __iter__(self) -> Iterator[Optional[str]]:
        dictionary = self.dictionary
        for code in self.codes:
            yield dictionary[code] if code >= 0 else None

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, DictVector):
            return (self.dictionary == other.dictionary
                    and self.codes == other.codes)
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def memory_bytes(self, seen: Set[int]) -> int:
        return (sys.getsizeof(self.codes) + sys.getsizeof(self.dictionary)
                + _payload_bytes(self.dictionary, seen))


def rle_visible_spans(creators: RLEVector, deleters: RLEVector,
                      height: int, settled: bool = False
                      ) -> Tuple[List[Span], int]:
    """Visible rows at ``height`` as ``(start, stop)`` spans, ascending
    and disjoint, by intersecting the creator and deleter run lists
    (two-pointer walk): one visibility decision per intersected run
    instead of per row.  Returns ``(spans, runs)`` where ``runs`` is the
    number of intersected runs (the ``columnstore.rle_runs_scanned``
    counter).

    ``settled`` says every creator and every deleter stamp is at or
    below ``height`` — a read at the latest height, the usual one.  The
    visible rows are then exactly the deleter runs that carry no stamp,
    read off in one pass with no walk."""
    c_ends, c_values = creators.run_arrays()
    d_ends, d_values = deleters.run_arrays()
    if settled:
        starts = [0]
        starts += d_ends
        return (list(compress(zip(starts, d_ends),
                              map(is_, d_values, repeat(None)))),
                len(d_ends) + len(set(c_ends).difference(d_ends)))
    spans: List[Span] = []
    runs = 0
    ci = di = pos = 0
    n = c_ends[-1] if c_ends else 0
    while pos < n:
        c_end = c_ends[ci]
        d_end = d_ends[di]
        end = c_end if c_end < d_end else d_end
        runs += 1
        deleter = d_values[di]
        if c_values[ci] <= height and \
                (deleter is None or deleter > height):
            if spans and spans[-1][1] == pos:
                spans[-1] = (spans[-1][0], end)
            else:
                spans.append((pos, end))
        pos = end
        if pos == c_end:
            ci += 1
        if pos == d_end:
            di += 1
    return spans, runs


def span_offsets(spans: Iterable[Span]) -> Iterator[int]:
    """Every offset of ``spans``, ascending — for the readers that
    still want rows one at a time (audit, statistics, row scans)."""
    return chain.from_iterable(starmap(range, spans))


def typed_array(vector: Sequence[Any]) -> Optional[array]:
    """A typed ``array`` holding ``vector`` when every element is exactly
    ``int`` (→ ``'q'``) or exactly ``float`` (→ ``'d'``); None for
    anything else (NULLs, bools, strings, mixes, ints beyond 64 bits).
    Exact ``type`` checks keep ``True``/``1`` and Decimal out — encoded
    reads must return byte-identical values."""
    kinds = {type(value) for value in vector}
    if kinds == {int}:
        try:
            return array("q", vector)
        except OverflowError:
            return None
    if kinds == {float}:
        return array("d", vector)
    return None


#: CPython interns small ints in [-5, 256] and the singletons — shared
#: process-wide, so they cost a chunk nothing extra.
_INTERNED_INT_LOW, _INTERNED_INT_HIGH = -5, 256


def _payload_bytes(values, seen: Set[int]) -> int:
    """Bytes held by the distinct payload objects of ``values``:
    deduplicated by identity across every vector of a measurement pass
    (``seen``), skipping interned values the process shares anyway."""
    total = 0
    for value in values:
        if value is None or value is True or value is False:
            continue
        if type(value) is int and \
                _INTERNED_INT_LOW <= value <= _INTERNED_INT_HIGH:
            continue
        key = id(value)
        if key in seen:
            continue
        seen.add(key)
        total += sys.getsizeof(value)
    return total


def vector_bytes(vector: Any, seen: Set[int]) -> int:
    """Memory accounting for one chunk vector: container bytes plus the
    distinct payload objects it keeps alive (see ``_payload_bytes``).
    Typed arrays carry their buffer inside ``getsizeof``."""
    if isinstance(vector, array):
        return sys.getsizeof(vector)
    if isinstance(vector, (RLEVector, DictVector)):
        return vector.memory_bytes(seen)
    return sys.getsizeof(vector) + _payload_bytes(vector, seen)
