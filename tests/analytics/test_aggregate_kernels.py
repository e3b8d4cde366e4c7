"""Oracle and coverage for ``ColumnarAggregate``'s kernels.

``ColumnarAggregate`` folds a chunk in three column-at-a-time stages
(docs/analytics.md, "Aggregate kernels").  The per-offset interpreter
it replaced lives on here, verbatim, as the reference: for any chunk
history, vector representation, predicate, group key and height the
staged kernels must return the rows the loop returns **and** move
``columnstore.chunks_scanned`` / ``chunks_pruned`` /
``zone_only_chunks`` / ``dict_hits`` / ``rle_runs_scanned`` by the same
amounts.

The replica is fed directly (no heap, no coercion), so a column can
hold what SQL inserts never produce in one chunk — int / float mixes,
bools under an INT declaration, ints in a TEXT column — next to the
forms seal() encodes: ``DictVector`` with a NULL code, ``array('q')``,
``array('d')``, and plain lists wherever a NULL sits.
"""

from contextlib import contextmanager
from math import inf, nan
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sql.planner as planner_module
from repro.analytics.encoding import DictVector, RLEVector
from repro.analytics.operators import ColumnarAggregate, _like_prefix
from repro.errors import ReproError
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from repro.sql.expressions import _compare, _like_to_regex, compare_values
from repro.sql.aggregate import (
    EMPTY,
    FOLD_BUFFER,
    FOLD_COUNT,
    FOLD_MAX,
    FOLD_MIN,
    bucket_key,
    fold_mode,
    new_fold_state,
)
from repro.sql.plan import Runtime
from tests.conftest import counter

# ---------------------------------------------------------------------------
# The oracle: visibility as offset lists and one interpreter step per
# offset, as src/ had them before the kernels (only ``self`` of the two
# scan functions, and the calls that reach them, are renamed)
# ---------------------------------------------------------------------------

def rle_visible_offsets(creators: RLEVector, deleters: RLEVector,
                        height: int) -> Tuple[List[int], int]:
    """Visible offsets at ``height`` by intersecting the creator and
    deleter run lists (two-pointer walk): one visibility decision per
    intersected run instead of per row.  Returns ``(offsets, runs)``
    where ``runs`` is the number of intersected spans inspected (the
    ``columnstore.rle_runs_scanned`` counter)."""
    c_ends, c_values = creators.run_arrays()
    d_ends, d_values = deleters.run_arrays()
    offsets: List[int] = []
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
            offsets.extend(range(pos, end))
        pos = end
        if pos == c_end:
            ci += 1
        if pos == d_end:
            di += 1
    return offsets, runs



def visible_offsets(self, height: int,
                    counted: bool = True) -> List[int]:   # self: a chunk
    """Offsets of the rows visible at ``height``.  The planner's
    statistics reads pass ``counted=False``: ``rle_runs_scanned``
    is query traffic."""
    creators = self.creators
    deleters = self.deleters
    if self.max_creator is not None and self.max_creator <= height \
            and self.live_count == len(creators):
        return list(range(len(creators)))  # append-only fast path
    if type(creators) is RLEVector:
        # Encoded chunk: one visibility decision per intersected
        # creator/deleter run instead of per row.
        offsets, runs = rle_visible_offsets(creators, deleters,
                                            height)
        if counted and self.counters is not None:
            self.counters.rle_runs_scanned.inc(runs)
        return offsets
    return [i for i in range(len(creators))
            if creators[i] <= height
            and (deleters[i] is None or deleters[i] > height)]


def scan(self, db, table: str, height: Optional[int] = None,
         bounds: Optional[Dict[str, Dict[str, Any]]] = None):  # self: store
    """Yield ``(chunk, offsets)`` pairs for rows of ``table`` visible
    at ``height`` (every committed version when ``height`` is None),
    pruning chunks via the height counters and zone maps."""
    self.ensure_synced(db)
    tcols = self.tables.get(table)
    if tcols is None:
        return
    for chunk in tcols.chunks:
        if height is not None and not chunk.may_contain_height(height):
            self._chunks_pruned.inc()
            continue
        if bounds and chunk.sealed and \
                not chunk.may_match_bounds(bounds):
            self._chunks_pruned.inc()
            continue
        self._chunks_scanned.inc()
        if height is None:
            offsets = list(range(len(chunk)))
        else:
            offsets = visible_offsets(chunk, height)
        if offsets:
            yield chunk, offsets

def loop_selections(scan_node, rt, extra_bounds=None):
    """``ColumnarScan.chunk_selections`` as it was: (chunk, offsets)."""
    height = scan_node.pinned_height(rt)
    bounds = scan_node.bounds(rt)
    if extra_bounds:
        bounds = dict(bounds)
        for col, slot in extra_bounds.items():
            bounds.setdefault(col, slot)
    yield from scan(rt.db.columnstore, rt.db, scan_node.table, height,
                    bounds)


class LoopAggregate(ColumnarAggregate):
    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        ctx = rt.ctx
        # Resolve predicate constants once per execution.
        cmp_preds: List[Tuple[str, str, Any]] = []
        between_preds: List[Tuple[str, Any, Any]] = []
        in_preds: List[Tuple[str, List[Any]]] = []
        like_preds: List[Tuple[str, Any, bool]] = []
        impossible = False
        extra_bounds: Dict[str, Dict[str, Any]] = {}
        for pred in self.predicates:
            values = pred.evaluate(ctx)
            if pred.kind == "cmp":
                cmp_preds.append((pred.column, pred.op, values[0]))
            elif pred.kind == "between":
                between_preds.append((pred.column, values[0], values[1]))
            elif pred.kind == "in":
                in_preds.append((pred.column, values))
            else:
                value = values[0]
                if value is None:
                    impossible = True   # x [NOT] LIKE NULL is never true
                    continue
                text = str(value)
                like_preds.append((pred.column, _like_to_regex(text),
                                   pred.negated))
                if not pred.negated:
                    prefix = _like_prefix(text)
                    if prefix:
                        slot: Dict[str, Any] = {"low": (prefix, True)}
                        last = prefix[-1]
                        if ord(last) < 0x10FFFF:
                            slot["high"] = (
                                prefix[:-1] + chr(ord(last) + 1), False)
                        extra_bounds.setdefault(pred.column, slot)

        group_cols = self.group_columns
        specs = self.agg_specs
        modes = [FOLD_COUNT if spec.star else fold_mode(spec.name)
                 for spec in specs]
        groups: List[Tuple[Tuple, List[Any]]] = []
        group_index: Dict[Tuple, int] = {}

        def new_states() -> List[Any]:
            return [new_fold_state(mode) for mode in modes]

        if impossible:
            if not group_cols:
                groups = [((), new_states())]
            yield from self._finalize_groups(groups, specs, modes)
            return

        if not self.predicates and not group_cols:
            # Unfiltered global aggregates: answer whole chunks from
            # zone maps and counters where provable (no row touch).
            yield from self._zone_fast_path(rt, specs, modes,
                                            new_states)
            return

        store = rt.db.columnstore
        dict_hits = store._dict_hits
        single_group = group_cols[0] if len(group_cols) == 1 else None

        for chunk, offsets in loop_selections(
                self.scan, rt, extra_bounds or None):
            data = chunk.data
            compiled = self._compile_chunk_predicates(
                data, dict_hits, cmp_preds, between_preds, in_preds,
                like_preds)
            if compiled is None:
                continue   # a flag table is all-False: no row matches
            (code_checks, cmp_vectors, between_vectors, in_vectors,
             like_vectors) = compiled
            group_vectors = [data[col] for col in group_cols]
            agg_vectors = [None if spec.column is None else data[spec.column]
                           for spec in specs]
            # GROUP BY a dictionary column: aggregate per code, then
            # materialize each key string exactly once per chunk.
            group_dict = None
            group_codes = None
            code_states: Dict[int, List[Any]] = {}
            if single_group is not None and \
                    type(data[single_group]) is DictVector:
                group_dict = data[single_group]
                group_codes = group_dict.codes
                dict_hits.inc()
            for offset in offsets:
                keep = True
                for codes, flags in code_checks:
                    if not flags[codes[offset]]:
                        keep = False
                        break
                if keep:
                    for vector, op, const in cmp_vectors:
                        if _compare(op, vector[offset], const) is not True:
                            keep = False
                            break
                if keep:
                    for vector, low, high in between_vectors:
                        value = vector[offset]
                        if _compare(">=", value, low) is not True or \
                                _compare("<=", value, high) is not True:
                            keep = False
                            break
                if keep:
                    for vector, values in in_vectors:
                        value = vector[offset]
                        if value is None or not any(
                                _compare("=", value, item) is True
                                for item in values):
                            keep = False
                            break
                if keep:
                    for vector, regex, negated in like_vectors:
                        value = vector[offset]
                        if value is None:
                            keep = False
                            break
                        matched = bool(regex.match(str(value)))
                        if matched if negated else not matched:
                            keep = False
                            break
                if not keep:
                    continue
                if group_dict is not None:
                    code = group_codes[offset]
                    states = code_states.get(code)
                    if states is None:
                        states = new_states()
                        code_states[code] = states
                elif not group_vectors:
                    if not groups:
                        groups.append(((), new_states()))
                    states = groups[0][1]
                else:
                    key = tuple(vector[offset] for vector in group_vectors)
                    fingerprint = bucket_key(key)
                    pos = group_index.get(fingerprint)
                    if pos is None:
                        group_index[fingerprint] = len(groups)
                        groups.append((key, new_states()))
                        pos = len(groups) - 1
                    states = groups[pos][1]
                for j, mode in enumerate(modes):
                    vector = agg_vectors[j]
                    if vector is None:           # count(*)
                        states[j] += 1
                        continue
                    value = vector[offset]
                    if value is None:
                        continue
                    if mode == FOLD_COUNT:
                        states[j] += 1
                    elif mode == FOLD_BUFFER:
                        states[j].append(value)
                    elif mode == FOLD_MIN:
                        current = states[j]
                        if current is EMPTY or \
                                compare_values(value, current) < 0:
                            states[j] = value
                    else:
                        current = states[j]
                        if current is EMPTY or \
                                compare_values(value, current) > 0:
                            states[j] = value
            if group_dict is not None:
                # Fold the chunk's per-code partials into the global
                # groups (sorted code order for determinism; emission
                # order is settled by the ORDER BY the router requires,
                # so fold order never shows in results).
                dictionary = group_dict.dictionary
                for code in sorted(code_states):
                    key = (dictionary[code],) if code >= 0 else (None,)
                    fingerprint = bucket_key(key)
                    pos = group_index.get(fingerprint)
                    if pos is None:
                        group_index[fingerprint] = len(groups)
                        groups.append((key, code_states[code]))
                    else:
                        self._merge_states(modes, groups[pos][1],
                                           code_states[code])

        if not groups and not group_cols:
            groups = [((), new_states())]  # global aggregate, empty input

        yield from self._finalize_groups(groups, specs, modes)

    @staticmethod
    def _code_flags(dictionary: List[str],
                    test: Callable[[Any], bool]) -> Optional[List[bool]]:
        """Per-code flag table for a dictionary-encoded column: one
        predicate evaluation per distinct value instead of per row.  The
        appended ``False`` slot is what code ``-1`` (NULL) indexes via
        Python's negative indexing — NULL never passes a sargable
        predicate, matching the row paths' three-valued logic.  Returns
        None when no code passes (the whole chunk is filtered out)."""
        flags = [test(value) for value in dictionary]
        if True not in flags:
            return None
        flags.append(False)
        return flags

    def _compile_chunk_predicates(self, data, dict_hits, cmp_preds,
                                  between_preds, in_preds, like_preds):
        """Partition the resolved predicates for one chunk: predicates on
        dictionary-encoded columns translate to ``(codes, flag table)``
        checks (constant-time per row), everything else keeps the per-row
        vector compare.  Returns None when a flag table proves the chunk
        empty."""
        code_checks: List[Tuple[Any, List[bool]]] = []
        cmp_vectors: List[Tuple[Any, str, Any]] = []
        between_vectors: List[Tuple[Any, Any, Any]] = []
        in_vectors: List[Tuple[Any, List[Any]]] = []
        like_vectors: List[Tuple[Any, Any, bool]] = []
        for col, op, const in cmp_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: _compare(op, v, const) is True)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                cmp_vectors.append((vector, op, const))
        for col, low, high in between_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: _compare(">=", v, low) is True
                    and _compare("<=", v, high) is True)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                between_vectors.append((vector, low, high))
        for col, values in in_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: any(_compare("=", v, item) is True
                                  for item in values))
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                in_vectors.append((vector, values))
        for col, regex, negated in like_preds:
            vector = data[col]
            if type(vector) is DictVector:
                dict_hits.inc()
                flags = self._code_flags(
                    vector.dictionary,
                    lambda v: bool(regex.match(str(v))) != negated)
                if flags is None:
                    return None
                code_checks.append((vector.codes, flags))
            else:
                like_vectors.append((vector, regex, negated))
        return (code_checks, cmp_vectors, between_vectors, in_vectors,
                like_vectors)

    @staticmethod
    def _merge_states(modes, target, source) -> None:
        """Fold one group's per-chunk partial states into its global
        states.  sum/avg buffers concatenate (``fold_sum`` is
        order-independent), counters add, min/max compare."""
        for j, mode in enumerate(modes):
            if mode == FOLD_COUNT:
                target[j] += source[j]
            elif mode == FOLD_BUFFER:
                target[j].extend(source[j])
            else:
                value = source[j]
                if value is EMPTY:
                    continue
                current = target[j]
                if current is EMPTY:
                    target[j] = value
                elif mode == FOLD_MIN and \
                        compare_values(value, current) < 0:
                    target[j] = value
                elif mode == FOLD_MAX and \
                        compare_values(value, current) > 0:
                    target[j] = value

    def _zone_fast_path(self, rt: Runtime, specs, modes, new_states
                        ) -> Iterator[Tuple[Tuple, Tuple]]:
        """Unfiltered global aggregates fold chunk *metadata* instead of
        rows wherever the counters prove every row of the chunk visible:
        ``count(*)`` from the chunk length, ``count(col)`` from the
        sealed NULL counts, ``min``/``max`` from the zone maps.  Only
        ``sum``/``avg`` still read the column vector (the shared
        order-independent ``fold_sum`` needs the values), and chunks the
        counters cannot prove fall back to per-row visibility."""
        height = self.scan.pinned_height(rt)
        store = rt.db.columnstore
        states = new_states()
        for chunk in store.chunks_at(rt.db, self.scan.table, height):
            if self._zone_accumulate(chunk, height, specs, modes, states):
                store._zone_only_chunks.inc()
                continue
            store._chunks_scanned.inc()
            data = chunk.data
            agg_vectors = [None if spec.column is None
                           else data[spec.column] for spec in specs]
            for offset in visible_offsets(chunk, height):
                self._accumulate_row(specs, modes, states, agg_vectors,
                                     offset)
        yield from self._finalize_groups([((), states)], specs, modes)

    def _zone_accumulate(self, chunk, height: int, specs, modes,
                         states) -> bool:
        """Fold ``chunk`` into ``states`` from metadata alone; False when
        the chunk needs a row scan (not sealed, not provably fully
        visible, or a min/max column lacks a zone map)."""
        if not chunk.sealed or not chunk.fully_visible_at(height):
            return False
        n = len(chunk)
        for spec, mode in zip(specs, modes):
            if mode in (FOLD_MIN, FOLD_MAX):
                if chunk.zones.get(spec.column) is None and \
                        chunk.null_counts.get(spec.column) != n:
                    return False  # mixed-type column without a zone map
        for j, (spec, mode) in enumerate(zip(specs, modes)):
            if mode == FOLD_COUNT:
                states[j] += n if spec.star \
                    else n - chunk.null_counts[spec.column]
            elif mode == FOLD_BUFFER:
                states[j].extend(v for v in chunk.data[spec.column]
                                 if v is not None)
            else:
                zone = chunk.zones.get(spec.column)
                if zone is None:
                    continue   # all-NULL column contributes nothing
                value = zone[0] if mode == FOLD_MIN else zone[1]
                current = states[j]
                if current is EMPTY:
                    states[j] = value
                elif mode == FOLD_MIN and \
                        compare_values(value, current) < 0:
                    states[j] = value
                elif mode == FOLD_MAX and \
                        compare_values(value, current) > 0:
                    states[j] = value
        return True

    @staticmethod
    def _accumulate_row(specs, modes, states, agg_vectors,
                        offset: int) -> None:
        for j, mode in enumerate(modes):
            vector = agg_vectors[j]
            if vector is None:           # count(*)
                states[j] += 1
                continue
            value = vector[offset]
            if value is None:
                continue
            if mode == FOLD_COUNT:
                states[j] += 1
            elif mode == FOLD_BUFFER:
                states[j].append(value)
            elif mode == FOLD_MIN:
                current = states[j]
                if current is EMPTY or \
                        compare_values(value, current) < 0:
                    states[j] = value
            else:
                current = states[j]
                if current is EMPTY or \
                        compare_values(value, current) > 0:
                    states[j] = value


class CountedLoop(LoopAggregate):
    executions = 0

    def rows(self, rt: Runtime) -> Iterator[Tuple[Tuple, Tuple]]:
        CountedLoop.executions += 1
        yield from super().rows(rt)


@contextmanager
def loop_oracle(db):
    """Plan ``ColumnarAggregate`` nodes as the loop."""
    db.plan_cache.clear()
    planner_module.ColumnarAggregate = CountedLoop
    try:
        yield
    finally:
        planner_module.ColumnarAggregate = ColumnarAggregate
        db.plan_cache.clear()


# ---------------------------------------------------------------------------
# Histories: a replica fed version by version
# ---------------------------------------------------------------------------

COLUMNS = ("id", "g", "h", "n", "f")
INTS = [-3, -1, 0, 1, 2, 4]
FLOATS = [0.0, -0.0, 1.5, -2.5, 2.0, inf, -inf, nan, 1e308, -1e308, 1e-300]

#: What the ``n`` (declared INT) and ``f`` (declared FLOAT) columns may
#: hold in one example: the typed forms, the same with NULLs (plain
#: lists), and the mixes only a direct feed produces.
N_POOLS = [INTS, INTS + [None], INTS + [2.5, -0.5], [True, False, None]]
F_POOLS = [FLOATS, FLOATS + [None], [1.5, -2.5, 2.0, 0.25]]
G_POOL = [None, "g1", "g2", "g3"]
H_POOL = [None, "ab", "abc", "b", "a%", 7]


@st.composite
def histories(draw):
    # Half the examples keep both columns NULL-free and of one class:
    # the typed arrays, where the bisect and native-compare kernels run.
    typed = draw(st.booleans())
    n_pool = INTS if typed else draw(st.sampled_from(N_POOLS))
    f_pool = draw(st.sampled_from(F_POOLS[::2] if typed else F_POOLS))
    row = st.tuples(st.just("row"), st.sampled_from(G_POOL),
                    st.sampled_from(H_POOL), st.sampled_from(n_pool),
                    st.sampled_from(f_pool))
    delete = st.tuples(st.just("delete"), st.integers(0, 40))
    blocks = draw(st.lists(
        st.lists(st.one_of(row, row, row, row, delete), min_size=1,
                 max_size=10),
        min_size=1, max_size=5))
    return {
        "blocks": blocks,
        "chunk_rows": draw(st.sampled_from([4, 8, 1024])),
        "ids_descend": draw(st.booleans()),
        "open_tail": draw(st.booleans()),
        "compact": draw(st.booleans()),
    }


def build(history) -> Database:
    """A database whose replica holds ``history`` — fed straight into
    the column chunks; the heap stays empty and is never read."""
    db = Database()
    store = db.columnstore
    store.target_chunk_rows = history["chunk_rows"]
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup,
            "CREATE TABLE k (id INT PRIMARY KEY, g TEXT, h TEXT, "
            "n INT, f FLOAT)")
    db.apply_commit(setup, block_number=0)
    store.ensure_synced(db)             # an empty replica, not stale
    tcols = store._table_for(db, "k")
    blocks = history["blocks"]
    version = 0
    live: List[int] = []
    for height, ops in enumerate(blocks, 1):
        for op in ops:
            if op[0] == "delete":
                if live:
                    # A late stamp, usually on an already sealed chunk.
                    tcols.mark_deleted(live.pop(op[1] % len(live)),
                                       height, height)
                continue
            version += 1
            key = -version if history["ids_descend"] else version
            tcols.append_version(
                dict(zip(COLUMNS, (key,) + op[1:])), version, version,
                height, height)
            live.append(version)
        if height < len(blocks) or not history["open_tail"]:
            tcols.seal_open()
    if history["compact"]:
        tcols.compact()
    db.committed_height = len(blocks)
    return db


# ---------------------------------------------------------------------------
# Queries: aggregates x predicates x group keys
# ---------------------------------------------------------------------------

AGGREGATES = [
    "count(*)", "count(n)", "sum(n)", "avg(n)", "min(n)", "max(n)",
    "sum(f)", "avg(f)", "min(f)", "max(f)", "count(g)", "min(g)", "max(g)",
]
GROUPS = [(), ("g",), ("n",), ("g", "n"), ("h",), ("f",)]

ints = st.sampled_from(INTS + [-7, 9])
numbers = st.one_of(ints, st.sampled_from(FLOATS + [2.5, 0.5]))
texts = st.sampled_from(["g1", "g2", "g3", "g", "zz"])
patterns = st.sampled_from(["g%", "g_", "g1%", "%2", "a%", "ab_", "%", "x%"])
comparison = st.sampled_from(["=", "<", "<=", ">", ">="])

#: ``(SQL with {0}, {1}.. for its constants, constant strategies)``
PREDICATES = [
    ("id {op} {0}", (numbers,)),
    ("id BETWEEN {0} AND {1}", (numbers, numbers)),
    ("id IN ({0}, {1})", (numbers, numbers)),
    ("n {op} {0}", (numbers,)),
    ("n BETWEEN {0} AND {1}", (numbers, numbers)),
    ("n IN ({0}, {1}, {2})", (numbers, numbers, numbers)),
    ("f {op} {0}", (numbers,)),
    ("f BETWEEN {0} AND {1}", (numbers, numbers)),
    ("g {op} {0}", (texts,)),
    ("g BETWEEN {0} AND {1}", (texts, texts)),
    ("g IN ({0}, {1})", (texts, texts)),
    ("g LIKE {0}", (patterns,)),
    ("g NOT LIKE {0}", (patterns,)),
    ("h LIKE {0}", (patterns,)),
    ("h NOT LIKE {0}", (patterns,)),
    ("h = {0}", (st.sampled_from(["ab", "b"]),)),
]


@st.composite
def queries(draw):
    """``(sql, constants)``: ``$1`` is the height, the rest follow."""
    aggregates = draw(st.lists(st.sampled_from(AGGREGATES), min_size=1,
                               max_size=4, unique=True))
    group = draw(st.sampled_from(GROUPS))
    constants: List[Any] = []
    conjuncts = []
    for template, strategies in draw(st.lists(
            st.sampled_from(PREDICATES), max_size=3)):
        names = []
        for strategy in strategies:
            constants.append(draw(strategy))
            names.append(f"${len(constants) + 1}")
        conjuncts.append(template.format(*names, op=draw(comparison)))
    sql = "SELECT " + ", ".join(group + tuple(aggregates)) + " FROM k"
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if group:
        sql += " GROUP BY " + ", ".join(group)
        sql += " ORDER BY " + ", ".join(group)
    return sql + " AS OF BLOCK $1", constants


COUNTERS = ("chunks_scanned", "chunks_pruned", "zone_only_chunks",
            "dict_hits", "rle_runs_scanned")


def outcome(db, sql, params):
    """What one execution shows: its rows (as ``repr``: bit-exact, and
    NaN equal to NaN) or the engine error it raised, and how far each
    pruning / encoding counter moved."""
    before = [counter(db.columnstore, "columnstore." + name)
              for name in COUNTERS]
    tx = db.begin(allow_nondeterministic=True, read_only=True)
    try:
        shown: Any = [repr(row) for row in run_sql(db, tx, sql,
                                                   params=params).rows]
    except ReproError as exc:
        shown = type(exc).__name__
    finally:
        db.apply_abort(tx, reason="read-only")
    after = [counter(db.columnstore, "columnstore." + name)
             for name in COUNTERS]
    return shown, dict(zip(COUNTERS, (b - a for a, b in zip(before, after))))


class TestKernelsAgainstTheLoop:
    @given(histories(), queries(), st.sampled_from([0, 0, 0, 1, 2, 9]))
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_same_rows_same_counters(self, history, query, blocks_back):
        db = build(history)
        sql, constants = query
        params = (max(db.committed_height - blocks_back, 0), *constants)

        db.plan_cache.clear()
        kernels = outcome(db, sql, params)
        with loop_oracle(db):
            before = CountedLoop.executions
            loop = outcome(db, sql, params)
            # Every query shape here is one the router hands over (a
            # failed run is repeated once, in content order).
            assert CountedLoop.executions > before
        assert kernels == loop
