"""Unit tests for the columnar replica (chunks, zone maps, ingest,
encoded vector representations)."""

from array import array

import pytest

from repro.analytics.columnstore import (
    ColumnChunk,
    ColumnStore,
    TableColumns,
    dict_ndv_threshold,
    visible_at,
    zone_of,
)
from repro.analytics.encoding import (
    DictVector,
    RLEVector,
    rle_visible_spans,
    span_offsets,
    typed_array,
)
from repro.mvcc.database import Database
from repro.sql.executor import run_sql
from tests.conftest import counter, row_store_as_of


def make_db():
    db = Database()
    tx = db.begin(allow_nondeterministic=True)
    run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.apply_commit(tx, block_number=0)
    return db


def commit_block(db, statements):
    height = db.committed_height + 1
    tx = db.begin(allow_nondeterministic=True)
    for sql, params in statements:
        run_sql(db, tx, sql, params=params)
    db.apply_commit(tx, block_number=height)
    db.committed_height = height
    db.columnstore.on_block(db, height)
    return height


class TestChunk:
    def test_append_and_visibility(self):
        chunk = ColumnChunk(["id", "v"])
        chunk.append({"id": 1, "v": 10}, 1, 1, 5, creator=1)
        chunk.append({"id": 2, "v": 20}, 2, 2, 5, creator=2)
        assert chunk.visible_spans(1) == [(0, 1)]
        assert chunk.visible_spans(2) == [(0, 2)]
        chunk.mark_deleted(0, deleter=3, xmax=9)
        assert chunk.visible_spans(2) == [(0, 2)]   # deleter > 2
        assert chunk.visible_spans(3) == [(1, 2)]   # deleter == 3 hides
        assert chunk.live_count == 1
        assert chunk.max_deleter == 3

    def test_height_pruning_counters(self):
        chunk = ColumnChunk(["id"])
        chunk.append({"id": 1}, 1, 1, 5, creator=4)
        assert not chunk.may_contain_height(3)   # created after height
        assert chunk.may_contain_height(4)
        chunk.mark_deleted(0, deleter=6, xmax=9)
        assert not chunk.may_contain_height(7)   # everything dead by 7
        assert chunk.may_contain_height(5)

    def test_zone_maps_prune_by_bounds(self):
        chunk = ColumnChunk(["id"])
        for i in range(10, 20):
            chunk.append({"id": i}, i, i, 1, creator=1)
        chunk.seal()
        assert chunk.zones["id"] == (10, 19)
        assert not chunk.may_match_bounds({"id": {"eq": 99}})
        assert chunk.may_match_bounds({"id": {"eq": 15}})
        assert not chunk.may_match_bounds({"id": {"low": (20, True)}})
        assert chunk.may_match_bounds({"id": {"low": (19, True)}})
        assert not chunk.may_match_bounds({"id": {"low": (19, False)}})
        assert not chunk.may_match_bounds({"id": {"high": (9, True)}})
        assert chunk.may_match_bounds({"id": {"high": (10, True)}})

    def test_zone_maps_skip_mixed_types_and_nulls(self):
        chunk = ColumnChunk(["v"])
        chunk.append({"v": 1}, 1, 1, 1, creator=1)
        chunk.append({"v": "text"}, 2, 2, 1, creator=1)
        chunk.append({"v": None}, 3, 3, 1, creator=1)
        chunk.seal()
        assert "v" not in chunk.zones          # unorderable mix: no map
        assert chunk.may_match_bounds({"v": {"eq": 123}})  # conservative

    def test_type_mismatched_bound_never_prunes(self):
        chunk = ColumnChunk(["v"])
        chunk.append({"v": 5}, 1, 1, 1, creator=1)
        chunk.seal()
        assert chunk.may_match_bounds({"v": {"eq": "not-a-number"}})

    def test_null_counts_computed_at_seal(self):
        chunk = ColumnChunk(["v"])
        chunk.append({"v": 1}, 1, 1, 1, creator=1)
        chunk.append({"v": None}, 2, 2, 1, creator=1)
        chunk.append({"v": 3}, 3, 3, 1, creator=1)
        chunk.seal()
        assert chunk.null_counts == {"v": 1}

    def test_visible_count_from_counters(self):
        chunk = ColumnChunk(["id"])
        for i in range(4):
            chunk.append({"id": i}, i, i, 1, creator=i + 1)
        # All creators <= 4, no deleters: exact count, fully visible.
        assert chunk.visible_count_at(4) == 4
        assert chunk.fully_visible_at(4)
        assert chunk.visible_count_at(0) == 0          # nothing created
        assert chunk.visible_count_at(2) is None       # mid-creation
        chunk.mark_deleted(0, deleter=6, xmax=9)
        assert not chunk.fully_visible_at(6)
        # All creators and all deleter stamps <= 6: live_count is exact.
        assert chunk.visible_count_at(6) == 3
        assert chunk.visible_count_at(5) is None       # deleter above h


class TestTableColumns:
    def test_chunks_seal_at_target(self):
        tcols = TableColumns("t", ["id"], target_chunk_rows=3)
        for i in range(7):
            tcols.append_version({"id": i}, i, i, 1, creator=1)
        assert [len(c) for c in tcols.chunks] == [3, 3, 1]
        assert [c.sealed for c in tcols.chunks] == [True, True, False]

    def test_late_deleter_lands_in_older_chunk(self):
        tcols = TableColumns("t", ["id"], target_chunk_rows=2)
        tcols.append_version({"id": 1}, 1, 1, 1, creator=1)
        tcols.append_version({"id": 2}, 2, 2, 1, creator=1)
        tcols.append_version({"id": 3}, 3, 3, 2, creator=2)
        assert tcols.mark_deleted(1, deleter=5, xmax=9)
        first = tcols.chunks[0]
        assert first.deleters[0] == 5
        assert first.xmaxs[0] == 9
        assert not tcols.mark_deleted(999, deleter=5, xmax=9)

    def test_compaction_merges_small_sealed_chunks(self):
        tcols = TableColumns("t", ["id"], target_chunk_rows=8)
        # Simulate per-block sealing: many 2-row sealed chunks.
        for block in range(6):
            for i in range(2):
                tcols.append_version({"id": block * 2 + i},
                                     block * 2 + i, block * 2 + i, 1,
                                     creator=block + 1)
            tcols.seal_open()
        assert len(tcols.chunks) == 6
        tcols.mark_deleted(0, deleter=4, xmax=7)
        removed = tcols.compact()
        assert removed > 0
        assert len(tcols.chunks) < 6
        assert all(c.sealed for c in tcols.chunks)
        # Content survives: 12 rows, the deleter stamp included.
        assert len(tcols) == 12
        chunk, offset = tcols.locate(0)
        assert chunk in tcols.chunks
        assert chunk.deleters[offset] == 4
        assert chunk.xmaxs[offset] == 7
        # Locator still resolves every version id.
        for vid in range(12):
            chunk, offset = tcols.locate(vid)
            assert chunk.version_ids[offset] == vid
        assert tcols.locate(12) is None and tcols.locate(-1) is None
        # ... and keeps doing so for what arrives after a compaction.
        for vid in (12, 14):              # 13 is never ingested
            tcols.append_version({"id": vid}, vid, vid, 1, creator=7)
        tcols.seal_open()
        tcols.append_version({"id": 15}, 15, 15, 1, creator=8)
        for vid in (0, 11, 12, 14, 15):
            chunk, offset = tcols.locate(vid)
            assert chunk.version_ids[offset] == vid
        assert tcols.locate(13) is None
        assert len(tcols) == 15


class TestColumnStore:
    def test_rebuild_then_delta_ingest(self):
        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES (1, 10)", ())])
        store = db.columnstore
        # first on_block rebuilt
        assert counter(store, "columnstore.rebuilds") == 1
        commit_block(db, [("UPDATE t SET v = 11 WHERE id = 1", ())])
        # delta path, no rebuild
        assert counter(store, "columnstore.rebuilds") == 1
        assert counter(store, "columnstore.deleter_updates") == 1
        tcols = store.table("t")
        assert len(tcols) == 2              # both versions retained

    def test_rollback_marks_stale_and_rebuilds(self):
        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES (1, 10)", ())])
        tx = db.transactions[max(db.transactions)]
        db.rollback_committed(tx)
        assert db.columnstore.stale
        db.apply_abort(tx, reason="test rollback")
        db.committed_height = 0
        db.columnstore.ensure_synced(db)
        assert not db.columnstore.stale
        assert len(db.columnstore.table("t") or []) == 0

    def test_history_and_diff(self):
        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES (1, 10)", ())])
        commit_block(db, [("UPDATE t SET v = 20 WHERE id = 1", ())])
        commit_block(db, [("DELETE FROM t WHERE id = 1", ())])
        history = db.columnstore.history(db, "t", "id", 1)
        assert [(h["v"], h["creator"], h["deleter"]) for h in history] == \
            [(10, 1, 2), (20, 2, 3)]
        diff = db.columnstore.diff(db, "t", 1, 3)
        assert [d["v"] for d in diff["created"]] == [20]
        assert [d["v"] for d in diff["deleted"]] == [10, 20]

    def test_scan_prunes_chunks_by_height(self):
        db = make_db()
        for block in range(5):
            commit_block(db, [(
                "INSERT INTO t (id, v) VALUES ($1, $2)",
                (block, block * 10))])
        store = db.columnstore
        before = counter(store, "columnstore.chunks_pruned")
        # Height 1: later per-block chunks are all created above it.
        selections = list(store.scan(db, "t", height=1))
        assert [spans for _, spans in selections] == [[(0, 1)]]
        assert counter(store, "columnstore.chunks_pruned") > before

    def test_visible_at_matches_docstring(self):
        assert visible_at(3, None, 3)
        assert not visible_at(3, None, 2)
        assert not visible_at(3, 3, 3)
        assert visible_at(3, 4, 3)
        assert not visible_at(None, None, 3)

    def test_drop_table_invalidates_store(self):
        """A re-created table must never be served from the dropped
        table's chunks (stale schema or resurrected rows)."""
        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES (1, 10)", ())])
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "DROP TABLE t")
        run_sql(db, tx, "CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
        run_sql(db, tx, "INSERT INTO t (id, name) VALUES (7, 'new')")
        db.apply_commit(tx, block_number=db.committed_height + 1)
        db.committed_height += 1
        db.columnstore.on_block(db, db.committed_height)
        rows = list(db.columnstore.scan(db, "t",
                                        height=db.committed_height))
        values = [chunk.values_at(offset, ["id", "name"])
                  for chunk, spans in rows
                  for offset in span_offsets(spans)]
        assert values == [{"id": 7, "name": "new"}]

    def test_history_rejects_unknown_table_and_column(self):
        from repro.errors import CatalogError

        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES (1, 10)", ())])
        with pytest.raises(CatalogError):
            db.columnstore.history(db, "nope", "id", 1)
        with pytest.raises(CatalogError):
            db.columnstore.history(db, "t", "not_a_column", 1)
        with pytest.raises(CatalogError):
            db.columnstore.diff(db, "nope", 0, 1)


class TestStatisticsSurface:
    """committed_rows / distinct_count: the planner's anchored
    statistics ride the creator/deleter vectors."""

    def test_committed_rows_per_height(self):
        from repro.sql.stats import stats_key_part

        db = make_db()
        h1 = commit_block(db, [
            ("INSERT INTO t (id, v) VALUES ($1, $2)", (i, i * 10))
            for i in range(6)])
        h2 = commit_block(db, [("DELETE FROM t WHERE id < 2", ())])
        assert db.columnstore.committed_rows(db, "t", h1) == 6
        assert db.columnstore.committed_rows(db, "t", h2) == 4
        assert db.columnstore.committed_rows(db, "t", 0) == 0

        def key_of(values):
            return tuple(stats_key_part(v) for v in values)

        assert db.columnstore.distinct_count(
            db, "t", ("v",), h1, key_of) == 6
        assert db.columnstore.distinct_count(
            db, "t", ("v",), h2, key_of) == 4


class TestZoneOnlyAggregates:
    """Unfiltered global aggregates over fully-visible sealed chunks are
    answered from zone maps and counters alone (no row touch)."""

    def test_zone_only_counter_increments(self):
        db = make_db()
        commit_block(db, [
            ("INSERT INTO t (id, v) VALUES ($1, $2)", (i, i))
            for i in range(10)])
        height = db.committed_height
        before = counter(db.columnstore, "columnstore.zone_only_chunks")
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            result = run_sql(
                db, tx, "SELECT count(*), min(v), max(v) FROM t "
                        "AS OF BLOCK $1", params=(height,))
        finally:
            db.apply_abort(tx, reason="test")
        assert result.rows == [(10, 0, 9)]
        assert counter(db.columnstore, "columnstore.zone_only_chunks") > before

    def test_deleted_rows_force_row_scan_and_stay_correct(self):
        db = make_db()
        commit_block(db, [
            ("INSERT INTO t (id, v) VALUES ($1, $2)", (i, i))
            for i in range(10)])
        commit_block(db, [("DELETE FROM t WHERE id = 9", ())])
        height = db.committed_height
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            result = run_sql(
                db, tx, "SELECT count(*), max(v), sum(v) FROM t "
                        "AS OF BLOCK $1", params=(height,))
        finally:
            db.apply_abort(tx, reason="test")
        # max comes from a row scan (the zone max 9 is deleted).
        assert result.rows == [(9, 8, 36)]

    def test_count_col_respects_nulls(self):
        db = make_db()
        commit_block(db, [
            ("INSERT INTO t (id, v) VALUES ($1, $2)",
             (i, i if i % 2 else None)) for i in range(8)])
        height = db.committed_height
        tx = db.begin(allow_nondeterministic=True, read_only=True)
        try:
            result = run_sql(
                db, tx, "SELECT count(v), count(*) FROM t "
                        "AS OF BLOCK $1", params=(height,))
        finally:
            db.apply_abort(tx, reason="test")
        assert result.rows == [(4, 8)]


class TestRLEVector:
    def _mirror(self, values):
        """An RLEVector plus the plain list it must always agree with."""
        return RLEVector.from_list(list(values)), list(values)

    def test_roundtrip_and_random_access(self):
        vec, plain = self._mirror([1, 1, 1, None, None, 2, 1, 1])
        assert len(vec) == len(plain)
        assert list(vec) == plain
        assert [vec[i] for i in range(len(plain))] == plain
        assert vec[-1] == plain[-1]
        assert vec.run_count == 4
        with pytest.raises(IndexError):
            vec[len(plain)]
        with pytest.raises(IndexError):
            vec[-len(plain) - 1]

    def test_setitem_covers_every_split_shape(self):
        """Writes into runs: middle split, front/back carve with and
        without neighbour merges, single-element three-way merge — the
        vector must track a plain list through all of them."""
        writes = [
            (4, 9),    # middle split of a long run
            (0, 7),    # front carve, no neighbour
            (8, 9),    # back carve merging into the split value
            (4, 1),    # revert the middle back (re-split)
            (4, 9),    # single-element rewrite
            (3, 9),    # extend a run leftwards (prev merge)
            (5, 9),    # extend rightwards (next merge)
            (4, 2),    # split a merged run again
            (4, 9),    # three-way merge of a single-element run
            (4, 9),    # same-value write is a no-op
        ]
        vec, plain = self._mirror([1] * 9)
        for i, value in writes:
            vec[i] = value
            plain[i] = value
            assert list(vec) == plain, (i, value)
            # Canonical form: no two adjacent runs hold equal values.
            _, run_values = vec.run_arrays()
            assert all(run_values[k] != run_values[k + 1]
                       for k in range(len(run_values) - 1)
                       if run_values[k] is not None
                       or run_values[k + 1] is not None)

    def test_late_stamp_sequence_like_version_locator(self):
        """The locator's usage pattern: sparse deleter stamps into a
        None-run, adjacent stamps of the same height merging back into
        runs."""
        vec, plain = self._mirror([None] * 12)
        for i in (3, 4, 5, 11, 0):
            vec[i] = 7
            plain[i] = 7
            assert list(vec) == plain
        assert vec.run_count == 5   # [7][None][7,7,7][None][7]

    def test_rle_visible_spans_match_per_row(self):
        creators = RLEVector.from_list([1, 1, 2, 2, 2, 3])
        deleters = RLEVector.from_list([None, 4, 4, None, None, None])
        for height in range(0, 6):
            expected = [i for i in range(6)
                        if visible_at(creators[i], deleters[i], height)]
            spans, runs = rle_visible_spans(creators, deleters, height)
            assert list(span_offsets(spans)) == expected, height
            # Maximal runs: no two spans touch, none is empty.
            assert all(a < b for a, b in spans)
            assert all(left[1] < right[0]
                       for left, right in zip(spans, spans[1:]))
            assert runs >= 1

    def test_value_equality(self):
        a = RLEVector.from_list([1, 1, 2])
        b = RLEVector.from_list([1, 1, 2])
        assert a == b and a == [1, 1, 2]
        b[0] = 9
        assert a != b


class TestDictVector:
    def test_encode_roundtrip_with_nulls(self):
        values = ["b", "a", None, "b", "a", "c"]
        vec = DictVector.encode(values, max_ndv=8)
        assert vec is not None
        assert vec.dictionary == ["a", "b", "c"]   # sorted = value order
        assert list(vec) == values
        assert vec[2] is None and vec[0] == "b"
        assert len(vec) == 6
        assert vec == DictVector.encode(values, max_ndv=8)

    def test_encode_refuses_high_cardinality_and_non_strings(self):
        assert DictVector.encode(["a", "b", "c"], max_ndv=2) is None
        assert DictVector.encode(["a", 1], max_ndv=8) is None
        assert DictVector.encode([True, "a"], max_ndv=8) is None
        assert DictVector.encode([None, None], max_ndv=8) is None
        assert DictVector.encode([], max_ndv=8) is None

    def test_code_width_scales_with_dictionary(self):
        small = DictVector.encode(["a", "b"], max_ndv=10)
        assert small.codes.typecode == "b"
        wide = DictVector.encode([f"k{i:04d}" for i in range(200)],
                                 max_ndv=500)
        assert wide.codes.typecode == "h"


class TestTypedArrays:
    def test_pure_int_and_float_vectors_encode(self):
        assert typed_array([1, 2, 3]) == array("q", [1, 2, 3])
        assert typed_array([1.5, -2.0]) == array("d", [1.5, -2.0])

    def test_bool_null_mixed_and_huge_stay_plain(self):
        # array('q') would collapse True to 1 and break byte identity.
        assert typed_array([1, 2, True]) is None
        assert typed_array([1, None]) is None
        assert typed_array([1, 2.0]) is None
        assert typed_array(["x"]) is None
        assert typed_array([2 ** 70]) is None
        assert typed_array([]) is None


class TestChunkEncoding:
    ROWS = 256

    def _sealed_pair(self):
        """The same rows in a sealed (encoded) chunk and in an open one,
        which still holds the plain lists ingest appends to."""
        chunks = []
        for sealed in (True, False):
            chunk = ColumnChunk(["g", "v"])
            for i in range(self.ROWS):
                chunk.append({"g": f"g{i % 2}", "v": float(i)}, i, i, 1,
                             creator=1 + i // (self.ROWS // 2))
            if sealed:
                chunk.seal()
            chunks.append(chunk)
        return chunks

    def test_seal_encodes_vectors(self):
        encoded, plain = self._sealed_pair()
        assert type(encoded.data["g"]) is DictVector
        assert isinstance(encoded.data["v"], array)
        assert type(encoded.creators) is RLEVector
        assert type(encoded.deleters) is RLEVector
        assert type(encoded.xmins) is RLEVector
        assert type(encoded.xmaxs) is RLEVector
        assert isinstance(plain.data["g"], list)
        assert isinstance(plain.creators, list)

    def test_zones_and_visibility_identical(self):
        encoded, plain = self._sealed_pair()
        # Zones are taken from the values, before they re-encode.
        assert encoded.zones == {col: zone_of(vector)
                                 for col, vector in plain.data.items()}
        assert encoded.null_counts == {"g": 0, "v": 0}
        for height in range(0, 4):
            assert encoded.visible_spans(height) == \
                plain.visible_spans(height)

    def test_late_deleter_stamp_rewrites_runs(self):
        encoded, plain = self._sealed_pair()
        for chunk in (encoded, plain):
            chunk.mark_deleted(3, deleter=5, xmax=42)
        assert encoded.deleters[3] == 5 and encoded.xmaxs[3] == 42
        for height in (4, 5, 6):
            assert encoded.visible_spans(height) == \
                plain.visible_spans(height)

    def test_encoded_chunk_is_smaller(self):
        encoded, plain = self._sealed_pair()
        assert encoded.memory_bytes(set()) < plain.memory_bytes(set())

    def test_dict_threshold_is_adaptive(self):
        assert dict_ndv_threshold(16) == 16      # floor
        assert dict_ndv_threshold(1024) == 256   # rows // 4
        assert dict_ndv_threshold(10 ** 9) == 32767   # code-width cap

    def test_high_cardinality_text_stays_plain(self):
        chunk = ColumnChunk(["g"])
        for i in range(8):   # 8 distinct values > threshold floor? no —
            chunk.append({"g": f"u{i}"}, i, i, 1, creator=1)
        chunk.seal()
        # 8 rows → threshold max(16, 2) = 16 ≥ 8 distinct: still encodes.
        assert type(chunk.data["g"]) is DictVector


class TestStoreEncodingSurface:
    def _store_db(self):
        db = make_db()
        commit_block(db, [
            ("INSERT INTO t (id, v) VALUES ($1, $2)", (i, i % 3))
            for i in range(10)])
        return db

    def test_memory_stats_and_gauge(self):
        db = self._store_db()
        stats = db.columnstore.memory_stats()
        assert stats["rows"] == 10
        assert stats["bytes"] > 0
        assert stats["bytes_per_row"] == round(
            stats["bytes"] / stats["rows"], 2)
        snap = db.metrics.snapshot()
        assert snap["gauges"]["columnstore.bytes_per_row"] > 0

    def test_encoded_chunks_counter_and_stats_keys(self):
        db = self._store_db()
        assert counter(db.columnstore, "columnstore.encoded_chunks") >= 1

    def test_distinct_count_served_from_dictionary(self):
        """NDV on a dictionary column comes from len(dictionary) without
        walking rows — and agrees with the heap oracle."""
        from repro.sql.stats import stats_key_part
        from tests.sql.test_stats import heap_ndv

        def key_of(values):
            return tuple(stats_key_part(v) for v in values)

        db = make_db()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE s (id INT PRIMARY KEY, g TEXT)")
        for i in range(9):
            run_sql(db, tx, "INSERT INTO s (id, g) VALUES ($1, $2)",
                    params=(i, f"g{i % 4}"))
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        db.columnstore.on_block(db, 1)
        chunk, = db.columnstore.table("s").chunks
        assert type(chunk.data["g"]) is DictVector
        assert chunk.fully_visible_at(1)
        assert db.columnstore.distinct_count(db, "s", ("g",), 1,
                                             key_of) == 4
        assert heap_ndv(db, "s", ("g",), 1) == 4

class TestNaNHasOnePlace:
    """NaN is equal to itself and above every other number
    (``compare_values``): zone maps, pruning and every min / max fold
    are built on that, so neither store's answer depends on where in
    its input a NaN sits — and the two stores agree."""

    ORDERS = ([5.0, float("nan"), 1.0], [float("nan"), 5.0, 1.0],
              [5.0, 1.0, float("nan")])

    @staticmethod
    def _float_db(values):
        db = Database()
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "CREATE TABLE f (id INT PRIMARY KEY, v FLOAT)")
        for i, value in enumerate(values):
            run_sql(db, tx, "INSERT INTO f (id, v) VALUES ($1, $2)",
                    params=(i, value))
        db.apply_commit(tx, block_number=1)
        db.committed_height = 1
        db.columnstore.on_block(db, 1)
        return db

    @staticmethod
    def _both_stores(db, sql):
        """``repr`` of the rows from the replica and from the heap."""
        def show():
            tx = db.begin(allow_nondeterministic=True, read_only=True)
            try:
                return repr(run_sql(db, tx, sql, params=(1,)).rows)
            finally:
                db.apply_abort(tx, reason="read-only")

        columnar = show()
        with row_store_as_of(db):
            return [columnar, show()]

    def test_zone_map_is_independent_of_ingest_order(self):
        zones = [repr(self._float_db(order).columnstore
                      .table("f").chunks[0].zones["v"])
                 for order in self.ORDERS]
        assert zones == ["(1.0, nan)"] * 3
        only = self._float_db([float("nan")] * 2).columnstore.table("f")
        assert repr(only.chunks[0].zones["v"]) == "(nan, nan)"

    def test_a_chunk_holding_nan_is_not_pruned_away(self):
        for order in self.ORDERS:
            db = self._float_db(order + [2000.0])
            pruned = counter(db.columnstore, "columnstore.chunks_pruned")
            columnar, rowstore = self._both_stores(
                db, "SELECT max(v), min(v), count(*) FROM f "
                    "WHERE v >= 1000.0 AS OF BLOCK $1")
            assert columnar == rowstore == "[(nan, 2000.0, 2)]"
            assert counter(db.columnstore,
                           "columnstore.chunks_pruned") == pruned

    def test_min_max_do_not_depend_on_order_in_either_store(self):
        for order in self.ORDERS:
            db = self._float_db(order)
            for sql in (
                    # zone-answered, filtered (kernels), grouped
                    "SELECT min(v), max(v) FROM f AS OF BLOCK $1",
                    "SELECT min(v), max(v) FROM f WHERE id >= 0 "
                    "AS OF BLOCK $1",
                    "SELECT id / 10, min(v), max(v) FROM f "
                    "GROUP BY id / 10 AS OF BLOCK $1"):
                answers = self._both_stores(db, sql)
                assert answers[0] == answers[1], (order, sql)
                assert "1.0, nan" in answers[0], (order, sql)

    def test_a_client_can_commit_nan_and_every_node_answers_alike(self):
        """The reachable form: ``simple_insert`` takes any float."""
        from repro.bench.harness import build_functional_network

        net, clients = build_functional_network(
            "order-execute", organizations=("org1", "org2"),
            seed_data=False)
        for i, amount in enumerate([5.0, float("nan"), 1.0]):
            clients[0].invoke_and_wait("simple_insert", 100 + i, 1,
                                       "org1", amount)
        net.settle()
        net.assert_consistent()
        sql = ("SELECT max(amount), count(*) FROM invoices "
               "WHERE amount >= 1000.0")
        for node in net.nodes:
            assert repr(node.query(sql).rows) == \
                repr(node.query_as_of(sql).rows) == "[(nan, 1)]"
        extremes = "SELECT min(amount), max(amount) FROM invoices"
        for client in clients:
            assert repr(client.query(extremes).rows) == \
                repr(client.query_as_of(extremes).rows) == "[(1.0, nan)]"


class TestFoldedRowsCounters:
    """``analytics.rows_folded_typed`` / ``rows_folded_generic``: which
    form ``ColumnarAggregate`` read its argument columns in.  A column
    that stops encoding as a typed array shows up as a ratio."""

    #: The four ``AS OF`` shapes of the end-to-end ``htap-mixed``
    #: workload (benchmarks/e2e/workloads.py), on the Appendix A schema.
    HTAP_SHAPES = (
        ("SELECT org, count(*), sum(amount) FROM invoices GROUP BY org "
         "ORDER BY org", ()),
        ("SELECT count(*), min(amount), max(amount), sum(amount) "
         "FROM invoices WHERE invoice_id BETWEEN $1 AND $2", (2, 9)),
        ("SELECT org, count(*), sum(amount) FROM invoices "
         "WHERE status = 'new' GROUP BY org ORDER BY org", ()),
        ("SELECT org, count(*), sum(balance) FROM accounts GROUP BY org "
         "ORDER BY org", ()),
    )

    @staticmethod
    def _folded(store):
        return (counter(store, "analytics.rows_folded_typed"),
                counter(store, "analytics.rows_folded_generic"))

    def test_htap_shapes_fold_typed_arrays_only(self):
        """Between blocks every chunk is sealed, and ``amount`` /
        ``balance`` are NOT NULL floats: nothing takes the generic
        form, on any node."""
        from repro.bench.harness import build_functional_network

        net, clients = build_functional_network(
            "order-execute", organizations=("org1", "org2"))
        for client in clients:
            store = client.peer.db.columnstore
            for sql, params in self.HTAP_SHAPES:
                assert client.query_as_of(sql, params=params).rows
            typed, generic = self._folded(store)
            # 8 accounts x 3 invoices: three shapes read the invoices
            # (one of them 8 of the 24), one the accounts.
            assert (typed, generic) == (24 + 8 + 24 + 8, 0)
            assert all(chunk.sealed for tcols in store.tables.values()
                       for chunk in tcols.chunks)

    def test_generic_share_is_the_open_chunk_and_the_null(self):
        db = make_db()
        commit_block(db, [("INSERT INTO t (id, v) VALUES ($1, $2)", (i, i))
                          for i in range(6)])
        store = db.columnstore
        sql = "SELECT sum(v), count(*) FROM t WHERE id >= 0 AS OF BLOCK $1"

        def run():
            tx = db.begin(allow_nondeterministic=True, read_only=True)
            try:
                return run_sql(db, tx, sql,
                               params=(db.committed_height,)).rows
            finally:
                db.apply_abort(tx, reason="read-only")

        assert run() == [(15, 6)]
        assert self._folded(store) == (6, 0)
        # A block committed but not yet sealed: the read ingests it
        # into an open chunk of plain lists.
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO t (id, v) VALUES (6, 6), (7, 7)")
        db.apply_commit(tx, block_number=2)
        db.committed_height = 2
        assert run() == [(28, 8)]
        assert self._folded(store) == (12, 2)
        # Sealed, the same rows are typed; one NULL and its chunk is
        # a plain list again.
        store.on_block(db, 2)
        assert run() == [(28, 8)]
        assert self._folded(store) == (20, 2)
        commit_block(db, [("INSERT INTO t (id, v) VALUES (8, NULL)", ())])
        assert run() == [(28, 9)]
        assert self._folded(store) == (28, 3)
