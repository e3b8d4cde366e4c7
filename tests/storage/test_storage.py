"""MVCC storage: rows, tables, indexes, snapshots, visibility."""

import pytest

from repro.errors import BlockValidationError, TypeMismatchError
from repro.chain.block import Block, make_genesis
from repro.storage.blockstore import BlockStore
from repro.storage.index import Index, key_depth, normalize_key
from repro.storage.row import RowVersion
from repro.storage.snapshot import (
    BlockSnapshot,
    SeqSnapshot,
    TxStatus,
    TxStatusTable,
)
from repro.storage.table import HeapTable
from repro.storage.visibility import (
    version_committed_in_window,
    version_deleted_in_window,
)
from tests.storage.test_visibility_oracle import visible


class TestIndex:
    def make(self):
        return Index("idx", "t", ["a"])

    def test_eq_scan(self):
        idx = self.make()
        idx.insert({"a": 5}, 1)
        idx.insert({"a": 7}, 2)
        idx.insert({"a": 5}, 3)
        assert sorted(idx.scan_eq([5])) == [1, 3]

    def test_range_scan_inclusive(self):
        idx = self.make()
        for i in range(10):
            idx.insert({"a": i}, i)
        assert idx.scan_range([3], [6]) == [3, 4, 5, 6]

    def test_range_scan_exclusive(self):
        idx = self.make()
        for i in range(10):
            idx.insert({"a": i}, i)
        assert idx.scan_range([3], [6], low_inclusive=False,
                              high_inclusive=False) == [4, 5]

    def test_open_ended_ranges(self):
        idx = self.make()
        for i in range(5):
            idx.insert({"a": i}, i)
        assert idx.scan_range(None, [2]) == [0, 1, 2]
        assert idx.scan_range([3], None) == [3, 4]

    def test_null_values_sort_first(self):
        idx = self.make()
        idx.insert({"a": None}, 1)
        idx.insert({"a": 0}, 2)
        assert idx.scan_all() == [1, 2]

    def test_mixed_numeric_types(self):
        idx = self.make()
        idx.insert({"a": 1}, 1)
        idx.insert({"a": 1.5}, 2)
        idx.insert({"a": 2}, 3)
        assert idx.scan_range([1], [2]) == [1, 2, 3]

    def test_multi_column_prefix(self):
        idx = Index("idx2", "t", ["a", "b"])
        idx.insert({"a": 1, "b": 1}, 1)
        idx.insert({"a": 1, "b": 2}, 2)
        idx.insert({"a": 2, "b": 1}, 3)
        assert idx.scan_eq([1]) == [1, 2]
        assert idx.scan_eq([1, 2]) == [2]

    def test_covers_columns(self):
        idx = Index("idx3", "t", ["a", "b"])
        assert idx.covers_columns(["a"])
        assert idx.covers_columns(["a", "b"])
        assert not idx.covers_columns(["b"])

    def test_unindexable_type(self):
        with pytest.raises(TypeMismatchError):
            normalize_key([object()])

    def test_keys_are_flat_and_keep_the_value(self):
        big = 2 ** 53 + 1   # float(big) == float(big - 1): no boxing
        assert normalize_key([big, None, True, "s"]) == (
            1, big, 0, None, 1, 1, 3, "s")
        assert normalize_key([big]) > normalize_key([big - 1])
        assert normalize_key([1]) == normalize_key([1.0])
        # A boolean keys as the number ``=`` says it equals.
        assert normalize_key([True]) == normalize_key([1.0])
        assert normalize_key([False]) == normalize_key([0])
        assert normalize_key([False]) < normalize_key([True]) < \
            normalize_key([2])
        assert key_depth(normalize_key([1, "a"])) == 2
        assert key_depth(None) == 0

    def test_nulls_compare_in_any_column(self):
        idx = Index("idx2", "t", ["a", "b"])
        idx.insert({"a": None, "b": 2}, 1)
        idx.insert({"a": None, "b": None}, 2)
        idx.insert({"a": None, "b": "x"}, 3)
        assert idx.scan_all() == [2, 1, 3]
        assert idx.scan_eq([None]) == [2, 1, 3]

    def test_equal_keys_share_one_tuple(self):
        idx = self.make()
        for version_id in range(1, 5):
            idx.insert({"a": "org1"}, version_id)
        idx.merge_pending()
        idx.insert({"a": "org1"}, 5)       # equal settled neighbour
        idx.insert({"a": "org0"}, 6)
        assert len({id(key) for key in
                    idx._keys + idx._pending_keys}) == 2
        assert idx.scan_eq(["org1"]) == [1, 2, 3, 4, 5]

    def test_unique_index_keeps_its_own_keys(self):
        idx = Index("pk", "t", ["a"], unique=True)
        idx.insert({"a": 1000}, 1)
        idx.insert({"a": 1000}, 2)   # a superseding version of the row
        assert idx._pending_keys[0] is not idx._pending_keys[1]


class TestIndexRemove:
    """``Index.remove`` — the entry of a physically reclaimed version."""

    def make(self, settled, pending):
        idx = Index("idx", "t", ["a"])
        for key, version_id in settled:
            idx.insert({"a": key}, version_id)
        idx.merge_pending()
        for key, version_id in pending:
            idx.insert({"a": key}, version_id)
        return idx

    def test_remove_from_settled_region(self):
        idx = self.make([(1, 1), (2, 2), (3, 3)], [])
        assert idx.remove({"a": 2}, 2)
        assert idx.scan_all() == [1, 3]
        assert len(idx) == 2 and idx.scan_eq([2]) == []

    def test_remove_from_pending_region(self):
        idx = self.make([(1, 1)], [(2, 2), (3, 3)])
        assert idx.remove({"a": 3}, 3)
        assert idx.pending_count == 1
        assert idx.scan_range([1], [3]) == [1, 2]

    def test_remove_one_of_duplicate_keys(self):
        """A run of equal keys spans both regions; only the entry with
        the given version id goes, wherever it sits."""
        idx = self.make([("u", 1), ("u", 2), ("u", 3), ("v", 4)],
                        [("u", 5), ("u", 6)])
        assert idx.remove({"a": "u"}, 2)
        assert idx.remove({"a": "u"}, 6)
        assert idx.scan_eq(["u"]) == [1, 3, 5]
        assert idx.remove({"a": "u"}, 1) and idx.remove({"a": "u"}, 5)
        assert idx.scan_eq(["u"]) == [3]
        assert idx.scan_all() == [3, 4]

    def test_remove_absent_entry(self):
        idx = self.make([("u", 1), ("u", 3)], [("u", 5)])
        assert not idx.remove({"a": "u"}, 2)    # inside the run, no such id
        assert not idx.remove({"a": "u"}, 9)    # past the run
        assert not idx.remove({"a": "t"}, 1)    # no such key
        assert not Index("e", "t", ["a"]).remove({"a": 1}, 1)
        assert idx.scan_eq(["u"]) == [1, 3, 5]

    def test_remove_then_insert_and_merge(self):
        idx = self.make([(i, i) for i in range(1, 40)], [(5, 40)])
        assert idx.remove({"a": 5}, 5)
        idx.insert({"a": 5}, 41)
        idx.merge_pending()
        assert idx.scan_eq([5]) == [40, 41]
        assert len(idx) == 40

    def test_multi_column_entry(self):
        idx = Index("idx2", "t", ["a", "b"])
        idx.insert({"a": 1, "b": None}, 1)
        idx.insert({"a": 1, "b": 2}, 2)
        assert idx.remove({"a": 1, "b": None}, 1)
        assert idx.scan_eq([1]) == [2]


class TestHeapTable:
    def test_insert_assigns_distinct_ids(self):
        heap = HeapTable("t")
        v1 = heap.insert_version({"x": 1}, xid=1)
        v2 = heap.insert_version({"x": 2}, xid=1)
        assert v1.version_id != v2.version_id
        assert v1.row_id != v2.row_id

    def test_update_keeps_row_id(self):
        heap = HeapTable("t")
        v1 = heap.insert_version({"x": 1}, xid=1)
        v2 = heap.update_version(v1, {"x": 2}, xid=2)
        assert v2.row_id == v1.row_id
        assert 2 in v1.xmax_candidates

    def test_cleanup_aborted_removes_versions(self):
        heap = HeapTable("t")
        keep = heap.insert_version({"x": 1}, xid=1)
        heap.insert_version({"x": 2}, xid=2)
        heap.delete_version(keep, xid=2)
        heap.cleanup_aborted(2)
        assert len(heap) == 1
        assert keep.xmax_candidates == set()

    def test_rollback_committed_reverses_winner(self):
        heap = HeapTable("t")
        v1 = heap.insert_version({"x": 1}, xid=1)
        heap.delete_version(v1, xid=2)   # a winner was a candidate first
        v1.set_delete_winner(2, block_number=5)
        heap._created_by_xid.setdefault(2, [])
        heap.rollback_committed(2)
        assert v1.xmax_winner is None
        assert v1.deleter_block is None

    def test_cleanup_cost_follows_the_write_set_not_the_heap(
            self, monkeypatch):
        """Abort cleanup and recovery rollback visit the versions the
        transaction marked, however large the heap is."""
        heap = HeapTable("t")
        rows = [heap.insert_version({"x": i}, xid=1) for i in range(5000)]
        cleared = []
        original = RowVersion.clear_delete_candidate

        def counting(version, xid):
            cleared.append(version.version_id)
            original(version, xid)

        monkeypatch.setattr(RowVersion, "clear_delete_candidate", counting)
        for xid, marked in ((2, 3), (3, 40)):
            for old in rows[:marked]:
                heap.update_version(old, {"x": -old.values["x"]}, xid=xid)
        heap.cleanup_aborted(2)
        assert cleared == [v.version_id for v in rows[:3]]
        assert len(heap) == 5040
        del cleared[:]
        for old in rows[:40]:
            old.set_delete_winner(3, block_number=7)
        heap.rollback_committed(3)
        assert cleared == [v.version_id for v in rows[:40]]
        assert len(heap) == 5000
        assert all(v.xmax_winner is None and v.deleter_block is None
                   and not v.xmax_candidates for v in rows)

    def test_delete_winner_leaves_no_candidate_set(self):
        """The winner lives in ``xmax_winner`` alone; the shared empty
        array comes back, and ``deleted_by`` knows both."""
        heap = HeapTable("t")
        v1 = heap.insert_version({"x": 1}, xid=1)
        fresh = heap.insert_version({"x": 2}, xid=1)
        heap.delete_version(v1, xid=2)
        heap.delete_version(v1, xid=3)
        assert v1.deleted_by(2) and v1.deleted_by(3)
        v1.set_delete_winner(2, block_number=5)
        assert v1.xmax_candidates is fresh.xmax_candidates
        assert v1.deleted_by(2) and not v1.deleted_by(3)
        assert v1.is_dead
        # The loser's abort cleanup finds nothing of its own left.
        heap.cleanup_aborted(3)
        assert v1.xmax_winner == 2 and v1.deleter_block == 5

    def test_own_committed_delete_stays_invisible_to_its_deleter(self):
        statuses = TxStatusTable()
        heap = HeapTable("t")
        statuses.begin(1)
        v1 = heap.insert_version({"x": 1}, xid=1)
        statuses.commit(1, block_number=1)
        statuses.begin(2)
        snapshot = SeqSnapshot(statuses.current_commit_seq)
        heap.delete_version(v1, xid=2)
        assert not visible(v1, snapshot, statuses, own_xid=2)
        v1.set_delete_winner(2, block_number=2)
        assert not visible(v1, snapshot, statuses, own_xid=2)
        assert visible(v1, snapshot, statuses, own_xid=None)

    def test_remove_version_takes_its_index_entries(self):
        heap = HeapTable("t")
        heap.add_index(Index("i", "t", ["x"]))
        heap.add_index(Index("j", "t", ["y"]))
        gone = heap.insert_version({"x": 1, "y": "a"}, xid=1)
        kept = heap.insert_version({"x": 1, "y": "b"}, xid=1)
        heap.merge_pending_indexes()
        assert heap.remove_version(gone.version_id)
        assert not heap.remove_version(gone.version_id)
        assert heap.indexes["i"].scan_eq([1]) == [kept.version_id]
        assert heap.indexes["j"].scan_all() == [kept.version_id]
        assert len(heap) == 1 and heap.vacuumed_versions == 1

    def test_indexes_cover_new_versions(self):
        heap = HeapTable("t")
        heap.add_index(Index("i", "t", ["x"]))
        heap.insert_version({"x": 9}, xid=1)
        assert len(heap.indexes["i"]) == 1

    def test_index_backfill(self):
        heap = HeapTable("t")
        heap.insert_version({"x": 1}, xid=1)
        heap.add_index(Index("late", "t", ["x"]), backfill=True)
        assert heap.indexes["late"].scan_eq([1])

    def test_resolve_skips_dead_version_ids(self):
        heap = HeapTable("t")
        v = heap.insert_version({"x": 1}, xid=9)
        heap.cleanup_aborted(9)
        assert heap.resolve([v.version_id]) == []


class TestVersionDirectory:
    """The heap's version directory is a list indexed by version id:
    ids are dense from 1, every way a version leaves — reclaim, abort
    cleanup, recovery rollback — leaves a hole, and ``len`` counts the
    versions still held."""

    @staticmethod
    def directory(heap):
        """``(len, ids of all_versions)``, checked against each other."""
        ids = [v.version_id for v in heap.all_versions()]
        assert ids == sorted(ids) and len(ids) == len(heap)
        return len(heap), ids

    def test_insert_allocates_dense_ids(self):
        heap = HeapTable("t")
        versions = [heap.insert_version({"x": i}, xid=1) for i in range(4)]
        assert [v.version_id for v in versions] == [1, 2, 3, 4]
        assert self.directory(heap) == (4, [1, 2, 3, 4])
        assert all(heap.get_version(v.version_id) is v for v in versions)

    def test_every_way_out_leaves_a_hole(self):
        heap = HeapTable("t")
        heap.add_index(Index("i", "t", ["x"]))
        base = [heap.insert_version({"x": i}, xid=1) for i in range(3)]
        aborted = heap.insert_version({"x": 10}, xid=2)
        rolled = heap.update_version(base[2], {"x": 20}, xid=3)
        assert self.directory(heap) == (5, [1, 2, 3, 4, 5])

        assert heap.remove_version(base[0].version_id)        # reclaim
        heap.cleanup_aborted(2)                                # abort
        rolled_back = rolled.version_id
        base[2].set_delete_winner(3, block_number=4)
        heap.rollback_committed(3)                             # recovery
        assert self.directory(heap) == (2, [2, 3])
        assert base[2].xmax_winner is None

        # Ids keep counting past the holes: none is reused.
        fresh = heap.insert_version({"x": 30}, xid=4)
        assert fresh.version_id == 6
        assert self.directory(heap) == (3, [2, 3, 6])

        for hole in (base[0].version_id, aborted.version_id, rolled_back):
            assert heap.maybe_version(hole) is None
            with pytest.raises(KeyError):
                heap.get_version(hole)
            assert not heap.remove_version(hole)
        assert len(heap) == 3

    def test_resolve_skips_holes_and_unallocated_ids(self):
        heap = HeapTable("t")
        a, b, c = (heap.insert_version({"x": i}, xid=1) for i in range(3))
        heap.remove_version(b.version_id)
        ids = [c.version_id, 0, b.version_id, 99, a.version_id, 4]
        assert heap.resolve(ids) == [c, a]
        assert heap.maybe_version(0) is None
        assert heap.maybe_version(99) is None
        with pytest.raises(KeyError):
            heap.get_version(99)


class TestVisibility:
    def setup_method(self):
        self.heap = HeapTable("t")
        self.statuses = TxStatusTable()

    def _commit(self, xid, block=1):
        self.statuses.begin(xid)
        return self.statuses.commit(xid, block_number=block)

    def test_uncommitted_invisible_to_others(self):
        self.statuses.begin(1)
        v = self.heap.insert_version({"x": 1}, xid=1)
        snap = SeqSnapshot(self.statuses.current_commit_seq)
        assert not visible(v, snap, self.statuses, own_xid=99)
        assert visible(v, snap, self.statuses, own_xid=1)

    def test_committed_visible_within_snapshot(self):
        v = self.heap.insert_version({"x": 1}, xid=1)
        record = self._commit(1)
        v.creator_block = 1
        snap = SeqSnapshot(record.commit_seq)
        assert visible(v, snap, self.statuses, own_xid=None)

    def test_commit_after_snapshot_invisible(self):
        snap = SeqSnapshot(self.statuses.current_commit_seq)
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1)
        assert not visible(v, snap, self.statuses, own_xid=None)

    def test_deleted_by_committed_invisible(self):
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1, block=1)
        v.creator_block = 1
        self.statuses.begin(2)
        v.mark_delete_candidate(2)
        v.set_delete_winner(2, block_number=2)
        self.statuses.commit(2, block_number=2)
        snap = SeqSnapshot(self.statuses.current_commit_seq)
        assert not visible(v, snap, self.statuses, own_xid=None)

    def test_own_delete_hides_row(self):
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1)
        v.creator_block = 1
        self.statuses.begin(2)
        v.mark_delete_candidate(2)
        snap = SeqSnapshot(self.statuses.current_commit_seq)
        assert not visible(v, snap, self.statuses, own_xid=2)
        # But others still see it: the deleter has not committed.
        assert visible(v, snap, self.statuses, own_xid=3)

    def test_block_snapshot_visibility(self):
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1, block=5)
        v.creator_block = 5
        assert visible(v, BlockSnapshot(5), self.statuses, None)
        assert not visible(v, BlockSnapshot(4), self.statuses, None)

    def test_block_snapshot_sees_past_deleted_version(self):
        """Figure 3: a snapshot at height h sees rows deleted after h."""
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1, block=1)
        v.creator_block = 1
        self.statuses.begin(2)
        v.set_delete_winner(2, block_number=3)
        self.statuses.commit(2, block_number=3)
        assert visible(v, BlockSnapshot(2), self.statuses, None)
        assert not visible(v, BlockSnapshot(3), self.statuses, None)

    def test_window_helpers(self):
        v = self.heap.insert_version({"x": 1}, xid=1)
        self._commit(1, block=5)
        v.creator_block = 5
        assert version_committed_in_window(v, self.statuses, 2, 6)
        assert not version_committed_in_window(v, self.statuses, 5, 6)
        self.statuses.begin(2)
        v.set_delete_winner(2, block_number=7)
        self.statuses.commit(2, block_number=7)
        assert version_deleted_in_window(v, self.statuses, 5, 8)
        assert not version_deleted_in_window(v, self.statuses, 7, 8)


class TestTxStatusTable:
    def test_commit_sequences_monotonic(self):
        table = TxStatusTable()
        table.begin(1)
        table.begin(2)
        r1 = table.commit(1)
        r2 = table.commit(2)
        assert r2.commit_seq == r1.commit_seq + 1

    def test_double_commit_rejected(self):
        table = TxStatusTable()
        table.begin(1)
        table.commit(1)
        with pytest.raises(ValueError):
            table.commit(1)

    def test_rollback_commit_for_recovery(self):
        table = TxStatusTable()
        table.begin(1)
        table.commit(1, block_number=3)
        table.rollback_commit(1)
        assert table.status_of(1) is TxStatus.IN_PROGRESS
        assert table.commit_seq(1) is None

    def test_unknown_xid_is_aborted(self):
        table = TxStatusTable()
        assert table.is_aborted(404)

    def test_every_state_of_sparse_xids(self):
        """The table is an array indexed by xid; ids it was never told
        about — below, between and beyond the ones begun — read as
        aborted and cannot be finished."""
        table = TxStatusTable()
        for xid in (7, 3, 12):
            assert table.begin(xid).status is TxStatus.IN_PROGRESS
        table.commit(3, block_number=5)
        table.abort(12)
        assert table.get(3).commit_block == 5 and table.get(3).commit_seq == 1
        assert [table.status_of(xid) for xid in (3, 7, 12)] == [
            TxStatus.COMMITTED, TxStatus.IN_PROGRESS, TxStatus.ABORTED]
        assert table.is_committed(3) and not table.is_committed(7)
        assert table.is_aborted(12) and not table.is_aborted(7)
        assert table.commit(7).commit_block is None
        assert table.current_commit_seq == 2
        for never in (0, 5, 13, 10 ** 6, -1):
            assert table.status_of(never) is TxStatus.ABORTED
            assert table.is_aborted(never) and not table.is_committed(never)
            assert table.commit_seq(never) is None
            for finish in (table.get, table.commit, table.abort,
                           table.rollback_commit):
                with pytest.raises(KeyError):
                    finish(never)
        with pytest.raises(ValueError):
            table.begin(7)
        with pytest.raises(ValueError):
            table.abort(3)
        with pytest.raises(ValueError):
            table.commit(12)


class TestBlockStore:
    def _chain(self, n):
        store = BlockStore()
        genesis = make_genesis()
        store.append(genesis)
        prev = genesis.block_hash
        for i in range(1, n):
            block = Block(number=i, transactions=[], prev_hash=prev).seal()
            store.append(block)
            prev = block.block_hash
        return store

    def test_height_tracks_appends(self):
        store = self._chain(4)
        assert store.height == 3
        assert len(store) == 4

    def test_gap_rejected(self):
        store = self._chain(2)
        block = Block(number=5, transactions=[],
                      prev_hash=store.tip().block_hash).seal()
        with pytest.raises(BlockValidationError):
            store.append(block)

    def test_wrong_prev_hash_rejected(self):
        store = self._chain(2)
        block = Block(number=2, transactions=[],
                      prev_hash=b"\x00" * 32).seal()
        with pytest.raises(BlockValidationError):
            store.append(block)

    def test_verify_chain_detects_tamper(self):
        store = self._chain(3)
        store.tamper(1, metadata={"evil": True})
        with pytest.raises(BlockValidationError):
            store.verify_chain()

    def test_verify_chain_clean(self):
        self._chain(5).verify_chain()
