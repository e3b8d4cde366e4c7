"""WAL group commit, WAL recycling and bulk index maintenance unit
tests."""

import json
import os

import pytest

from repro.storage.index import AUTO_MERGE_THRESHOLD, Index, normalize_key
from repro.storage.wal import (
    WAL_BEGIN,
    WAL_COMMIT,
    WALRecord,
    WriteAheadLog,
)
from tests.conftest import counter


class TestWALGroupCommit:
    def test_to_json_is_cached(self):
        record = WALRecord(lsn=1, kind="commit", payload={"xid": 7})
        first = record.to_json()
        assert record.to_json() is first   # serialized exactly once

    def test_flush_appends_only_new_records(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WAL_COMMIT, xid=1)
        wal.append(WAL_COMMIT, xid=2)
        wal.flush()
        assert counter(wal, "wal.flush_count") == 1
        assert counter(wal, "wal.records_flushed") == 2
        wal.append(WAL_COMMIT, xid=3)
        wal.flush()
        assert counter(wal, "wal.records_flushed") == 3
        lines = open(path).read().strip().splitlines()
        assert len(lines) == 3   # appended, not rewritten
        reloaded = WriteAheadLog(path)
        assert [r.payload["xid"] for r in reloaded.records(WAL_COMMIT)] \
            == [1, 2, 3]

    def test_crash_drops_unflushed_and_file_stays_consistent(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WAL_COMMIT, xid=1)
        wal.flush()
        wal.append(WAL_COMMIT, xid=2)   # never flushed
        wal.crash()
        assert [r.payload["xid"] for r in wal.records()] == [1]
        # Re-used lsn after the crash persists cleanly.
        wal.append(WAL_COMMIT, xid=9)
        wal.flush()
        reloaded = WriteAheadLog(path)
        assert [r.payload["xid"] for r in reloaded.records()] == [1, 9]
        assert [r.lsn for r in reloaded.records()] == [1, 2]

    def test_empty_flush_is_free(self):
        wal = WriteAheadLog()
        wal.flush()
        assert counter(wal, "wal.flush_count") == 0

    def test_group_batches_file_appends(self, tmp_path):
        """Inside ``group()`` the durability horizon advances at every
        flush call, but serialization + the file append happen once, at
        group exit (recovery/catch-up replay's group commit)."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        with wal.group():
            for xid in (1, 2, 3):
                wal.append(WAL_COMMIT, xid=xid)
                wal.flush()
            # Horizon is advanced, file is not yet written.
            assert wal.flushed_lsn == 3
            assert counter(wal, "wal.records_flushed") == 0
            assert not os.path.exists(path)
        assert counter(wal, "wal.flush_count") == 1
        assert counter(wal, "wal.records_flushed") == 3
        assert [r.payload["xid"] for r in WriteAheadLog(path).records()] \
            == [1, 2, 3]

    def test_group_is_reentrant(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        with wal.group():
            wal.append(WAL_COMMIT, xid=1)
            wal.flush()
            with wal.group():
                wal.append(WAL_COMMIT, xid=2)
                wal.flush()
            assert not os.path.exists(path)   # inner exit stays deferred
        assert len(list(WriteAheadLog(path).records())) == 2

    def test_group_exit_persists_even_on_exception(self, tmp_path):
        """An exception escaping the group still writes the deferred
        batch at exit: records whose horizon advanced inside the group
        are durable, exactly as if each flush had hit the file."""
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(WAL_COMMIT, xid=1)
        wal.flush()
        try:
            with wal.group():
                wal.append(WAL_COMMIT, xid=2)
                wal.flush()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        wal.crash()   # drops nothing: the horizon covered both records
        assert [r.payload["xid"] for r in wal.records()] == [1, 2]
        assert [r.payload["xid"] for r in WriteAheadLog(path).records()] \
            == [1, 2]


def make_index(**kwargs):
    return Index(name="idx", table_name="t", columns=["a"], **kwargs)


class TestWALRecycling:
    def test_recycle_drops_a_persisted_prefix(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        for xid in range(1, 7):
            wal.append(WAL_COMMIT, xid=xid)
        wal.flush()
        assert wal.recycle(4) == 4
        assert len(wal) == 2
        assert [r.lsn for r in wal.records()] == [5, 6]
        assert wal.committed_xids() == [5, 6]
        assert wal.recycle(4) == 0 and wal.recycle(2) == 0
        # Lsns go on where they were, and the file keeps everything.
        assert wal.append(WAL_COMMIT, xid=7).lsn == 7
        wal.flush()
        assert counter(wal, "wal.records_flushed") == 7
        assert [r.lsn for r in WriteAheadLog(path).records()] == \
            list(range(1, 8))

    def test_recycle_stops_at_the_persisted_horizon(self):
        wal = WriteAheadLog()
        wal.append(WAL_COMMIT, xid=1)
        wal.flush()
        wal.append(WAL_COMMIT, xid=2)
        wal.append(WAL_COMMIT, xid=3)
        assert wal.recycle(3) == 1          # lsn 2, 3 are not durable yet
        wal.crash()                          # ... and the crash takes them
        assert [r.lsn for r in wal.records()] == []
        assert wal.append(WAL_COMMIT, xid=4).lsn == 2
        wal.flush()
        assert wal.committed_xids() == [4]

    def test_recycle_waits_for_a_group_to_persist(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        with wal.group():
            wal.append(WAL_COMMIT, xid=1)
            wal.append(WAL_COMMIT, xid=2)
            wal.flush()
            assert wal.recycle(2) == 0      # durable, but not in the file
        assert wal.recycle(2) == 2
        assert [r.lsn for r in WriteAheadLog(path).records()] == [1, 2]

    def test_flush_after_recycle_writes_only_the_new_batch(self, tmp_path):
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(path)
        wal.append(WAL_BEGIN, xid=1)
        wal.append(WAL_COMMIT, xid=1)
        wal.flush()
        wal.recycle(1)
        wal.append(WAL_BEGIN, xid=2)
        wal.flush()
        with open(path, encoding="utf-8") as handle:
            assert [json.loads(line)["lsn"] for line in handle] == [1, 2, 3]
        assert wal.metrics.snapshot()["gauges"]["wal.records_retained"] == 2


class TestBulkIndexMaintenance:
    def test_pending_entries_visible_before_merge(self):
        idx = make_index()
        idx.insert({"a": 5}, 1)
        idx.insert({"a": 3}, 2)
        assert idx.pending_count == 2
        assert sorted(idx.scan_eq([5])) == [1]
        assert sorted(idx.scan_range([3], [5])) == [1, 2]
        assert idx.scan_all() == [2, 1]   # key order after fold
        assert idx.pending_count == 0     # ordered scan folded the tail

    def test_merge_preserves_key_order_and_tie_order(self):
        idx = make_index()
        for i, value in enumerate([4, 2, 4, 8]):
            idx.insert({"a": value}, i + 1)
        idx.merge_pending()
        # New entries with equal keys land after settled ones.
        idx.insert({"a": 4}, 9)
        idx.merge_pending()
        assert idx.scan_eq([4]) == [1, 3, 9]
        assert idx.scan_all() == [2, 1, 3, 9, 4]
        assert idx.bulk_merges >= 2

    def test_append_only_fast_path(self):
        idx = make_index()
        for i in range(10):
            idx.insert({"a": i}, i)
        idx.merge_pending()
        for i in range(10, 20):
            idx.insert({"a": i}, i)
        idx.merge_pending()
        assert idx.scan_all() == list(range(20))

    def test_auto_merge_threshold(self):
        idx = make_index()
        for i in range(AUTO_MERGE_THRESHOLD):
            idx.insert({"a": i}, i)
        assert idx.pending_count == 0
        assert idx.bulk_merges == 1
        assert len(idx) == AUTO_MERGE_THRESHOLD

    def test_range_scans_match_merged_results(self):
        """Unordered scans return the same id *set* before and after the
        bulk merge, across inclusive/exclusive bounds and prefixes."""
        idx = make_index()
        values = [7, 1, 5, 3, 5, 9, 2, 5, 8, 0]
        for i, value in enumerate(values):
            idx.insert({"a": value}, i)
            if i % 3 == 0:
                idx.merge_pending()   # interleave settled/pending regions
        cases = [
            ((None, None), {}),
            (([3], [8]), {}),
            (([3], [8]), {"low_inclusive": False}),
            (([3], [8]), {"high_inclusive": False}),
            (([5], [5]), {}),
            (([5], [5]), {"low_inclusive": False, "high_inclusive": False}),
        ]
        before = [sorted(idx.scan_range(lo, hi, **kw))
                  for (lo, hi), kw in cases]
        idx.merge_pending()
        after = [sorted(idx.scan_range(lo, hi, **kw))
                 for (lo, hi), kw in cases]
        assert before == after
        assert after[0] == sorted(range(len(values)))
        assert after[4] == sorted(i for i, v in enumerate(values) if v == 5)
        assert after[5] == []

    def test_ordered_scan_bounds(self):
        idx = make_index()
        for i, value in enumerate([6, 2, 4, 2, 8]):
            idx.insert({"a": value}, i)
        key = lambda v: normalize_key([v])
        assert idx.ordered_scan(key(2), key(6)) == [1, 3, 2, 0]
        assert idx.ordered_scan(key(2), key(6),
                                low_inclusive=False) == [2, 0]
        assert idx.ordered_scan(None, key(4),
                                high_inclusive=False) == [1, 3]

    def test_multi_column_prefix_semantics(self):
        idx = Index(name="idx", table_name="t", columns=["a", "b"])
        rows = [({"a": 1, "b": "x"}, 1), ({"a": 1, "b": "y"}, 2),
                ({"a": 2, "b": "x"}, 3)]
        for values, vid in rows:
            idx.insert(values, vid)
        assert sorted(idx.scan_eq([1])) == [1, 2]         # prefix
        assert idx.scan_eq([1, "y"]) == [2]               # full key
        assert sorted(idx.scan_range([1], [2])) == [1, 2, 3]
