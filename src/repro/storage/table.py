"""Heap table storage: append-only version store with MVCC headers.

Every update is a logical delete (xmax-candidate marking on the old
version) plus an insert of the new version — exactly PostgreSQL's
behaviour, which the paper calls "ideal for our goal of building a
blockchain that maintains all versions of data" (section 4.1).  Nothing is
ever physically removed except when an *aborted* transaction's versions are
cleaned up, during explicit recovery rollback, or when a dead version is
reclaimed (:meth:`HeapTable.remove_version`: the section 7 vacuum, and
the superseded ledger versions the retirement horizon drops).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, List, Optional

from repro.errors import ExecutionError
from repro.storage.index import Index
from repro.storage.row import RowVersion


class HeapTable:
    """Versioned storage for one table plus its indexes."""

    def __init__(self, name: str):
        self.name = name
        # The version directory, indexed by version id: ids are
        # allocated as its length (from 1; slot 0 is never used), so it
        # is dense, and a reclaimed or aborted version leaves a ``None``
        # hole.  ``_live`` counts the versions it holds.
        self._versions: List[Optional[RowVersion]] = [None]
        self._live = 0
        self._row_counter = itertools.count(1)
        self._indexes: Dict[str, Index] = {}
        # xid -> version ids created / versions delete-marked by that
        # xid, for abort cleanup and recovery rollback; dropped at the
        # retirement horizon
        self._created_by_xid: Dict[int, List[int]] = {}
        self._marked_by_xid: Dict[int, List[RowVersion]] = {}
        # Planner statistics, maintained incrementally: logical rows
        # currently live (fresh inserts count immediately; committed
        # deletes and abort cleanups decrement — see Database.apply_*),
        # versions physically reclaimed by vacuum, and how many times the
        # heap's *committed* state may have moved (commit stamping and
        # un-stamping, reclaim) and up to which block — the anchored
        # statistics' freshness token (sql/stats.py).
        self.live_rows = 0
        self.vacuumed_versions = 0
        self.commit_stamps = 0
        self.stamped_height = 0

    # ------------------------------------------------------------------
    # Index management
    # ------------------------------------------------------------------

    def add_index(self, index: Index, backfill: bool = True) -> None:
        if index.name in self._indexes:
            raise ExecutionError(f"index {index.name!r} already exists")
        self._indexes[index.name] = index
        if backfill:
            for version in self.all_versions():
                index.insert(version.values, version.version_id)
            index.merge_pending()

    def merge_pending_indexes(self) -> int:
        """Bulk index maintenance (block boundary): fold every index's
        pending tail into its settled arrays in one linear pass each.
        Returns the number of entries merged across all indexes."""
        merged = 0
        for index in self._indexes.values():
            merged += index.merge_pending()
        return merged

    @property
    def indexes(self) -> Dict[str, Index]:
        return self._indexes

    # ------------------------------------------------------------------
    # Version access
    # ------------------------------------------------------------------

    def get_version(self, version_id: int) -> RowVersion:
        version = self.maybe_version(version_id)
        if version is None:
            raise KeyError(version_id)
        return version

    def maybe_version(self, version_id: int) -> Optional[RowVersion]:
        versions = self._versions
        return versions[version_id] if 0 < version_id < len(versions) \
            else None

    def all_versions(self) -> List[RowVersion]:
        """All versions in insertion (version id) order — deterministic."""
        return [version for version in self._versions if version is not None]

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Mutation (always via a transaction xid)
    # ------------------------------------------------------------------

    def insert_version(self, values: Dict[str, Any], xid: int,
                       row_id: Optional[int] = None) -> RowVersion:
        """Create a new version.  ``row_id`` is allocated for fresh inserts
        and inherited for updates."""
        if row_id is None:
            self.live_rows += 1  # fresh logical row (updates inherit)
        version = RowVersion(
            version_id=len(self._versions),
            row_id=row_id if row_id is not None else next(self._row_counter),
            values=dict(values),
            xmin=xid,
        )
        self._versions.append(version)
        self._live += 1
        self._created_by_xid.setdefault(xid, []).append(version.version_id)
        for index in self._indexes.values():
            index.insert(version.values, version.version_id)
        return version

    def update_version(self, old: RowVersion, new_values: Dict[str, Any],
                       xid: int) -> RowVersion:
        """Mark ``old`` deleted by ``xid`` and insert the successor version
        carrying the same logical row id."""
        self.delete_version(old, xid)
        return self.insert_version(new_values, xid, row_id=old.row_id)

    def delete_version(self, old: RowVersion, xid: int) -> None:
        old.mark_delete_candidate(xid)
        self._marked_by_xid.setdefault(xid, []).append(old)

    # ------------------------------------------------------------------
    # Statistics hooks (driven by Database.apply_commit/apply_abort and
    # the vacuum)
    # ------------------------------------------------------------------

    def note_committed_delete(self) -> None:
        """A DELETE write-set entry committed: one logical row fewer."""
        self.note_committed_deletes(1)

    def note_committed_deletes(self, count: int) -> None:
        """Batched form: a block committed ``count`` DELETE entries against
        this table (one call per table per block instead of one per row)."""
        self.live_rows = max(0, self.live_rows - count)

    def note_insert_discarded(self) -> None:
        """A fresh insert was aborted or rolled back."""
        self.live_rows = max(0, self.live_rows - 1)

    def note_delete_reversed(self) -> None:
        """Recovery undid a committed delete: the row is live again."""
        self.live_rows += 1

    def note_commit_stamp(self, height: int) -> None:
        """A commit (or a block's deferred creator stamping) touched
        versions of this heap, stamping them with block ``height``."""
        self.commit_stamps += 1
        self.stamped_height = max(self.stamped_height, height)

    def remove_version(self, version_id: int) -> bool:
        """Physically reclaim one version together with its index
        entries; returns True when the version existed."""
        version = self._discard(version_id)
        if version is None:
            return False
        for index in self._indexes.values():
            index.remove(version.values, version_id)
        self.vacuumed_versions += 1
        self.commit_stamps += 1
        return True

    def _discard(self, version_id: int) -> Optional[RowVersion]:
        """Punch ``version_id``'s hole in the directory; returns the
        version it held, if any."""
        version = self.maybe_version(version_id)
        if version is not None:
            self._versions[version_id] = None
            self._live -= 1
        return version

    # ------------------------------------------------------------------
    # Abort / recovery cleanup
    # ------------------------------------------------------------------

    def cleanup_aborted(self, xid: int) -> None:
        """Physically remove versions created by ``xid`` and clear its xmax
        candidacies.  Called when a transaction aborts."""
        for version_id in self._created_by_xid.pop(xid, []):
            self._discard(version_id)
        for version in self._marked_by_xid.pop(xid, []):
            version.clear_delete_candidate(xid)
        # Note: index entries for removed versions are left behind and
        # filtered at scan time (version id no longer resolves).

    def forget_creator(self, xid: int) -> None:
        """``xid`` passed the retirement horizon: it can no longer abort
        or be rolled back, so its created / marked lists are dead
        weight."""
        self._created_by_xid.pop(xid, None)
        self._marked_by_xid.pop(xid, None)

    def rollback_committed(self, xid: int) -> None:
        """Recovery (section 3.6): undo a *committed* transaction so its
        block can be re-executed.  Removes created versions and reverses
        delete winners."""
        for version_id in self._created_by_xid.pop(xid, []):
            self._discard(version_id)
        for version in self._marked_by_xid.pop(xid, []):
            if version.xmax_winner == xid:
                version.deleter_block = None
            version.clear_delete_candidate(xid)
        self.commit_stamps += 1

    # ------------------------------------------------------------------
    # Scan helpers
    # ------------------------------------------------------------------

    def resolve(self, version_ids: Iterable[int]) -> List[RowVersion]:
        """Map version ids to live version objects, skipping entries whose
        versions were physically removed by abort cleanup.  Indexes the
        directory inline (scan candidates run through here by the
        thousand); ids are positive, so only the upper end is checked."""
        versions = self._versions
        size = len(versions)
        out: List[RowVersion] = []
        for version_id in version_ids:
            if version_id < size:
                version = versions[version_id]
                if version is not None:
                    out.append(version)
        return out
