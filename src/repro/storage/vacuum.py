"""Version pruning — the enhanced VACUUM of section 7.

The paper keeps every row version for provenance, and notes: "we need to
enhance the existing pruning tool such as vacuum to remove rows based on
fields such as creator, deleter."  This module implements exactly that: a
vacuum that removes *dead* versions (superseded by a committed deleter)
whose ``deleter_block`` is at or below a **retained-height horizon**, so
recent history stays queryable while ancient versions are reclaimed.

The retention contract (property-tested in
``tests/storage/test_vacuum_retention.py``): a version visible at any
height ``h >= retain_height`` has ``deleter_block > h >= retain_height``
(or no deleter at all), so vacuum — which only removes versions with
``deleter_block <= retain_height`` — can never remove it.  Time-travel
reads therefore stay exact at every height at or above the horizon;
``Database.retained_height`` records the floor and the executor refuses
``AS OF`` reads below it.

Pinned historical reads are respected too: an in-flight transaction
holding a :class:`BlockSnapshot` below the requested horizon clamps the
pass down to its height, so vacuum never pulls versions out from under a
running snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.storage.snapshot import BlockSnapshot, TxStatusTable
from repro.storage.table import HeapTable


@dataclass
class VacuumReport:
    """What one vacuum pass removed."""

    retain_height: int
    requested_retain_height: int = 0
    removed_versions: int = 0
    scanned_versions: int = 0
    per_table: Dict[str, int] = field(default_factory=dict)


def vacuum_table(heap: HeapTable, statuses: TxStatusTable,
                 retain_height: int) -> int:
    """Remove dead versions of ``heap`` deleted at or before
    ``retain_height``.  Returns the number of versions removed.

    A version is reclaimable when its delete winner *committed* and the
    deletion block is at or below the horizon — the same predicate the
    paper's creator/deleter-aware vacuum would use, and the exact
    complement of block-height visibility at any retained height.  The
    heap drops a removed version's index entries with it.
    """
    removable: List[int] = []
    for version in heap.all_versions():
        if version.deleter_block is None or version.xmax_winner is None:
            continue
        if version.deleter_block > retain_height:
            continue
        if not statuses.is_committed(version.xmax_winner):
            continue
        removable.append(version.version_id)
    for version_id in removable:
        heap.remove_version(version_id)
    return len(removable)


def pinned_floor(db) -> int:
    """Lowest block height any in-flight transaction is pinned to via a
    :class:`BlockSnapshot` (``2**63`` when none is)."""
    floor = 2 ** 63
    for tx in db._active.values():
        if isinstance(tx.snapshot, BlockSnapshot):
            floor = min(floor, tx.snapshot.height)
    return floor


def vacuum_database(db, retain_height: int,
                    skip_tables: tuple = ("pgledger",)) -> VacuumReport:
    """Vacuum every table of a :class:`repro.mvcc.database.Database`,
    guaranteeing every version visible at any height ``>=
    retain_height`` survives.

    The effective horizon is clamped below any in-flight pinned
    block-height snapshot, then recorded as ``db.retained_height`` so
    the AS OF executor refuses reads into pruned history.

    ``pgledger`` is skipped by default: ledger rows are the provenance
    join target and are never superseded in normal operation anyway
    (status updates create new versions — those *are* pruned if included,
    so audits should retain them)."""
    effective = min(retain_height, pinned_floor(db))
    report = VacuumReport(retain_height=effective,
                          requested_retain_height=retain_height)
    for table_name in db.catalog.table_names():
        if table_name in skip_tables:
            continue
        heap = db.catalog.heap_of(table_name)
        report.scanned_versions += len(heap)
        removed = vacuum_table(heap, db.statuses, effective)
        if removed:
            report.per_table[table_name] = removed
            report.removed_versions += removed
    if effective > db.retained_height:
        # The guarantee below the horizon is gone whether or not this
        # particular pass removed anything there.
        db.retained_height = effective
    if report.removed_versions:
        # Stats drift: vacuumed version counts feed planner estimates, so
        # cached plan templates built before the pass are stale.
        db.catalog.bump_version()
    return report
