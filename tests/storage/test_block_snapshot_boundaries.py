"""BlockSnapshot boundary semantics, shared by both visibility paths.

The row store (``storage.visibility.visible_versions`` with a
``BlockSnapshot``) and the columnar replica
(``analytics.columnstore.visible_at``) implement the same rule:

* ``creator == h``  → visible  (a block sees its own commits)
* ``deleter == h``  → invisible (deletion in the block takes effect)
* ``deleter >  h``  → visible  (deleted only in the future)
* ``creator >  h``  → invisible

Any drift between the two would make `AS OF` results depend on which
store served the read, so every case is asserted against both.
"""

import pytest

from repro.analytics.columnstore import visible_at
from repro.storage.row import RowVersion
from repro.storage.snapshot import BlockSnapshot, TxStatusTable
from tests.storage.test_visibility_oracle import visible

CASES = [
    # (creator, deleter, height, expected_visible)
    (5, None, 5, True),     # creator == h: own-block commit visible
    (5, None, 6, True),
    (5, None, 4, False),    # created above the snapshot height
    (5, 5, 5, False),       # created and deleted in the same block
    (5, 5, 4, False),
    (3, 7, 6, True),        # deleter > h: still alive at h
    (3, 7, 7, False),       # deleter == h: deletion takes effect
    (3, 7, 8, False),
    (3, 7, 2, False),       # before creation
    (3, 7, 3, True),
    (0, None, 0, True),     # genesis-stamped rows
]


def row_version(creator, deleter, statuses):
    """A committed version with the given header, wired through the
    status table the row-store path consults."""
    version = RowVersion(version_id=1, row_id=1, values={"v": 1},
                         xmin=101, creator_block=creator)
    statuses.begin(101)
    statuses.commit(101, block_number=creator)
    if deleter is not None:
        statuses.begin(102)
        statuses.commit(102, block_number=deleter)
        version.set_delete_winner(102, deleter)
    return version


class TestBoundarySemantics:
    @pytest.mark.parametrize("creator,deleter,height,expected", CASES)
    def test_row_store_visibility(self, creator, deleter, height, expected):
        statuses = TxStatusTable()
        version = row_version(creator, deleter, statuses)
        assert visible(version, BlockSnapshot(height), statuses,
                               own_xid=None) is expected

    @pytest.mark.parametrize("creator,deleter,height,expected", CASES)
    def test_columnar_visibility(self, creator, deleter, height, expected):
        assert visible_at(creator, deleter, height) is expected

    @pytest.mark.parametrize("creator,deleter,height,expected", CASES)
    def test_paths_agree(self, creator, deleter, height, expected):
        statuses = TxStatusTable()
        version = row_version(creator, deleter, statuses)
        assert visible(version, BlockSnapshot(height), statuses,
                               own_xid=None) == \
            visible_at(creator, deleter, height)

    def test_uncommitted_creator_invisible_in_row_store(self):
        """The columnar store never ingests uncommitted versions, so the
        row store's committed-creator check is the equivalent filter."""
        statuses = TxStatusTable()
        statuses.begin(101)  # in progress, never commits
        version = RowVersion(version_id=1, row_id=1, values={},
                             xmin=101, creator_block=3)
        assert not visible(version, BlockSnapshot(5), statuses,
                                   own_xid=None)

    def test_uncommitted_deleter_keeps_row_visible(self):
        statuses = TxStatusTable()
        version = row_version(3, None, statuses)
        statuses.begin(103)          # candidate deleter, not committed
        version.mark_delete_candidate(103)
        assert visible(version, BlockSnapshot(5), statuses,
                               own_xid=None)
        # Columnar twin: no committed deleter stamp -> deleter is None.
        assert visible_at(3, None, 5)
