"""``visible_versions`` against the per-version rules it replaced.

``storage.visibility.visible_versions`` is the one implementation of
row visibility in ``src/``: it reads the snapshot kind, the status
array and its length once per candidate list.  The per-version
function it replaced, ``version_visible`` below, stays here as the
oracle, kept as it was: for every candidate list, every snapshot and
every reader, the visible versions must be exactly the candidates the
oracle accepts, in candidate order.  The generated states cover Seq and
Block snapshots, the reader's own inserts and deletes (as an xmax
candidate and as the winner), other transactions' candidate and
winner xmax, committed, aborted and in-progress xids, and xids past
the end of the status array.  ``latest_committed_visible``, the
"latest committed state" rule the network's table fingerprints and the
commit-pipeline dumps used, is the same question asked with
``SeqSnapshot(current_commit_seq)`` and no reader, and is held to that.

``visible`` is the one-version question the other storage tests ask,
through ``visible_versions``.
"""

from typing import Optional, Union

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.row import RowVersion
from repro.storage.snapshot import BlockSnapshot, SeqSnapshot, TxStatusTable
from repro.storage.visibility import visible_versions

Snapshot = Union[SeqSnapshot, BlockSnapshot]


def version_visible(version: RowVersion, snapshot: Snapshot,
                    statuses: TxStatusTable, own_xid: Optional[int]) -> bool:
    """The per-version rules (PostgreSQL's HeapTupleSatisfiesMVCC,
    extended with block heights), as ``src/`` ran them one call per
    version, with the snapshots' ``includes_commit`` / ``includes_block``
    spelled out."""
    if own_xid is not None and version.xmin == own_xid:
        # Own insert: invisible only if we deleted it ourselves.
        return not version.deleted_by(own_xid)
    seqs = statuses._seqs
    xmin = version.xmin
    creator_seq = seqs[xmin] if xmin < len(seqs) else 0
    if creator_seq <= 0:
        return False
    if isinstance(snapshot, SeqSnapshot):
        if not includes_commit(snapshot, creator_seq):
            return False
    else:
        if not includes_block(snapshot, version.creator_block):
            return False
    # Deletion check: our own pending delete hides the row from ourselves.
    if own_xid is not None and version.deleted_by(own_xid):
        return False
    winner = version.xmax_winner
    if winner is None:
        return True
    deleter_seq = seqs[winner] if winner < len(seqs) else 0
    if deleter_seq <= 0:
        return True
    if isinstance(snapshot, SeqSnapshot):
        return not includes_commit(snapshot, deleter_seq)
    return not includes_block(snapshot, version.deleter_block)


def includes_commit(snapshot: SeqSnapshot, commit_seq: Optional[int]) -> bool:
    return commit_seq is not None and commit_seq <= snapshot.seq


def includes_block(snapshot: BlockSnapshot,
                   block_number: Optional[int]) -> bool:
    return block_number is not None and block_number <= snapshot.height


def latest_committed_visible(version: RowVersion,
                             statuses: TxStatusTable) -> bool:
    """Visibility against the *latest* committed state, as ``src/`` had
    it beside the snapshot rules."""
    seqs, xmin = statuses._seqs, version.xmin
    if xmin >= len(seqs) or seqs[xmin] <= 0:
        return False
    winner = version.xmax_winner
    return winner is None or winner >= len(seqs) or seqs[winner] <= 0


def visible(version: RowVersion, snapshot: Snapshot,
            statuses: TxStatusTable, own_xid: Optional[int]) -> bool:
    """Is ``version`` visible?  The src implementation, one candidate."""
    return bool(visible_versions((version,), snapshot, statuses, own_xid))


# ----------------------------------------------------------------------
# Generated states
# ----------------------------------------------------------------------

N_XIDS = 6                        # xids 1..6 get a status; 0, 7, 8 never do
XIDS = st.integers(min_value=0, max_value=N_XIDS + 2)
BLOCKS = st.one_of(st.none(), st.integers(min_value=0, max_value=6))

# Per xid 1..N_XIDS: "in_progress", "aborted", or the commit block.
STATUS = st.one_of(st.sampled_from(["in_progress", "aborted", "never"]),
                   st.integers(min_value=0, max_value=6))


def _statuses(plan) -> TxStatusTable:
    statuses = TxStatusTable()
    for xid, state in enumerate(plan, start=1):
        if state == "never":
            continue
        statuses.begin(xid)
        if state == "aborted":
            statuses.abort(xid)
        elif state != "in_progress":
            statuses.commit(xid, block_number=state)
    return statuses


@st.composite
def versions(draw):
    version = RowVersion(draw(st.integers(min_value=1, max_value=99)), 1,
                         {"k": 1}, draw(XIDS),
                         creator_block=draw(BLOCKS))
    for xid in draw(st.lists(XIDS, max_size=3)):
        version.mark_delete_candidate(xid)
    if draw(st.booleans()):
        version.set_delete_winner(draw(XIDS), draw(BLOCKS))
    return version


snapshots = st.one_of(
    st.builds(SeqSnapshot, st.integers(min_value=0, max_value=N_XIDS + 1)),
    st.builds(BlockSnapshot, st.integers(min_value=0, max_value=7)))


class TestVisibleVersionsMatchesOracle:
    @given(plan=st.lists(STATUS, min_size=N_XIDS, max_size=N_XIDS),
           candidates=st.lists(versions(), max_size=12),
           snapshot=snapshots,
           own_xid=st.one_of(st.none(), XIDS))
    @settings(max_examples=400, deadline=None)
    def test_same_versions_in_candidate_order(self, plan, candidates,
                                              snapshot, own_xid):
        statuses = _statuses(plan)
        expected = [v for v in candidates
                    if version_visible(v, snapshot, statuses, own_xid)]
        got = visible_versions(candidates, snapshot, statuses, own_xid)
        assert [id(v) for v in got] == [id(v) for v in expected]
        # One version at a time, as the ledger and the unique check ask.
        for version in candidates:
            assert visible(version, snapshot, statuses, own_xid) == \
                version_visible(version, snapshot, statuses, own_xid)
        latest = visible_versions(candidates,
                                  SeqSnapshot(statuses.current_commit_seq),
                                  statuses, None)
        assert [id(v) for v in latest] == [
            id(v) for v in candidates
            if latest_committed_visible(v, statuses)]

    def test_each_rule_fires(self):
        """The generated space reaches every branch: spelled out once,
        one state per rule, so a strategy change cannot quietly drop
        one."""
        statuses = _statuses([1, "aborted", "in_progress", 3, 2, "never"])
        seq, block = SeqSnapshot(statuses.current_commit_seq), \
            BlockSnapshot(2)

        def make(xmin, creator=1, winner=None, deleter=None,
                 candidates=()):
            version = RowVersion(1, 1, {}, xmin, creator_block=creator)
            for xid in candidates:
                version.mark_delete_candidate(xid)
            if winner is not None:
                version.set_delete_winner(winner, deleter)
            return version

        cases = [
            (make(3), seq, 3, True),                    # own insert
            (make(3, candidates=[3]), seq, 3, False),   # own insert + delete
            (make(3, winner=3), seq, 3, False),          # own delete as winner
            (make(1, candidates=[3]), seq, 3, False),    # own pending delete
            (make(1, candidates=[2]), seq, 3, True),     # other's candidate
            (make(2), seq, None, False),                 # aborted creator
            (make(3), seq, None, False),                 # in-progress creator
            (make(8), seq, None, False),                 # xid past the array
            (make(1, winner=4, deleter=3), seq, None, False),   # deleted
            (make(1, winner=2), seq, None, True),        # aborted winner
            (make(1, winner=8), seq, None, True),        # winner past array
            (make(1, creator=3), block, None, False),    # above the height
            (make(1, winner=5, deleter=2), block, None, False),
            (make(1, winner=4, deleter=3), block, None, True),
            (make(1, creator=None), block, None, False),
        ]
        for version, snapshot, own_xid, expected in cases:
            assert version_visible(version, snapshot, statuses,
                                   own_xid) is expected
            assert visible(version, snapshot, statuses, own_xid) is expected
