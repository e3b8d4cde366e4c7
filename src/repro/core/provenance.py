"""Provenance query helpers (section 4.2, Table 3).

Provenance queries see *every committed version* of every row — active or
superseded — plus the pseudo-columns ``xmin`` / ``xmax`` / ``creator`` /
``deleter`` / ``row_id``, and can join against pgLedger (whose ``txid``
column holds the node-local xid, matching the pseudo-columns).

The helpers below package the two audit patterns of Table 3; arbitrary
provenance SQL can always be issued through
:meth:`BlockchainClient.provenance_query`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.node.ledger import LEDGER_TABLE


class ProvenanceAuditor:
    """Audit queries over one node's history, via a client session."""

    def __init__(self, client):
        self.client = client

    # ------------------------------------------------------------------

    def rows_touched_by_user_between_blocks(
            self, table: str, username: str, low_block: int,
            high_block: int) -> List[Dict[str, Any]]:
        """Table 3, query 1: all rows of ``table`` updated (superseded or
        created) by ``username`` between two block heights.

        Matches versions whose creating or deleting transaction belongs to
        the user and committed in the window."""
        sql = (
            f"SELECT t.*, l.blocknumber AS block_number "
            f"FROM {table} t, {LEDGER_TABLE} l "
            f"WHERE l.blocknumber BETWEEN $1 AND $2 "
            f"AND l.username = $3 AND l.status = 'committed' "
            f"AND t.xmin = l.txid")
        created = self.client.provenance_query(
            sql, params=(low_block, high_block, username)).as_dicts()
        sql_deleted = (
            f"SELECT t.*, l.blocknumber AS block_number "
            f"FROM {table} t, {LEDGER_TABLE} l "
            f"WHERE l.blocknumber BETWEEN $1 AND $2 "
            f"AND l.username = $3 AND l.status = 'committed' "
            f"AND t.xmax = l.txid")
        superseded = self.client.provenance_query(
            sql_deleted, params=(low_block, high_block,
                                 username)).as_dicts()
        return created + superseded

    def history_of_row(self, table: str, key_column: str,
                       key_value: Any,
                       users: Optional[Sequence[str]] = None,
                       since_seconds: Optional[float] = None
                       ) -> List[Dict[str, Any]]:
        """Table 3, query 2: the full version history of one logical row,
        optionally filtered to updates by specific users within a recent
        wall-clock window."""
        clauses = [f"t.{key_column} = $1", "t.xmin = l.txid"]
        params: List[Any] = [key_value]
        if users:
            placeholders = ", ".join(
                f"${len(params) + 1 + i}" for i in range(len(users)))
            clauses.append(f"l.username IN ({placeholders})")
            params.extend(users)
        if since_seconds is not None:
            clauses.append(
                f"l.committime > now() - ${len(params) + 1}")
            params.append(float(since_seconds))
        sql = (
            f"SELECT t.*, l.blocknumber AS block_number, "
            f"l.username AS changed_by "
            f"FROM {table} t, {LEDGER_TABLE} l "
            f"WHERE {' AND '.join(clauses)} "
            f"ORDER BY l.blocknumber")
        return self.client.provenance_query(sql,
                                            params=tuple(params)).as_dicts()

    def version_chain(self, table: str, key_column: str,
                      key_value: Any) -> List[Dict[str, Any]]:
        """All versions of a logical row in creation order, with MVCC
        headers — raw material for custom audits.

        Served from the peer's columnar replica (the analytics path):
        committed versions with creator/deleter vectors are exactly what
        the chunks store, so the audit never scans the transactional
        heap — and keeps working for history that vacuum has already
        pruned from the row store."""
        return self.client.peer.row_history(
            table, key_column, key_value, username=self.client.name)

    def state_as_of(self, table: str, height: int) -> List[Dict[str, Any]]:
        """The full committed contents of ``table`` as of block
        ``height`` — a time-travel snapshot off the columnar replica."""
        return self.client.query_as_of(
            f"SELECT * FROM {table}", height).as_dicts()

    def diff_between(self, table: str, low_height: int,
                     high_height: int) -> Dict[str, List[Dict[str, Any]]]:
        """Rows created and rows deleted in ``(low_height,
        high_height]`` with MVCC headers — the block-window audit,
        computed from the columnar creator/deleter vectors instead of a
        full provenance scan."""
        return self.client.peer.block_diff(
            table, low_height, high_height, username=self.client.name)

    def transactions_of_user(self, username: str) -> List[Dict[str, Any]]:
        """Every ledger entry recorded for ``username``."""
        sql = (f"SELECT tx_id, blocknumber, procedure, status, reason "
               f"FROM {LEDGER_TABLE} WHERE username = $1 "
               f"ORDER BY blocknumber, blockposition")
        return self.client.query(sql, params=(username,)).as_dicts()
