"""Checkpointing (sections 3.3.4 / 3.4.4).

After committing a block, every node hashes the union of all changes the
block made to the database (the per-transaction write sets, in block
order, committed transactions only) and submits it to the ordering
service as proof of execution.  The hashes ride in a later block's
metadata; a node whose hash differs from the others' is provably faulty.

Checkpoints need not be per-block: ``interval`` batches N blocks into one
hash (the paper: "the hash of write sets can be computed for a
preconfigured number of blocks").
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.common.serialization import canonical_bytes, canonical_hash_hex
from repro.errors import CheckpointMismatchError
from repro.mvcc.transaction import TransactionContext

LEDGER_EXCLUDED_TABLES = {"pgledger"}


def write_set_digest(committed: List[TransactionContext]) -> str:
    """Canonical hash of the block's write-set union, in commit order.
    pgLedger rows are excluded (their commit_time is node-local).

    One streaming fold per block: each transaction's canonical bytes feed
    a single running SHA-256 (length-prefixed, so chunk boundaries are
    unambiguous) instead of materializing the whole block's payload and
    serializing it a second time.  Deterministic across nodes — the
    digest depends only on tx order and canonical write-set bytes."""
    hasher = hashlib.sha256()
    for tx in committed:
        chunk = canonical_bytes(
            {"tx": tx.tx_id,
             "writes": [entry.to_canonical() for entry in tx.writes
                        if entry.table not in LEDGER_EXCLUDED_TABLES]})
        hasher.update(len(chunk).to_bytes(8, "big"))
        hasher.update(chunk)
    return hasher.hexdigest()


class CheckpointManager:
    """Tracks local digests and cross-checks the network's."""

    def __init__(self, node_name: str, interval: int = 1):
        self.node_name = node_name
        self.interval = max(1, interval)
        self._local: Dict[int, str] = {}        # height -> digest
        self._pending_digests: List[str] = []
        self.mismatches: List[Tuple[int, str, str, str]] = []
        # (height, other_node, ours, theirs)
        self.verified_heights: List[int] = []

    def record_local(self, height: int,
                     committed: List[TransactionContext]) -> Optional[str]:
        """Fold this block's digest in; returns a checkpoint digest every
        ``interval`` blocks (to be submitted to the ordering service)."""
        self._pending_digests.append(write_set_digest(committed))
        if height % self.interval == 0:
            digest = canonical_hash_hex(self._pending_digests)
            self._pending_digests = []
            self._local[height] = digest
            return digest
        return None

    def local_digest(self, height: int) -> Optional[str]:
        return self._local.get(height)

    def verify_remote(self, checkpoints: Dict[str, Dict[str, str]]) -> None:
        """Compare digests arriving in block metadata against ours.

        ``checkpoints``: {height(str): {node_name: digest}}.  Mismatches
        are recorded (and raised) — section 3.5(3): "it would become
        evident during the checkpointing process that the malicious node
        did not commit the block correctly."
        """
        for height_str, nodes in checkpoints.items():
            height = int(height_str)
            ours = self._local.get(height)
            if ours is None:
                continue
            for other, theirs in sorted(nodes.items()):
                if other == self.node_name:
                    continue
                if theirs != ours:
                    self.mismatches.append((height, other, ours, theirs))
                else:
                    self.verified_heights.append(height)
        if self.mismatches:
            height, other, ours, theirs = self.mismatches[-1]
            raise CheckpointMismatchError(
                f"checkpoint divergence at height {height}: node "
                f"{other!r} reported {theirs[:12]}…, we computed "
                f"{ours[:12]}…")
