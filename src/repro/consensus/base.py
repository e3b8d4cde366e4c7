"""Ordering-service plumbing shared by all consensus implementations.

Section 3.1 makes the ordering service pluggable: any protocol that yields
a totally ordered stream of transactions works.  Section 4.4 describes the
block-cutting protocol layered on top: two parameters — *block size* (max
transactions per block) and *block timeout* (max time since the first
pending transaction) — and a *time-to-cut* message published when a timer
expires; the first time-to-cut for a block number wins, duplicates are
ignored.

Concrete services (:mod:`kafka`, :mod:`raft`, :mod:`pbft`) provide the
totally ordered log; this module turns ordered entries into sealed, signed
blocks and delivers them to registered peers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.chain.block import Block, GENESIS_PREV_HASH, make_genesis
from repro.chain.transaction import Transaction
from repro.common.events import EventScheduler
from repro.common.identity import Identity
from repro.net.transport import SimNetwork

BlockCallback = Callable[[Block, str], None]  # (block, from_orderer)


@dataclass
class OrderingConfig:
    """Block-cutting and consensus parameters."""

    block_size: int = 100          # max transactions per block
    block_timeout: float = 1.0     # seconds since first pending tx
    consensus: str = "kafka"       # kafka | raft | pbft
    # BFT quorum parameter: tolerated faulty orderers
    f: int = 1


class LogEntry:
    """One entry of the totally ordered log: a transaction or a cut mark."""

    __slots__ = ("kind", "payload")

    TX = "tx"
    TTC = "time-to-cut"

    def __init__(self, kind: str, payload: Any):
        self.kind = kind
        self.payload = payload


class BlockAssembler:
    """Deterministically folds an ordered entry stream into blocks.

    Every orderer runs one of these over the *same* log, so every orderer
    cuts byte-identical blocks.  ``time-to-cut(n)`` cuts block ``n`` if it
    is still pending; later duplicates are ignored (section 4.4).
    """

    def __init__(self, config: OrderingConfig,
                 metadata_fn: Optional[Callable[[], Dict]] = None):
        self.config = config
        self.metadata_fn = metadata_fn or (lambda: {})
        self.pending: List[Transaction] = []
        self.next_block_number = 1
        self.prev_hash: bytes = GENESIS_PREV_HASH
        self._seen_tx_ids: set = set()

    def start_with_genesis(self, genesis: Block) -> None:
        self.prev_hash = genesis.block_hash
        self.next_block_number = 1

    def has_seen(self, tx_id: str) -> bool:
        """Has a transaction with this id already been fed?"""
        return tx_id in self._seen_tx_ids

    def feed(self, entry: LogEntry) -> Optional[Block]:
        """Consume one ordered entry; returns a sealed block if one cut."""
        if entry.kind == LogEntry.TX:
            tx = entry.payload
            if tx.tx_id in self._seen_tx_ids:
                return None  # resubmission of the same transaction
            self._seen_tx_ids.add(tx.tx_id)
            self.pending.append(tx)
            if len(self.pending) >= self.config.block_size:
                return self._cut()
            return None
        if entry.kind == LogEntry.TTC:
            target = entry.payload
            if target == self.next_block_number and self.pending:
                return self._cut()
            return None
        raise ValueError(f"unknown log entry kind {entry.kind!r}")

    def _cut(self) -> Block:
        metadata = dict(self.metadata_fn())
        metadata.setdefault("consensus", self.config.consensus)
        block = Block(
            number=self.next_block_number,
            transactions=list(self.pending),
            metadata=metadata,
            prev_hash=self.prev_hash,
        ).seal()
        self.pending.clear()
        self.prev_hash = block.block_hash
        self.next_block_number += 1
        return block


class OrderingService:
    """Base class: orderer identities, peer registration, block delivery.

    Subclasses implement ``submit`` (get a transaction into the ordered
    log) and drive :class:`BlockAssembler` from their delivery path.
    """

    def __init__(self, scheduler: EventScheduler, network: SimNetwork,
                 identities: Sequence[Identity], config: OrderingConfig,
                 genesis: Optional[Block] = None):
        if not identities:
            raise ValueError("need at least one orderer identity")
        self.scheduler = scheduler
        self.network = network
        self.identities = {ident.name: ident for ident in identities}
        self.orderer_names = sorted(self.identities)
        self.config = config
        # Note: Block.__len__ counts transactions, so an empty genesis is
        # falsy — test identity, not truthiness.
        self.genesis = genesis if genesis is not None else make_genesis()
        self._peers: Dict[str, BlockCallback] = {}
        self.blocks_cut: List[Block] = []
        # pending checkpoint hashes from peers: height -> {node: hash hex}
        self._checkpoints: Dict[int, Dict[str, str]] = {}
        # Observability (attach_observability wires these from the
        # network facade; a bare ordering service records nothing).
        self.metrics = None
        self.tracer = None
        self._blocks_delivered = None
        self._checkpoints_submitted = None

    def attach_observability(self, metrics, tracer=None) -> None:
        """Register consensus counters on ``metrics`` (a MetricsScope)
        and optionally a span tracer for round delivery timing."""
        self.metrics = metrics
        self.tracer = tracer
        self._blocks_delivered = metrics.counter(
            "consensus.blocks_delivered")
        self._checkpoints_submitted = metrics.counter(
            "consensus.checkpoints_submitted")

    # -- peers -------------------------------------------------------------

    def register_peer(self, name: str, callback: BlockCallback) -> None:
        """Register a database node to receive blocks."""
        self._peers[name] = callback
        callback(self.genesis, self.orderer_names[0])

    def peer_names(self) -> List[str]:
        return sorted(self._peers)

    # -- checkpointing (sections 3.3.4 / 3.4.4) ------------------------------

    def submit_checkpoint(self, node_name: str, height: int,
                          hash_hex: str) -> None:
        """Record a peer's write-set hash; it rides in the next block's
        metadata so every node can compare."""
        self._checkpoints.setdefault(height, {})[node_name] = hash_hex
        if self._checkpoints_submitted is not None:
            self._checkpoints_submitted.inc()

    def drain_checkpoints(self) -> Dict[int, Dict[str, str]]:
        out = {h: dict(nodes) for h, nodes in sorted(
            self._checkpoints.items())}
        self._checkpoints.clear()
        return out

    def _block_metadata(self) -> Dict:
        checkpoints = self.drain_checkpoints()
        metadata: Dict[str, Any] = {}
        if checkpoints:
            metadata["checkpoints"] = {
                str(h): nodes for h, nodes in checkpoints.items()}
        return metadata

    # -- delivery ------------------------------------------------------------

    def _sign_and_deliver(self, block: Block, orderer_name: str) -> None:
        """Sign ``block`` as ``orderer_name`` and send to every peer."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            # One span per consensus round completion: signing plus
            # delivery fan-out (transport latency itself is simulated).
            with tracer.span("consensus.sign_and_deliver",
                             height=block.number, orderer=orderer_name,
                             txs=len(block.transactions)):
                identity = self.identities[orderer_name]
                block.sign(orderer_name, identity.sign(block.block_hash))
                self._deliver_block(block, orderer_name)
        else:
            identity = self.identities[orderer_name]
            block.sign(orderer_name, identity.sign(block.block_hash))
            self._deliver_block(block, orderer_name)
        if self._blocks_delivered is not None:
            self._blocks_delivered.inc()

    def _deliver_block(self, block: Block, src: str) -> None:
        """Ship ``block`` to every registered peer.

        Peers registered on the :class:`SimNetwork` receive it as a
        ``("block", ...)`` message through the transport, so block
        delivery is subject to partitions, crashes and the installed
        fault plan like any other traffic (the anti-entropy sync layer
        re-fetches what gets lost).  Bare test callbacks not known to
        the network keep the legacy direct-scheduled hop with an
        identical latency draw."""
        size = sum(tx.size_bytes() for tx in block.transactions) + 512
        for peer_name in sorted(self._peers):
            if self.network.is_registered(peer_name):
                self.network.send(src, peer_name, ("block", block), size)
                continue
            callback = self._peers[peer_name]
            delay = self.network.default_latency.delay_for(
                size, self.network._rng)
            self.scheduler.schedule(
                delay, lambda cb=callback, blk=block, s=src: cb(blk, s))

    # -- interface -------------------------------------------------------------

    def submit(self, tx: Transaction,
               orderer_name: Optional[str] = None) -> None:
        raise NotImplementedError

    def start(self) -> None:
        """Begin periodic block-timeout timers."""
        raise NotImplementedError
