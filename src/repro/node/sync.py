"""Peer-to-peer block synchronization (anti-entropy).

The paper's recovery protocol (section 3.6) ends with "the node then
retrieves any missing blocks, processes and commits them one by one" —
this module is that retrieval path, generalized into a continuous
anti-entropy loop so the network self-heals from *any* message loss, not
just crashes:

* every node periodically broadcasts a ``height_announce`` heartbeat with
  its block-store height;
* a node detects it is behind when a peer announces a greater height, or
  when its own block buffer stalls above ``blockstore.height + 1`` (a
  delivery gap: later blocks arrived, an earlier one was lost);
* it then issues ``block_request(lo, hi)`` to one peer at a time, rotating
  through peers with exponential backoff plus deterministic jitter when a
  request times out;
* peers answer ``block_response`` straight from their append-only
  :class:`~repro.storage.blockstore.BlockStore`;
* fetched blocks are replayed through
  :meth:`~repro.node.recovery.RecoveryManager.catch_up`, i.e. the normal
  ``on_block`` verification path (orderer-signature quorum, prev-hash
  chaining, hash integrity) under one WAL group commit — a malicious or
  corrupt response can never be applied, only ignored.

Determinism: the retry jitter comes from an RNG seeded from the node name,
so a chaos run replays exactly; all timing runs on the shared discrete
-event scheduler.
"""

from __future__ import annotations

import random
import zlib
from typing import Any, Dict, List, Optional

KIND_ANNOUNCE = "height_announce"
KIND_REQUEST = "block_request"
KIND_RESPONSE = "block_response"

#: Rough wire size of a height announcement / request header.
CONTROL_MSG_BYTES = 64


class SyncRequest:
    """One in-flight block-range request."""

    __slots__ = ("request_id", "lo", "hi", "peer", "deadline", "started")

    def __init__(self, request_id: int, lo: int, hi: int, peer: str,
                 deadline: float, started: float = 0.0):
        self.request_id = request_id
        self.lo = lo
        self.hi = hi
        self.peer = peer
        self.deadline = deadline
        # Simulated-time send instant, so the tracer can record the full
        # request/response cycle in scheduler time.
        self.started = started


class BlockSyncManager:
    """Anti-entropy sync loop for one :class:`DatabaseNode`.

    One outstanding request at a time keeps the protocol deterministic
    and trivially FIFO; the periodic tick doubles as the timeout check,
    so no cancellable timers are needed.
    """

    def __init__(self, node, announce_interval: float = 0.25,
                 request_timeout: float = 1.0, max_batch: int = 16,
                 backoff_base: float = 0.25, backoff_cap: float = 4.0,
                 jitter: float = 0.25):
        self.node = node
        self.scheduler = node.scheduler
        self.network = node.network
        self.announce_interval = announce_interval
        self.request_timeout = request_timeout
        self.max_batch = max_batch
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.jitter = jitter
        # Seeded from the node name: deterministic per node, distinct
        # across nodes (hash() is process-randomized; crc32 is stable).
        self._rng = random.Random(zlib.crc32(node.name.encode("utf-8")))
        self._peer_heights: Dict[str, int] = {}
        self._inflight: Optional[SyncRequest] = None
        self._next_request_id = 1
        self._rotation = 0
        self._backoff = backoff_base
        self._resume_at = 0.0   # no new request before this (backoff)
        self._started = False
        # -- metrics on the node's registry scope --
        metrics = getattr(node, "metrics", None)
        if metrics is None:
            from repro.obs.metrics import private_scope
            metrics = private_scope()
        self.metrics = metrics
        self._blocks_requested = metrics.counter("sync.blocks_requested")
        self._blocks_served = metrics.counter("sync.blocks_served")
        self._retries = metrics.counter("sync.retries")
        self._backoff_ms_total = metrics.counter("sync.backoff_ms_total")
        self._requests_sent = metrics.counter("sync.requests_sent")
        self._responses_received = metrics.counter(
            "sync.responses_received")
        self._announces_sent = metrics.counter("sync.announces_sent")
        self._gaps_detected = metrics.counter("sync.gaps_detected")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the periodic announce/gap-check tick (idempotent)."""
        if self._started:
            return
        self._started = True
        self.scheduler.schedule(self.announce_interval, self._tick)

    def on_restart(self) -> None:
        """Called from :meth:`DatabaseNode.restart`: drop any pre-crash
        request state and immediately probe the network for lost ground."""
        self._inflight = None
        self._backoff = self.backoff_base
        self._resume_at = 0.0
        self.start()
        self._announce()
        self._check_gap()

    def peers(self) -> List[str]:
        ordering = self.node.ordering
        if ordering is None:
            return []
        return [name for name in ordering.peer_names()
                if name != self.node.name]

    # ------------------------------------------------------------------
    # Periodic tick
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        # Re-arm first: the loop survives crashes (it just no-ops until
        # restart) and any exception a block replay might raise.
        self.scheduler.schedule(self.announce_interval, self._tick)
        if self.node.crashed:
            return
        self._announce()
        self._check_timeout()
        self._check_gap()

    def _announce(self) -> None:
        height = self.node.blockstore.height
        for peer in self.peers():
            self.network.send(self.node.name, peer,
                              (KIND_ANNOUNCE, height), CONTROL_MSG_BYTES)
            self._announces_sent.inc()

    # ------------------------------------------------------------------
    # Gap detection and requests
    # ------------------------------------------------------------------

    def _target_height(self) -> int:
        """Highest block number the network provably produced."""
        target = max(self._peer_heights.values(), default=-1)
        if self.node._block_buffer:
            target = max(target, max(self.node._block_buffer))
        return target

    def _check_gap(self) -> None:
        if self.node.crashed or self._inflight is not None:
            return
        if self.scheduler.now < self._resume_at:
            return  # still backing off after a timeout
        peers = self.peers()
        if not peers:
            return
        lo = self.node.blockstore.height + 1
        target = self._target_height()
        # First missing number in [lo, target]: buffered blocks waiting
        # for quorum or their turn don't need re-fetching.
        missing = None
        for number in range(lo, target + 1):
            if number not in self.node._block_buffer:
                missing = number
                break
        if missing is None:
            return
        self._gaps_detected.inc()
        hi = min(target, missing + self.max_batch - 1)
        self._issue_request(missing, hi, peers)

    def _issue_request(self, lo: int, hi: int, peers: List[str]) -> None:
        # Prefer peers known to hold the range; rotate deterministically.
        candidates = [p for p in peers
                      if self._peer_heights.get(p, -1) >= lo] or peers
        peer = candidates[self._rotation % len(candidates)]
        request_id = self._next_request_id
        self._next_request_id += 1
        self._inflight = SyncRequest(
            request_id, lo, hi, peer,
            deadline=self.scheduler.now + self.request_timeout,
            started=self.scheduler.now)
        self._requests_sent.inc()
        self._blocks_requested.inc(hi - lo + 1)
        self.network.send(self.node.name, peer,
                          (KIND_REQUEST,
                           {"id": request_id, "lo": lo, "hi": hi}),
                          CONTROL_MSG_BYTES)

    def _check_timeout(self) -> None:
        inflight = self._inflight
        if inflight is None or self.scheduler.now < inflight.deadline:
            return
        # Request lost (or the peer is down/partitioned): back off with
        # jitter and rotate to the next peer on the following gap check.
        self._retries.inc()
        self._rotation += 1
        pause = self._backoff * (1.0 + self.jitter * self._rng.random())
        self._backoff_ms_total.inc(pause * 1000.0)
        self._backoff = min(self._backoff * 2.0, self.backoff_cap)
        self._resume_at = self.scheduler.now + pause
        self._inflight = None

    # ------------------------------------------------------------------
    # Message handlers (dispatched from DatabaseNode.on_message)
    # ------------------------------------------------------------------

    def on_announce(self, sender: str, height: int) -> None:
        known = self._peer_heights.get(sender, -1)
        if height > known:
            self._peer_heights[sender] = height
        if height > self.node.blockstore.height:
            self._check_gap()

    def on_request(self, sender: str, payload: Dict[str, Any]) -> None:
        """Serve blocks from the local store (bounded batch)."""
        lo = max(0, int(payload["lo"]))
        hi = min(int(payload["hi"]), self.node.blockstore.height,
                 lo + self.max_batch - 1)
        blocks = [self.node.blockstore.get(number)
                  for number in range(lo, hi + 1)]
        self._blocks_served.inc(len(blocks))
        size = sum(sum(tx.size_bytes() for tx in block.transactions) + 512
                   for block in blocks) or CONTROL_MSG_BYTES
        self.network.send(self.node.name, sender,
                          (KIND_RESPONSE,
                           {"id": payload["id"], "blocks": blocks,
                            "height": self.node.blockstore.height}),
                          size)

    def on_response(self, sender: str, payload: Dict[str, Any]) -> None:
        """Replay fetched blocks through the verified ``on_block`` path.

        Responses are idempotent, so duplicates and stale (superseded)
        responses are applied too — ``catch_up`` skips blocks already
        stored, and every block still passes signature-quorum + prev-hash
        verification before it can take effect."""
        from repro.node.recovery import RecoveryManager

        self._responses_received.inc()
        known = self._peer_heights.get(sender, -1)
        if payload.get("height", -1) > known:
            self._peer_heights[sender] = payload["height"]
        inflight = self._inflight
        if inflight is not None and payload["id"] == inflight.request_id:
            self._inflight = None
            self._backoff = self.backoff_base
            self._resume_at = 0.0
            tracer = getattr(self.node, "tracer", None)
            if tracer is not None:
                # Simulated-time span: send instant → matching response.
                tracer.record("sync.request_cycle",
                              self.scheduler.now - inflight.started,
                              lo=inflight.lo, hi=inflight.hi,
                              peer=inflight.peer)
        blocks = [b for b in payload.get("blocks", ())
                  if b.number > self.node.blockstore.height]
        if blocks:
            RecoveryManager(self.node).catch_up(blocks)
            # Chain the next range immediately if we are still behind.
            self._check_gap()
        else:
            # Empty (or fully stale) response: the peer doesn't have the
            # range.  Rotate and let the next tick retry elsewhere rather
            # than ping-ponging requests at wire speed.
            self._rotation += 1
