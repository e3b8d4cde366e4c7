"""PBFT-style byzantine-fault-tolerant ordering service.

Models the BFT-SMaRt cluster of section 4.4 with the classic PBFT
three-phase protocol (Castro & Liskov): the primary of the current view
assigns sequence numbers and broadcasts PRE-PREPARE; replicas broadcast
PREPARE and, once *prepared* (pre-prepare + 2f matching prepares), COMMIT;
an entry is *committed-local* after 2f+1 matching commits and is executed
in sequence order.  A replica that suspects the primary (request timer
expiry) broadcasts VIEW-CHANGE; 2f+1 view-change messages install view+1.

The O(n²) message complexity of the prepare/commit phases is what drives
the Figure 8(b) throughput decay as the orderer count grows — the
simulated network counts and delays every one of those messages.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.chain.transaction import Transaction
from repro.common.serialization import canonical_hash_hex
from repro.consensus.base import (
    BlockAssembler,
    LogEntry,
    OrderingConfig,
    OrderingService,
)

REQUEST_TIMEOUT = 2.0

#: Period of each replica's repair loop: unexecuted instances get their
#: pre-prepare/prepare/commit messages re-broadcast so message loss can
#: stall an instance only until the next round, never wedge it.  Every
#: phase is idempotent (vote *sets*), so repeats are harmless.
RETRANSMIT_INTERVAL = 0.75


def _entry_digest(entry: LogEntry) -> str:
    if entry.kind == LogEntry.TX:
        return "tx:" + entry.payload.tx_id
    return f"ttc:{entry.payload}"


class _PBFTReplica:
    """One PBFT replica."""

    def __init__(self, service: "PBFTOrderingService", name: str,
                 index: int):
        self.service = service
        self.name = name
        self.index = index
        self.view = 0
        self.next_seq = 1           # primary's sequence counter
        self.executed_upto = 0      # highest contiguously executed seq
        # seq -> (digest, entry, view it was assigned in).  Votes are
        # keyed by (seq, digest) so prepares/commits for conflicting
        # assignments of the same instance can never pool together —
        # quorum intersection then guarantees at most one digest can
        # commit per seq even across view changes.
        self.pre_prepares: Dict[int, Tuple[str, LogEntry, int]] = {}
        self.prepares: Dict[Tuple[int, str], Set[str]] = {}
        self.commits: Dict[Tuple[int, str], Set[str]] = {}
        self.prepared: Set[int] = set()
        self.committed: Set[int] = set()
        self.view_change_votes: Dict[int, Set[str]] = {}
        self._pending_requests: List[LogEntry] = []
        self._request_timer: Optional[int] = None
        self._retransmit_timer: Optional[int] = None
        self.assembler = BlockAssembler(
            service.config, metadata_fn=self._block_metadata)
        self.assembler.start_with_genesis(service.genesis)
        self._cut_timer: Optional[int] = None
        # Digests assigned or executed above the low-water mark; below
        # it the assembler's own tx-id set answers (see _seen).
        self._seen_digests: Set[str] = set()

    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.service.orderer_names)

    @property
    def f(self) -> int:
        return (self.n - 1) // 3

    def primary_of(self, view: int) -> str:
        return self.service.orderer_names[view % self.n]

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.name

    def _block_metadata(self) -> Dict:
        # Every replica cuts its own copy of each block, but the copies
        # must be byte-identical (peers merge signatures by block hash).
        # drain_checkpoints() is destructive service-level state, so the
        # first replica to cut a number fixes the metadata for all.
        return self.service._metadata_for(self.assembler.next_block_number)

    def broadcast(self, message) -> None:
        for peer in self.service.orderer_names:
            if peer != self.name:
                self.service.network.send(self.name, peer, message,
                                          size_bytes=192)

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------

    def _seen(self, entry: LogEntry, digest: str) -> bool:
        """Was ``entry`` already assigned a sequence number here, or
        executed?"""
        return digest in self._seen_digests or (
            entry.kind == LogEntry.TX
            and self.assembler.has_seen(entry.payload.tx_id))

    def on_request(self, entry: LogEntry) -> None:
        digest = _entry_digest(entry)
        if entry.kind == LogEntry.TX and self._seen(entry, digest):
            return
        if self.is_primary:
            self._seen_digests.add(digest)
            seq = self.next_seq
            self.next_seq += 1
            self.pre_prepares[seq] = (digest, entry, self.view)
            self.prepares.setdefault((seq, digest), set()).add(self.name)
            self.broadcast(("pre_prepare", {
                "view": self.view, "seq": seq, "digest": digest,
                "entry": entry}))
            self._check_prepared(seq)
        else:
            self.service.network.send(
                self.name, self.primary_of(self.view),
                ("request", entry), size_bytes=256)
            # Echo to the other backups (models the client broadcasting on
            # timeout) so every replica arms a suspicion timer and a
            # faulty primary triggers a 2f+1 view change.
            self._pending_requests.append(entry)
            self.broadcast(("request_echo", entry))
            self._arm_request_timer()

    def on_request_echo(self, entry: LogEntry) -> None:
        digest = _entry_digest(entry)
        if self._seen(entry, digest):
            return
        if self.is_primary:
            self.on_request(entry)
            return
        if all(_entry_digest(e) != digest for e in self._pending_requests):
            self._pending_requests.append(entry)
        self._arm_request_timer()

    def _arm_request_timer(self) -> None:
        if self._request_timer is not None:
            return
        mark = self.executed_upto

        def _expire():
            self._request_timer = None
            if self.executed_upto == mark:
                self._start_view_change()

        self._request_timer = self.service.scheduler.schedule(
            REQUEST_TIMEOUT, _expire)

    # ------------------------------------------------------------------
    # Three-phase protocol
    # ------------------------------------------------------------------

    def on_pre_prepare(self, sender: str, data) -> None:
        view, seq, digest = data["view"], data["seq"], data["digest"]
        if sender != self.primary_of(view):
            return  # only the primary of the *claimed* view may assign
        stored = self.pre_prepares.get(seq)
        if stored is not None and stored[0] != digest:
            # Conflicting assignment for this instance.  Adopt it only
            # when it comes from a strictly newer view AND this replica
            # has not prepared the old one — a prepared instance may be
            # committed elsewhere, so its digest is frozen here.  (With
            # 2f+1 replicas frozen on any committable digest, a rival
            # can never reach a prepare quorum: no fork.)
            if view <= stored[2] or seq in self.prepared:
                return
        self.pre_prepares[seq] = (digest, data["entry"], view)
        self.prepares.setdefault((seq, digest), set()).update(
            {self.name, sender})
        self.broadcast(("prepare", {
            "view": view, "seq": seq, "digest": digest}))
        self._check_prepared(seq)

    def on_prepare(self, sender: str, data) -> None:
        seq, digest = data["seq"], data["digest"]
        self.prepares.setdefault((seq, digest), set()).add(sender)
        self._check_prepared(seq)

    def _check_prepared(self, seq: int) -> None:
        if seq in self.prepared or seq not in self.pre_prepares:
            return
        digest = self.pre_prepares[seq][0]
        # prepared: pre-prepare + 2f matching prepares (own counts)
        if len(self.prepares.get((seq, digest), ())) >= 2 * self.f + 1:
            self.prepared.add(seq)
            self.commits.setdefault((seq, digest), set()).add(self.name)
            self.broadcast(("commit", {
                "view": self.view, "seq": seq, "digest": digest}))
            self._check_committed(seq)

    def on_commit(self, sender: str, data) -> None:
        seq, digest = data["seq"], data["digest"]
        self.commits.setdefault((seq, digest), set()).add(sender)
        self._check_committed(seq)

    def _check_committed(self, seq: int) -> None:
        if seq in self.committed or seq not in self.prepared:
            return
        digest = self.pre_prepares[seq][0]
        if len(self.commits.get((seq, digest), ())) >= 2 * self.f + 1:
            self.committed.add(seq)
            self._execute_ready()

    def _execute_ready(self) -> None:
        tracer = getattr(self.service, "tracer", None)
        if tracer is not None and tracer.enabled:
            with tracer.span("consensus.pbft_execute_ready",
                             replica=self.name,
                             upto=self.executed_upto):
                self._execute_ready_inner()
        else:
            self._execute_ready_inner()

    def _execute_ready_inner(self) -> None:
        while (self.executed_upto + 1) in self.committed:
            self.executed_upto += 1
            digest, entry, _ = self.pre_prepares[self.executed_upto]
            self._seen_digests.add(digest)
            self._pending_requests = [
                e for e in self._pending_requests
                if _entry_digest(e) != digest]
            if self._request_timer is not None:
                self.service.scheduler.cancel(self._request_timer)
                self._request_timer = None
            if entry.kind == LogEntry.TX and self.is_primary:
                self._arm_cut_timer()
            block = self.assembler.feed(entry)
            if block is not None:
                self.service._replica_deliver(block, self.name)
                if self.is_primary and self.assembler.pending:
                    self._arm_cut_timer(force=True)
        self.service.advance_stable()

    def truncate(self, after: int, upto: int) -> None:
        """Garbage-collect instances ``after + 1 .. upto``, which every
        replica has executed.  The repair loop only re-sends instances
        its own replica has not executed and a view change only
        re-proposes from ``executed_upto + 1``, so nothing at or below
        the low-water mark is ever asked for again; late copies of its
        messages are dropped on arrival (``on_message``)."""
        for seq in range(after + 1, upto + 1):
            self._seen_digests.discard(self.pre_prepares.pop(seq)[0])
            self.prepared.discard(seq)
            self.committed.discard(seq)
        for votes in (self.prepares, self.commits):
            for key in [key for key in votes if key[0] <= upto]:
                del votes[key]

    # ------------------------------------------------------------------
    # Block cutting
    # ------------------------------------------------------------------

    _cut_timer_target: int = -1

    def _arm_cut_timer(self, force: bool = False) -> None:
        target = self.assembler.next_block_number
        if self._cut_timer is not None:
            if self._cut_timer_target == target and not force:
                return
            self.service.scheduler.cancel(self._cut_timer)
        self._cut_timer_target = target

        def _expire():
            self._cut_timer = None
            if self.is_primary and \
                    self.assembler.next_block_number == target and \
                    self.assembler.pending:
                self.on_request(LogEntry(LogEntry.TTC, target))

        self._cut_timer = self.service.scheduler.schedule(
            self.service.config.block_timeout, _expire)

    # ------------------------------------------------------------------
    # Loss repair (anti-entropy for the protocol messages themselves)
    # ------------------------------------------------------------------

    def start_retransmit(self) -> None:
        """Arm the periodic repair loop (idempotent)."""
        if self._retransmit_timer is None:
            self._retransmit_timer = self.service.scheduler.schedule(
                RETRANSMIT_INTERVAL, self._retransmit)

    def _retransmit(self) -> None:
        self._retransmit_timer = self.service.scheduler.schedule(
            RETRANSMIT_INTERVAL, self._retransmit)
        if self.service.network.is_down(self.name):
            return
        # Re-send this replica's current phase message for every instance
        # that has not executed yet.  Execution is sequential, so one
        # instance whose messages were all lost would otherwise wedge
        # every later one on this replica forever.
        for seq in sorted(self.pre_prepares):
            if seq <= self.executed_upto:
                continue
            digest, entry, view = self.pre_prepares[seq]
            if self.name == self.primary_of(view):
                # Rebroadcast under the view the instance was assigned
                # in: even after a view change demotes this replica, it
                # stays the only authority for holes it created.
                self.broadcast(("pre_prepare", {
                    "view": view, "seq": seq, "digest": digest,
                    "entry": entry}))
            if seq in self.prepared:    # includes committed-but-waiting
                self.broadcast(("commit", {
                    "view": view, "seq": seq, "digest": digest}))
            else:
                self.broadcast(("prepare", {
                    "view": view, "seq": seq, "digest": digest}))
        # Client work the primary may never have received.
        if not self.is_primary:
            for entry in self._pending_requests:
                self.service.network.send(
                    self.name, self.primary_of(self.view),
                    ("request", entry), size_bytes=256)
        # View gossip: a replica whose view-change quorum messages were
        # lost accumulates the votes from these repeats and catches up.
        if self.view > 0:
            self.broadcast(("view_change", {"new_view": self.view}))

    # ------------------------------------------------------------------
    # View change (simplified)
    # ------------------------------------------------------------------

    def _start_view_change(self) -> None:
        new_view = self.view + 1
        self.view_change_votes.setdefault(new_view, set()).add(self.name)
        self.broadcast(("view_change", {"new_view": new_view}))
        self._check_view_change(new_view)

    def on_view_change(self, sender: str, data) -> None:
        new_view = data["new_view"]
        if new_view <= self.view:
            return
        self.view_change_votes.setdefault(new_view, set()).add(sender)
        self._check_view_change(new_view)

    def _check_view_change(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        if len(self.view_change_votes.get(new_view, ())) >= 2 * self.f + 1:
            self.view = new_view
            self.next_seq = max(self.executed_upto + 1, self.next_seq)
            if self.is_primary:
                # Re-propose pending client work under the new view.
                pending = self._pending_requests
                self._pending_requests = []
                for entry in pending:
                    self.on_request(entry)

    # ------------------------------------------------------------------

    def on_message(self, sender: str, message) -> None:
        kind, data = message
        if kind in ("pre_prepare", "prepare", "commit") and \
                data["seq"] <= self.service.stable_seq:
            return  # executed everywhere and truncated: a late copy
        if kind == "request":
            self.on_request(data)
        elif kind == "request_echo":
            self.on_request_echo(data)
        elif kind == "pre_prepare":
            self.on_pre_prepare(sender, data)
        elif kind == "prepare":
            self.on_prepare(sender, data)
        elif kind == "commit":
            self.on_commit(sender, data)
        elif kind == "view_change":
            self.on_view_change(sender, data)


class PBFTOrderingService(OrderingService):
    """Ordering service running PBFT among 3f+1 orderer nodes."""

    def __init__(self, scheduler, network, identities, config=None,
                 genesis=None):
        config = config or OrderingConfig(consensus="pbft")
        super().__init__(scheduler, network, identities, config, genesis)
        if len(self.orderer_names) < 3 * config.f + 1:
            raise ValueError(
                f"PBFT with f={config.f} needs at least {3 * config.f + 1} "
                f"orderers, got {len(self.orderer_names)}")
        self.replicas: Dict[str, _PBFTReplica] = {}
        for index, name in enumerate(self.orderer_names):
            replica = _PBFTReplica(self, name, index)
            self.replicas[name] = replica
            network.register(name, replica.on_message)
        self._delivered_blocks: Dict[int, Any] = {}
        self._metadata_by_number: Dict[int, Dict] = {}
        # Low-water mark: every replica has executed up to here, and the
        # replicas' three-phase logs hold nothing at or below it.
        self.stable_seq = 0

    def _metadata_for(self, number: int) -> Dict:
        """Block metadata, frozen by whichever replica cuts first."""
        cached = self._metadata_by_number.get(number)
        if cached is None:
            cached = self._metadata_by_number[number] = \
                self._block_metadata()
        return dict(cached)

    def advance_stable(self) -> None:
        """Move the low-water mark to the lowest sequence number every
        replica has executed (the simulator reads it off the replicas
        where a deployment would exchange checkpoint messages)."""
        stable = min(r.executed_upto for r in self.replicas.values())
        if stable > self.stable_seq:
            for replica in self.replicas.values():
                replica.truncate(self.stable_seq, stable)
            self.stable_seq = stable

    def start(self) -> None:
        """PBFT ordering is reactive, but each replica runs a periodic
        repair loop so lost protocol messages never wedge an instance."""
        for replica in self.replicas.values():
            replica.start_retransmit()

    def submit(self, tx: Transaction,
               orderer_name: Optional[str] = None) -> None:
        name = orderer_name or self.orderer_names[0]
        if self.network.is_down(name):
            return
        self.replicas[name].on_request(LogEntry(LogEntry.TX, tx))

    def _replica_deliver(self, block, replica_name: str) -> None:
        """Each replica signs its identical copy of the cut block and sends
        it to the peers; peers need f+1 matching signatures."""
        if self.network.is_down(replica_name):
            return
        identity = self.identities[replica_name]
        block.sign(replica_name, identity.sign(block.block_hash))
        if block.number not in self._delivered_blocks:
            self._delivered_blocks[block.number] = block
            self.blocks_cut.append(block)
        self._deliver_block(block, replica_name)
