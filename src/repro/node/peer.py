"""The database peer node (section 3.1).

Composes everything an organization runs: the MVCC database + SQL engine,
certificate registry (pgCerts), contract registry and runtime, pgLedger,
block store (pgBlockstore), block processor, communication middleware,
checkpoint manager, notification hub and access control.

The middleware role (section 4.2) is folded in here: receiving forwarded
transactions and blocks from the network, collecting orderer signatures
until the configured quorum, appending blocks to the block store and
driving in-order block processing — plus, for the execute-order-in-parallel
flow, forwarding client transactions to the other peers and the ordering
service while execution starts locally.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chain.block import Block
from repro.chain.transaction import Transaction
from repro.common.crypto import Signature
from repro.common.identity import Certificate, CertificateRegistry, Identity
from repro.contracts.procedure import Procedure, ProcedureRuntime
from repro.contracts.registry import ContractRegistry
from repro.contracts.system_contracts import (
    SystemContracts,
    create_system_tables,
)
from repro.errors import BlockValidationError, ReproError
from repro.mvcc.database import Database
from repro.node.access_control import AccessController
from repro.node.backend import (
    Backend,
    ExecutionOutcome,
    FLOW_EXECUTE_ORDER,
    FLOW_ORDER_EXECUTE,
)
from repro.node.block_processor import BlockProcessor
from repro.node.checkpoint import CheckpointManager
from repro.node.ledger import Ledger
from repro.node.notifications import NotificationHub
from repro.node.sync import (
    BlockSyncManager,
    KIND_ANNOUNCE,
    KIND_REQUEST,
    KIND_RESPONSE,
)
from repro.obs import MetricsRegistry, Tracer
from repro.sql.ast_nodes import CreateFunction
from repro.sql.executor import Executor, Result
from repro.sql.parser import parse_one, parse_sql
from repro.storage.blockstore import BlockStore


class DatabaseNode:
    """One organization's database replica."""

    def __init__(self, identity: Identity, scheduler, network,
                 flow: str = FLOW_ORDER_EXECUTE,
                 organizations: Sequence[str] = (),
                 ordering=None, min_block_signatures: int = 1,
                 checkpoint_interval: int = 1, plan_cache=None,
                 metrics_registry: Optional[MetricsRegistry] = None):
        if flow not in (FLOW_ORDER_EXECUTE, FLOW_EXECUTE_ORDER):
            raise ValueError(f"unknown flow {flow!r}")
        self.identity = identity
        self.name = identity.name
        self.organization = identity.organization
        self.scheduler = scheduler
        self.network = network
        self.flow = flow
        self.ordering = ordering
        self.min_block_signatures = min_block_signatures

        # Observability: every subsystem of this node registers its
        # counters/gauges/histograms under a ``node=<name>`` scope —
        # on the process-wide registry when the network provides one
        # (``BlockchainNetwork.metrics``), else on a private registry.
        # The tracer records block-aligned pipeline spans (obs/trace.py);
        # it is off unless REPRO_TRACE=1 and never feeds back into
        # planning or commit decisions.
        self.metrics_registry = metrics_registry if metrics_registry \
            is not None else MetricsRegistry()
        self.metrics = self.metrics_registry.scope(node=self.name)
        self.tracer = Tracer(self.metrics)

        # ``plan_cache``: optionally a process-shared plan-template cache
        # (nodes with identical catalogs share templates; see
        # sql/plancache.py for the safety argument).
        self.db = Database(plan_cache=plan_cache, metrics=self.metrics)
        self.certs = CertificateRegistry()
        self.contracts = ContractRegistry()
        create_system_tables(self.db.catalog)
        self.ledger = Ledger(self.db)
        self.system_contracts = SystemContracts(
            self.db, self.contracts, self.certs, organizations)
        self.acl = AccessController(self.certs)
        self.runtime = ProcedureRuntime(self.db, acl=self.acl)
        self.backend = Backend(self)
        self.processor = BlockProcessor(self)
        self.blockstore = BlockStore()
        self.checkpoints = CheckpointManager(
            self.name, interval=checkpoint_interval)
        self.notifications = NotificationHub()

        # tx_id -> in-flight TransactionContext / ExecutionOutcome
        self.executing: Dict[str, Any] = {}
        self.pending_outcomes: Dict[str, ExecutionOutcome] = {}
        # EO transactions waiting for their snapshot height
        self.deferred: List[Transaction] = []
        # blocks waiting for signature quorum or their turn
        self._block_buffer: Dict[int, Block] = {}
        self.crashed = False
        self.processing_error: Optional[str] = None

        network.register(self.name, self.on_message)
        if ordering is not None:
            ordering.register_peer(self.name, self.on_block)
        # Anti-entropy block sync: heartbeat height announcements, gap
        # detection, and peer-to-peer block retrieval (see node/sync.py).
        self.sync = BlockSyncManager(self)
        self.sync.start()

        # Derived-state gauges: evaluated only at snapshot/render time
        # (zero hot-path cost).  Registered last so the callbacks close
        # over fully constructed components; on restart the re-created
        # node re-binds the same gauge objects to fresh closures.
        self.metrics.gauge("node.committed_height",
                           fn=lambda: self.db.committed_height)
        self.metrics.gauge("node.blockstore_height",
                           fn=lambda: self.blockstore.height)
        self.metrics.gauge("node.crashed", fn=lambda: self.crashed)
        self.metrics.gauge("node.slow_queries",
                           fn=lambda: len(self.db.slow_queries))

    # ------------------------------------------------------------------
    # Bootstrap (section 3.7)
    # ------------------------------------------------------------------

    def register_certificates(self,
                              certificates: Sequence[Certificate]) -> None:
        """Install the certificates shared at network startup (org admins,
        peers, orderers, initial clients)."""
        self.certs.register_all(certificates)

    def apply_genesis_config(self, metadata: Dict[str, Any]) -> None:
        """Apply genesis-block configuration: schema DDL and initial
        contracts.  Every node applies the same genesis, so the resulting
        state is identical everywhere."""
        schema_sql = metadata.get("schema_sql", "")
        if schema_sql:
            tx = self.db.begin(allow_nondeterministic=True,
                               username="@system")
            executor = Executor(self.db, tx)
            for stmt in parse_sql(schema_sql):
                executor.execute(stmt)
            self.db.apply_commit(tx, block_number=0)
            # A seed is a bulk load: fold its index tails once.
            for table in tx.tables_written:
                self.db.catalog.heap_of(table).merge_pending_indexes()
        for contract_sql in metadata.get("contracts", ()):
            self.install_contract(contract_sql)

    def install_contract(self, create_function_sql: str) -> Procedure:
        """Directly install a contract (bootstrap path; runtime deployments
        go through the section 3.7 system contracts)."""
        stmt = parse_one(create_function_sql)
        if not isinstance(stmt, CreateFunction):
            raise ReproError("expected CREATE FUNCTION")
        procedure = Procedure.compile(stmt.name, stmt.params, stmt.returns,
                                      stmt.body, deployer="@genesis")
        return self.contracts.deploy(procedure)

    # ------------------------------------------------------------------
    # Client entry points
    # ------------------------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> None:
        """Client submission in the execute-order-in-parallel flow
        (section 3.4.1): authenticate, start executing, and forward to the
        other peers and the ordering service in the background."""
        if self.crashed:
            raise ReproError(f"node {self.name} is down")
        if self.flow != FLOW_EXECUTE_ORDER:
            # In order-then-execute clients talk to the ordering service;
            # a peer receiving one simply proxies it (section 3.3.1).
            self.ordering.submit(tx)
            return
        if tx.tx_id in self.executing or \
                self.ledger.has_transaction(tx.tx_id):
            return  # duplicate: first-seen wins (section 3.4.3)
        self._execute_or_defer(tx)
        # Forward to other peers and the ordering service.
        for peer_name in self.ordering.peer_names():
            if peer_name != self.name:
                self.network.send(self.name, peer_name,
                                  ("tx_forward", tx), tx.size_bytes())
        self.ordering.submit(tx)

    def query(self, sql: str, username: str = "@system",
              params: Sequence[Any] = (),
              provenance: bool = False,
              as_of: Optional[int] = None) -> Result:
        """Read-only query against this node's latest committed state
        (individual SELECTs are never recorded on the chain).

        ``as_of`` pins every SELECT to a block height (time travel): the
        engine routes the scans to the columnar replica and skips all
        SSI bookkeeping — state at or below the committed height is
        immutable.  Statements may also carry their own ``AS OF BLOCK
        h`` / ``AS OF LATEST`` clause, which overrides the session
        pin."""
        if self.crashed:
            raise ReproError(f"node {self.name} is down")
        tx = self.db.begin(allow_nondeterministic=True, read_only=True,
                           username=username, provenance=provenance)
        try:
            executor = Executor(self.db, tx, acl=self.acl,
                                default_as_of=as_of)
            result = Result()
            for stmt in parse_sql(sql):
                result = executor.execute(stmt, params=params)
            return result
        finally:
            self.db.apply_abort(tx, reason="read-only")

    def query_as_of(self, sql: str, height: Optional[int] = None,
                    username: str = "@system",
                    params: Sequence[Any] = ()) -> Result:
        """Time-travel convenience: run ``sql`` pinned to ``height``
        (default: this node's committed height)."""
        pin = self.db.committed_height if height is None else height
        return self.query(sql, username=username, params=params,
                          as_of=pin)

    def row_history(self, table: str, key_column: str, key_value: Any,
                    username: str = "@system") -> List[Dict[str, Any]]:
        """Every committed version of the logical rows matching
        ``key_column = key_value`` with MVCC headers, in creation order —
        served straight from the columnar replica (the provenance audit
        path; survives vacuum, which only prunes the row store)."""
        if self.crashed:
            raise ReproError(f"node {self.name} is down")
        self.acl.check_read(username, table)
        return self.db.columnstore.history(self.db, table, key_column,
                                           key_value)

    def block_diff(self, table: str, low_height: int, high_height: int,
                   username: str = "@system") -> Dict[str, Any]:
        """Rows of ``table`` created and deleted in
        ``(low_height, high_height]`` from the columnar replica."""
        if self.crashed:
            raise ReproError(f"node {self.name} is down")
        self.acl.check_read(username, table)
        return self.db.columnstore.diff(self.db, table, low_height,
                                        high_height)

    def block_height(self) -> int:
        """Latest committed block height (clients pin EO snapshots here)."""
        return self.db.committed_height

    def observability(self) -> Dict[str, Any]:
        """One bundle of this node's operational state: the full metric
        snapshot for this node's registry scope, the span-trace summary
        and the slow-query log."""
        return {
            "slow_queries": list(self.db.slow_queries),
            "trace": self.tracer.snapshot(),
            "metrics": self.metrics.snapshot(),
        }

    def observability_prometheus(self) -> str:
        """This node's metrics as a Prometheus text exposition page."""
        return self.metrics.render_prometheus()

    # ------------------------------------------------------------------
    # Network message handling (middleware)
    # ------------------------------------------------------------------

    def on_message(self, sender: str, message: Tuple[str, Any]) -> None:
        if self.crashed:
            return
        kind, payload = message
        if kind == "tx_forward":
            self._on_forwarded_tx(payload)
        elif kind == "block":
            self.on_block(payload, sender)
        elif kind == KIND_ANNOUNCE:
            self.sync.on_announce(sender, payload)
        elif kind == KIND_REQUEST:
            self.sync.on_request(sender, payload)
        elif kind == KIND_RESPONSE:
            self.sync.on_response(sender, payload)

    def _on_forwarded_tx(self, tx: Transaction) -> None:
        if self.flow != FLOW_EXECUTE_ORDER:
            return
        if tx.tx_id in self.executing or \
                self.ledger.has_transaction(tx.tx_id):
            return
        self._execute_or_defer(tx)

    def _execute_or_defer(self, tx: Transaction) -> None:
        """Begin executing an EO transaction, or queue it until this node
        reaches its snapshot height (section 3.4.1: 'the transaction would
        start executing once the node completes processing all blocks ...
        up to the specified snapshot-height')."""
        height = tx.snapshot_height or 0
        if height > self.db.committed_height:
            self.deferred.append(tx)
            return
        outcome = self.backend.execute(tx)
        self.pending_outcomes[tx.tx_id] = outcome

    def _drain_deferred(self) -> None:
        ready = [tx for tx in self.deferred
                 if (tx.snapshot_height or 0) <= self.db.committed_height]
        self.deferred = [tx for tx in self.deferred
                         if (tx.snapshot_height or 0) >
                         self.db.committed_height]
        for tx in ready:
            if tx.tx_id not in self.executing and \
                    not self.ledger.has_transaction(tx.tx_id):
                outcome = self.backend.execute(tx)
                self.pending_outcomes[tx.tx_id] = outcome

    # ------------------------------------------------------------------
    # Block intake and processing
    # ------------------------------------------------------------------

    def on_block(self, block: Block, from_orderer: str) -> None:
        """Middleware: verify, collect signature quorum, store, process."""
        if self.crashed:
            return
        if block.number <= self.blockstore.height:
            # Already stored; merge any new orderer signatures (BFT quorum
            # collection across copies).
            stored = self.blockstore.maybe_get(block.number)
            if stored is not None and \
                    stored.block_hash == block.block_hash:
                stored.orderer_signatures.update(block.orderer_signatures)
            return
        buffered = self._block_buffer.get(block.number)
        if buffered is not None and \
                buffered.block_hash == block.block_hash:
            buffered.orderer_signatures.update(block.orderer_signatures)
        elif buffered is None or \
                self._buffer_score(block) > self._buffer_score(buffered):
            # A same-number block with a *different* hash only replaces
            # the buffered copy when it is verifiably better (hash
            # integrity, chaining, more valid orderer signatures) — an
            # injected duplicate or corrupt copy can never evict a valid
            # block awaiting quorum; first-seen wins ties.
            self._block_buffer[block.number] = block
        self._try_process_buffered()

    def _buffer_score(self, block: Block) -> Tuple[int, int, int]:
        """Rank a buffered-block candidate: (hash integrity, prev-hash
        chaining when checkable, count of valid orderer signatures)."""
        intact = int(block.block_hash == block.compute_hash())
        chains = 1
        tip = self.blockstore.tip()
        if block.number == self.blockstore.height + 1 and tip is not None:
            chains = int(block.prev_hash == tip.block_hash)
        valid_sigs = 0
        if intact:
            for orderer, sig_bytes in block.orderer_signatures.items():
                if orderer not in self.certs:
                    continue
                try:
                    self.certs.verify(orderer, block.block_hash,
                                      Signature.from_bytes(sig_bytes))
                    valid_sigs += 1
                except (ReproError, ValueError):
                    continue
        return (intact, chains, valid_sigs)

    def _try_process_buffered(self) -> None:
        while True:
            next_number = self.blockstore.height + 1
            block = self._block_buffer.get(next_number)
            if block is None:
                return
            try:
                # Genesis carries the out-of-band network configuration and
                # is not signed by orderers (section 3.7).
                min_sigs = 0 if block.number == 0 \
                    else self.min_block_signatures
                block.verify(self.certs,
                             expected_prev_hash=(
                                 self.blockstore.tip().block_hash
                                 if self.blockstore.tip() else None),
                             min_signatures=min_sigs)
            except BlockValidationError:
                return  # wait for more signatures or the right block
            del self._block_buffer[next_number]
            self.blockstore.append(block)
            if block.number == 0:
                self.apply_genesis_config(block.metadata)
                continue
            try:
                self.processor.process_block(block)
            except ReproError as exc:
                self.processing_error = str(exc)
                raise
            self._drain_deferred()

    # ------------------------------------------------------------------
    # Non-blockchain (private) schema — section 3.7
    # ------------------------------------------------------------------

    def private_execute(self, sql: str, username: str = "@system",
                        params: Sequence[Any] = ()) -> Result:
        """Run DDL/DML on this organization's *private* schema using the
        default single-node transaction flow (no consensus, no
        replication).  Writes touching blockchain-schema tables are
        rejected — those may only change through smart contracts."""
        from repro.sql.catalog import SCHEMA_PRIVATE

        if self.crashed:
            raise ReproError(f"node {self.name} is down")
        tx = self.db.begin(allow_nondeterministic=True, username=username)
        executor = Executor(self.db, tx, acl=self.acl)
        try:
            result = Result()
            for stmt in parse_sql(sql):
                from repro.sql.ast_nodes import CreateTable
                result = executor.execute(stmt, params=params)
                if isinstance(stmt, CreateTable):
                    # Tables created through the private path live in the
                    # non-blockchain schema.
                    self.db.catalog.schema_of(stmt.name).schema = \
                        SCHEMA_PRIVATE
            for table in tx.tables_written:
                schema = self.db.catalog.schema_of(table)
                if schema.schema != SCHEMA_PRIVATE and not schema.system:
                    raise ReproError(
                        f"table {table!r} belongs to the blockchain "
                        f"schema; direct DML is only allowed through "
                        f"smart contracts (section 3.7)")
        except BaseException:
            self.db.apply_abort(tx, reason="private tx failed")
            raise
        self.db.apply_commit(tx, block_number=self.db.committed_height)
        return result

    # ------------------------------------------------------------------
    # Vacuum (section 7)
    # ------------------------------------------------------------------

    def vacuum(self, keep_blocks: int = 16):
        """Prune dead row versions older than ``keep_blocks`` blocks of
        history (section 7's creator/deleter-aware vacuum).  The horizon
        becomes the database's retained-height floor: AS OF reads below
        it are refused, and reads at or above it are provably unaffected
        (see ``storage/vacuum.py``)."""
        from repro.storage.vacuum import vacuum_database

        horizon = self.db.committed_height - keep_blocks
        if horizon < 0:
            from repro.storage.vacuum import VacuumReport
            return VacuumReport(retain_height=horizon)
        return vacuum_database(self.db, horizon)

    # ------------------------------------------------------------------
    # Failure simulation
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Take the node down: it stops receiving traffic and loses
        unflushed WAL records (section 3.6).  The columnar replica is
        marked stale — recovery may roll committed work back, so it
        rebuilds from the heap once the node serves analytics again."""
        self.crashed = True
        self.network.take_down(self.name)
        self.db.wal.crash()
        self.db.columnstore.mark_stale()

    def restart(self, recover: bool = True) -> Optional[Dict[str, int]]:
        """Bring the node back and rejoin the network with no external
        choreography: run the section 3.6 recovery protocol over local
        state, then kick the anti-entropy sync loop so any blocks the
        network produced while we were down are fetched from peers and
        replayed in order.  Returns the recovery report (or ``None``
        with ``recover=False``, which restores the legacy bring-up-only
        behaviour)."""
        self.crashed = False
        self.network.bring_up(self.name)
        report = None
        if recover:
            from repro.node.recovery import RecoveryManager
            report = RecoveryManager(self).recover()
        self.sync.on_restart()
        return report
