"""Network bootstrap (section 3.7) and the top-level facade.

``BlockchainNetwork`` wires a full permissioned deployment in one call:
per-organization identities (admin, peers, orderers), the chosen ordering
service (kafka / raft / pbft), genesis configuration (schema DDL + initial
contracts), database nodes running either transaction flow, and client
onboarding.  Everything runs on one discrete-event scheduler, so a test or
example drives the whole network deterministically with
:meth:`BlockchainNetwork.settle`.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.chain.block import make_genesis
from repro.common.crypto import key_tables_cached
from repro.common.events import EventScheduler
from repro.common.identity import (
    Certificate,
    Identity,
    ROLE_ADMIN,
    ROLE_CLIENT,
    ROLE_ORDERER,
    ROLE_PEER,
)
from repro.consensus import OrderingConfig, make_ordering_service
from repro.core.client import BlockchainClient
from repro.errors import BlockValidationError, ReproError, StuckNodeError
from repro.net.transport import LAN, LatencyModel, SimNetwork, \
    make_chaos_plan
from repro.node.backend import FLOW_EXECUTE_ORDER, FLOW_ORDER_EXECUTE
from repro.node.peer import DatabaseNode
from repro.obs import MetricsRegistry
from repro.sql.plancache import PlanCache


class BlockchainNetwork:
    """A complete in-process permissioned blockchain database network."""

    def __init__(self, organizations: Sequence[str],
                 flow: str = FLOW_ORDER_EXECUTE,
                 consensus: str = "kafka",
                 block_size: int = 100,
                 block_timeout: float = 1.0,
                 latency: LatencyModel = LAN,
                 peers_per_org: int = 1,
                 orderers_per_org: int = 1,
                 schema_sql: str = "",
                 contracts: Sequence[str] = (),
                 checkpoint_interval: int = 1,
                 min_block_signatures: int = 1,
                 seed: int = 7):
        if not organizations:
            raise ReproError("need at least one organization")
        self.organizations = list(organizations)
        self.flow = flow
        self.scheduler = EventScheduler()
        # One process-wide metrics registry: transport counters live at
        # the top level, each node's subsystems register under a
        # ``node=<name>`` label scope (obs/metrics.py).
        self.metrics = MetricsRegistry()
        # The comb cache is the process's, not a node's: no label.
        self.metrics.gauge("crypto.key_tables", fn=key_tables_cached)
        self.network = SimNetwork(self.scheduler, default_latency=latency,
                                  seed=seed,
                                  metrics=self.metrics.scope())
        # CI soak hook: REPRO_CHAOS_PLAN=<profile> installs a seeded
        # low-grade fault plan under the whole suite (see net/transport's
        # CHAOS_PROFILES); the anti-entropy sync layer must absorb it.
        chaos_profile = os.environ.get("REPRO_CHAOS_PLAN", "")
        if chaos_profile:
            self.network.set_fault_plan(
                make_chaos_plan(chaos_profile, seed=seed))

        # -- identities ----------------------------------------------------
        self.admins: Dict[str, Identity] = {}
        self.peer_identities: List[Identity] = []
        self.orderer_identities: List[Identity] = []
        for org in self.organizations:
            admin = Identity.create(f"admin@{org}", org, ROLE_ADMIN)
            self.admins[org] = admin
            for i in range(peers_per_org):
                self.peer_identities.append(Identity.create(
                    f"peer{i}@{org}", org, ROLE_PEER, issuer=admin))
            for i in range(orderers_per_org):
                self.orderer_identities.append(Identity.create(
                    f"orderer{i}@{org}", org, ROLE_ORDERER, issuer=admin))

        # -- genesis ---------------------------------------------------------
        genesis = make_genesis(metadata={
            "genesis": True,
            "organizations": self.organizations,
            "flow": flow,
            "schema_sql": schema_sql,
            "contracts": list(contracts),
        })

        # -- ordering service ---------------------------------------------------
        config = OrderingConfig(block_size=block_size,
                                block_timeout=block_timeout,
                                consensus=consensus)
        self.ordering = make_ordering_service(
            consensus, self.scheduler, self.network,
            self.orderer_identities, config, genesis)
        from repro.obs import Tracer
        self.ordering.attach_observability(
            self.metrics.scope(service="ordering"),
            tracer=Tracer(self.metrics.scope(service="ordering")))

        # -- database nodes -------------------------------------------------------
        bootstrap_certs: List[Certificate] = (
            [admin.certificate for admin in self.admins.values()]
            + [ident.certificate for ident in self.peer_identities]
            + [ident.certificate for ident in self.orderer_identities])
        # All peers of one process replay the same DDL history, so they
        # can share one plan-template cache (keyed on the catalog's
        # structural version token): N nodes hold one template set
        # instead of N copies.
        self.shared_plan_cache = PlanCache(
            metrics=self.metrics.scope(cache="shared"))
        self.nodes: List[DatabaseNode] = []
        for identity in self.peer_identities:
            node = DatabaseNode(
                identity, self.scheduler, self.network, flow=flow,
                organizations=self.organizations, ordering=self.ordering,
                min_block_signatures=min_block_signatures,
                checkpoint_interval=checkpoint_interval,
                plan_cache=self.shared_plan_cache,
                metrics_registry=self.metrics)
            node.register_certificates(bootstrap_certs)
            self.nodes.append(node)
        self.ordering.start()
        self.settle()  # deliver genesis everywhere

        self.clients: Dict[str, BlockchainClient] = {}
        self._admin_clients: Dict[str, BlockchainClient] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def node_of(self, org: str, index: int = 0) -> DatabaseNode:
        matches = [n for n in self.nodes if n.organization == org]
        if not matches:
            raise ReproError(f"no peers for organization {org!r}")
        return matches[index]

    @property
    def primary_node(self) -> DatabaseNode:
        return self.nodes[0]

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def register_client(self, name: str, org: str) -> BlockchainClient:
        """Onboard a client user: the org admin issues a certificate which
        every node installs (bootstrap path; see also create_userTx for the
        on-chain path)."""
        if org not in self.admins:
            raise ReproError(f"unknown organization {org!r}")
        identity = Identity.create(name, org, ROLE_CLIENT,
                                   issuer=self.admins[org])
        for node in self.nodes:
            node.certs.register(identity.certificate)
        client = BlockchainClient(identity, self)
        self.clients[name] = client
        return client

    def admin_client(self, org: str) -> BlockchainClient:
        """A client wielding the organization's admin identity (system
        contracts require it)."""
        if org not in self._admin_clients:
            self._admin_clients[org] = BlockchainClient(self.admins[org],
                                                        self)
        return self._admin_clients[org]

    # ------------------------------------------------------------------
    # Simulation control
    # ------------------------------------------------------------------

    def settle(self, timeout: float = 30.0,
               expect_progress: bool = True) -> None:
        """Run the event loop until the queue drains or ``timeout``
        simulated seconds elapse (consensus protocols with periodic
        heartbeats never fully drain the queue).

        With ``expect_progress`` (the default), a live node whose block
        store stopped advancing while its block buffer still holds work
        raises :class:`StuckNodeError` naming the gap, instead of
        returning silently with a wedged node.  Pass
        ``expect_progress=False`` while faults (partitions, crashes, an
        aggressive fault plan) are deliberately still active."""
        self.scheduler.run(until=self.scheduler.now + timeout)
        if expect_progress:
            for node in self.nodes:
                diagnosis = self._stuck_diagnosis(node)
                if diagnosis is not None:
                    raise StuckNodeError(diagnosis)

    def _stuck_diagnosis(self, node: DatabaseNode) -> Optional[str]:
        """Explain why ``node`` cannot drain its block buffer, if so."""
        if node.crashed or not node._block_buffer:
            return None
        height = node.blockstore.height
        buffered = sorted(node._block_buffer)
        head = node._block_buffer.get(height + 1)
        peer_heights = dict(sorted(node.sync._peer_heights.items()))
        if head is None:
            sync = {name: value for name, value in
                    node.metrics.snapshot()["counters"].items()
                    if name.startswith("sync.")}
            return (f"node {node.name} stuck at height {height}: "
                    f"waiting for block {height + 1}, buffered "
                    f"{buffered}, peer heights {peer_heights}, sync "
                    f"{sync}")
        try:
            min_sigs = 0 if head.number == 0 else node.min_block_signatures
            tip = node.blockstore.tip()
            head.verify(node.certs,
                        expected_prev_hash=(tip.block_hash if tip
                                            else None),
                        min_signatures=min_sigs)
        except BlockValidationError as exc:
            return (f"node {node.name} stuck at height {height}: block "
                    f"{height + 1} buffered but unverifiable ({exc}); "
                    f"buffered {buffered}")
        return None  # head verifies: processing is merely in flight

    def advance(self, seconds: float) -> None:
        """Run the event loop for a bounded amount of simulated time."""
        self.scheduler.run(until=self.scheduler.now + seconds)

    # ------------------------------------------------------------------
    # Whole-network assertions (used heavily by tests)
    # ------------------------------------------------------------------

    def assert_consistent(self, tables: Optional[Sequence[str]] = None
                          ) -> None:
        """Verify every live node holds identical committed state."""
        live = [n for n in self.nodes if not n.crashed]
        if len(live) < 2:
            return
        reference = live[0]
        table_names = list(tables) if tables else [
            t for t in reference.db.catalog.table_names()
            if t != "pgledger"]
        for table in table_names:
            want = self._table_fingerprint(reference, table)
            for node in live[1:]:
                if self._table_fingerprint(node, table) != want:
                    raise AssertionError(self._divergence(
                        table, reference, node))
        heights = {n.name: n.db.committed_height for n in live}
        if len(set(heights.values())) > 1:
            raise AssertionError(f"nodes at different heights: {heights}")

    @staticmethod
    def _table_rows(node: DatabaseNode, table: str) -> List[str]:
        """The ``repr`` of every latest committed row of ``table`` (its
        items sorted by column), sorted."""
        from repro.storage.snapshot import SeqSnapshot
        from repro.storage.visibility import visible_versions
        statuses = node.db.statuses
        latest = visible_versions(
            node.db.catalog.heap_of(table).all_versions(),
            SeqSnapshot(statuses.current_commit_seq), statuses, None)
        return sorted(repr(sorted(version.values.items()))
                      for version in latest)

    @classmethod
    def _table_fingerprint(cls, node: DatabaseNode, table: str) -> bytes:
        """SHA-256 over :meth:`_table_rows`: a node's table is held as
        one list of strings while it hashes, never two copies of its
        rows.  ``repr`` equality is stricter than ``=`` (``1`` and
        ``1.0`` differ) and makes a NaN row equal to itself."""
        digest = hashlib.sha256()
        for row in cls._table_rows(node, table):
            digest.update(row.encode())
            digest.update(b"\n")   # repr escapes every newline it holds
        return digest.digest()

    @classmethod
    def _divergence(cls, table: str, reference: DatabaseNode,
                    node: DatabaseNode) -> str:
        """The message naming the rows of ``table`` the two nodes do not
        share (rebuilt only once the fingerprints differ)."""
        want = Counter(cls._table_rows(reference, table))
        got = Counter(cls._table_rows(node, table))

        def listed(rows: Counter) -> str:
            return "".join(f"\n    {row}" for row in sorted(rows.elements()))

        return (f"table {table!r} diverged between {reference.name} and "
                f"{node.name}:\n"
                f"  only on {reference.name}:{listed(want - got)}\n"
                f"  only on {node.name}:{listed(got - want)}")
