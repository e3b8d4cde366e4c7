"""Process-shared plan-template cache across nodes (network-size memory).

Nodes of one process replay the same DDL, so their catalogs are
structurally identical and one plan-template set can serve them all.
Safety hinges on the catalog ``version_token``: the structural
fingerprint in the plan-cache key means a node whose catalog diverged
(private-schema DDL) can never be served another catalog's templates.
"""

from tests.conftest import counter, make_kv_network


def warm(node, sql="SELECT v FROM kv WHERE k = $1", params=("a",)):
    return node.query(sql, params=params)


class TestSharedPlanCache:
    def test_nodes_share_one_template_set(self):
        net = make_kv_network("order-execute", orgs=["org1", "org2"])
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "a", 1)

        cache = net.shared_plan_cache
        for node in net.nodes:
            assert node.db.plan_cache is cache

        baseline = len(cache)
        warm(net.nodes[0])
        size_after_first = len(cache)
        assert size_after_first > baseline
        hits = counter(cache, "plancache.hits")
        # Every other node reuses the first node's template: the cache
        # holds one template set, not one per node.
        for node in net.nodes[1:]:
            warm(node)
        assert len(cache) == size_after_first
        assert counter(cache, "plancache.hits") >= \
            hits + len(net.nodes) - 1

    def test_diverged_catalog_does_not_cross_serve(self):
        """Private-schema DDL on one node forks its catalog token: its
        templates and the siblings' templates stop being interchangeable,
        and results stay correct on both sides."""
        net = make_kv_network("order-execute", orgs=["org1", "org2"])
        client = net.register_client("alice", "org1")
        client.invoke_and_wait("set_kv", "a", 1)
        node_a, node_b = net.nodes[0], net.nodes[1]

        warm(node_a)
        token_before = node_a.db.catalog.version_token
        node_a.private_execute(
            "CREATE TABLE scratch (id INT PRIMARY KEY, note TEXT)")
        node_a.private_execute(
            "INSERT INTO scratch (id, note) VALUES (1, 'local')")
        token_after = node_a.db.catalog.version_token
        assert token_after != token_before
        assert token_after[1] != token_before[1]   # structure fingerprint
        assert node_b.db.catalog.version_token == token_before

        # Both nodes keep planning correctly under the shared cache.
        assert warm(node_a).rows == warm(node_b).rows == [(1,)]
        assert node_a.query(
            "SELECT note FROM scratch WHERE id = 1").rows == [("local",)]

    def test_stats_drift_bump_keeps_fingerprint(self):
        """A vacuum-style stats bump advances the version but not the
        structural fingerprint (no DDL happened)."""
        net = make_kv_network("order-execute", orgs=["org1"])
        node = net.nodes[0]
        version, fingerprint = node.db.catalog.version_token
        node.db.catalog.bump_version()
        assert node.db.catalog.version_token == (version + 1, fingerprint)
