"""Shared fixtures for the test suite."""

from contextlib import contextmanager

import pytest

from repro.bench.contracts_appendix_a import (
    ALL_CONTRACTS,
    SCHEMA_SQL,
    SEED_ACCOUNTS_CONTRACT,
)
from repro.common import crypto
from repro.core.network import BlockchainNetwork
from repro.sql.planner import Planner

KV_SCHEMA = "CREATE TABLE kv (k TEXT PRIMARY KEY, v INT);"

KV_CONTRACTS = [
    """CREATE FUNCTION set_kv(key TEXT, val INT) RETURNS VOID AS $$
    BEGIN
        INSERT INTO kv (k, v) VALUES (key, val);
    END $$ LANGUAGE plpgsql""",
    """CREATE FUNCTION bump_kv(key TEXT, delta INT) RETURNS VOID AS $$
    BEGIN
        UPDATE kv SET v = v + delta WHERE k = key;
    END $$ LANGUAGE plpgsql""",
    """CREATE FUNCTION del_kv(key TEXT) RETURNS VOID AS $$
    BEGIN
        DELETE FROM kv WHERE k = key;
    END $$ LANGUAGE plpgsql""",
    """CREATE FUNCTION get_then_set(src TEXT, dst TEXT) RETURNS VOID AS $$
    DECLARE cur INT;
    BEGIN
        SELECT v INTO cur FROM kv WHERE k = src;
        IF cur IS NULL THEN
            RAISE EXCEPTION 'missing source key';
        END IF;
        INSERT INTO kv (k, v) VALUES (dst, cur);
    END $$ LANGUAGE plpgsql""",
]


def pytest_addoption(parser):
    parser.addoption(
        "--replay-seeds", default="1",
        help="comma-separated seeds of the ledger-replay matrix "
             "(tests/core/test_cross_node_consistency.py)")


def _registered(kind: str, owner, name: str) -> list:
    scope = getattr(owner, "metrics", owner)
    values = [value for key, value in scope.snapshot()[kind].items()
              if key.split("{", 1)[0] == name]
    if not values:
        raise KeyError(f"no {name!r} among the {kind} of this scope")
    return values


def counter(owner, name: str):
    """Value of registry counter ``name`` in ``owner``'s scope — a
    component holding ``.metrics`` (node, database, WAL, transport, plan
    cache, …), a scope, or a whole registry (summed over its label sets).
    ``scope.counter(name)`` is get-or-create, so a typo there reads 0;
    this raises on a name the scope has never registered."""
    return sum(_registered("counters", owner, name))


def gauge(owner, name: str):
    """Value of the one gauge ``name`` in ``owner``'s scope (see
    :func:`counter`)."""
    value, = _registered("gauges", owner, name)
    return value


def same_outcome(left, right) -> bool:
    """``left == right`` for two statement outcomes — result rows, or
    the text of the error raised instead — with NaN reading equal to
    NaN (and, as with ``==``, 0.0 equal to -0.0)."""
    if isinstance(left, str) or isinstance(right, str):
        return left == right
    return len(left) == len(right) and all(
        len(a) == len(b) and all(x == y or (x != x and y != y)
                                 for x, y in zip(a, b))
        for a, b in zip(left, right))


@contextmanager
def structural_planning(db):
    """Plan ``db``'s statements by the pre-costing structural rules — the
    reference the cost-based choices are compared against.  ``src/`` has
    no switch (the rules run only under ``tx.require_index``), so this
    patches :meth:`Planner._cost_based` and clears the plan cache on the
    way in and out: templates of one mode must not serve the other."""
    original = Planner._cost_based
    Planner._cost_based = lambda self: False
    db.plan_cache.clear()
    try:
        yield
    finally:
        Planner._cost_based = original
        db.plan_cache.clear()


@contextmanager
def row_store_as_of(db):
    """Serve ``db``'s ``AS OF`` statements from the row store — the
    reference the columnar replica's answers are compared against.
    ``src/`` has no switch (the replica serves every pinned statement),
    so this patches :meth:`Planner._columnar_routing` and clears the
    plan cache on the way in and out, as :func:`structural_planning`
    does."""
    original = Planner._columnar_routing
    Planner._columnar_routing = lambda self, ctx: False
    db.plan_cache.clear()
    try:
        yield
    finally:
        Planner._columnar_routing = original
        db.plan_cache.clear()


@pytest.fixture
def key_combs():
    """The process-wide per-key comb cache, emptied for the test and
    restored after (it is shared by every test in the run)."""
    saved = dict(crypto._key_combs)
    crypto._key_combs.clear()
    yield crypto._key_combs
    crypto._key_combs.clear()
    crypto._key_combs.update(saved)


def make_kv_network(flow: str, consensus: str = "kafka", orgs=None,
                    block_size: int = 10, block_timeout: float = 0.2,
                    **kwargs) -> BlockchainNetwork:
    return BlockchainNetwork(
        organizations=orgs or ["org1", "org2", "org3"],
        flow=flow, consensus=consensus,
        block_size=block_size, block_timeout=block_timeout,
        schema_sql=KV_SCHEMA, contracts=KV_CONTRACTS, **kwargs)


@pytest.fixture
def kv_network_oe():
    return make_kv_network("order-execute")


@pytest.fixture
def kv_network_eo():
    return make_kv_network("execute-order")


@pytest.fixture(params=["order-execute", "execute-order"])
def kv_network(request):
    """Parametrized over both transaction flows."""
    return make_kv_network(request.param)


def make_bench_network(flow: str, **kwargs) -> BlockchainNetwork:
    """Network with the Appendix A schema and contracts."""
    return BlockchainNetwork(
        organizations=kwargs.pop("orgs", ["org1", "org2"]),
        flow=flow, block_size=kwargs.pop("block_size", 10),
        block_timeout=kwargs.pop("block_timeout", 0.2),
        schema_sql=SCHEMA_SQL,
        contracts=ALL_CONTRACTS + [SEED_ACCOUNTS_CONTRACT], **kwargs)
