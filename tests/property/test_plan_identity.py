"""Plan-identity invariant (hypothesis).

The cost-based optimizer is only safe because its every input is a pure
function of the committed block sequence: N nodes replaying the same
blocks — under *different* commit interleavings, with different
in-flight noise transactions burning xids/version ids, with warm
plan caches on some and cold on others — must produce **byte-identical
EXPLAIN output** for every statement at every anchored height.  A
divergence here is exactly the SIREAD-set divergence the ROADMAP warned
about (different plans → different predicate reads → different SSI
abort decisions → forked replicas).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mvcc.database import Database
from repro.sql.executor import run_sql

# The replicated history: each block is a list of statements every node
# commits in the same order (the consensus output).
BLOCKS = [
    [
        ("INSERT INTO accounts (acc_id, org, balance) "
         "VALUES ($1, $2, $3)", (i + 1, f"org{i % 3 + 1}", 100.0))
        for i in range(9)
    ] + [
        ("INSERT INTO invoices (invoice_id, acc_id, amount) "
         "VALUES ($1, $2, $3)", (i + 1, i % 9 + 1, float(10 + i)))
        for i in range(27)
    ],
    [("DELETE FROM invoices WHERE invoice_id > 24", ()),
     ("INSERT INTO accounts (acc_id, org, balance) "
      "VALUES (20, 'org1', 5.0)", ())],
    [("UPDATE accounts SET balance = balance + 1 WHERE org = 'org2'", ()),
     ("INSERT INTO invoices (invoice_id, acc_id, amount) "
      "VALUES (40, 2, 7.5)", ())],
]

# Join/limit statement corpus the plans must agree on.
CORPUS = [
    "SELECT sum(i.amount) FROM accounts a "
    "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = $1",
    "SELECT a.acc_id, i.invoice_id FROM accounts a "
    "JOIN invoices i ON i.acc_id = a.acc_id ORDER BY a.acc_id",
    "SELECT a.acc_id, i.invoice_id FROM accounts a "
    "LEFT JOIN invoices i ON i.acc_id = a.acc_id ORDER BY a.acc_id",
    "SELECT count(*) FROM invoices i JOIN accounts a "
    "ON a.balance = i.amount",
    "SELECT invoice_id FROM invoices ORDER BY invoice_id LIMIT 3",
    "SELECT invoice_id FROM invoices WHERE invoice_id >= $2 "
    "ORDER BY invoice_id LIMIT 2 OFFSET 1",
    "SELECT acc_id FROM accounts WHERE org = $1 "
    "ORDER BY acc_id DESC LIMIT 4",
    # Column against column: never an index condition, even when a PL
    # variable carries the column's name (see ``shadow`` below).
    "SELECT invoice_id FROM invoices WHERE acc_id = invoice_id",
]

# Every column of SETUP; the property binds a variable under one of
# these names, as a contract parameter named after a column would.
COLUMNS = ["acc_id", "org", "balance", "invoice_id", "amount"]

SETUP = """
    CREATE TABLE accounts (
        acc_id INT PRIMARY KEY,
        org TEXT NOT NULL,
        balance FLOAT NOT NULL
    );
    CREATE INDEX accounts_org_idx ON accounts(org);
    CREATE TABLE invoices (
        invoice_id INT PRIMARY KEY,
        acc_id INT NOT NULL,
        amount FLOAT NOT NULL
    );
    CREATE INDEX invoices_acc_idx ON invoices(acc_id);
"""


def apply_noise(db, kind):
    """Interleaving-dependent activity that must not influence plans:
    in-flight writes (left open), aborted transactions (burn xids and
    version ids), cache churn."""
    if kind == "inflight":
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO invoices (invoice_id, acc_id, "
                        "amount) VALUES (9000, 1, 1.0)")
        return tx          # stays open across the EXPLAIN
    if kind == "aborted":
        tx = db.begin(allow_nondeterministic=True)
        run_sql(db, tx, "INSERT INTO accounts (acc_id, org, balance) "
                        "VALUES (9001, 'zz', 0.0)")
        run_sql(db, tx, "DELETE FROM invoices WHERE invoice_id <= 5")
        db.apply_abort(tx, reason="noise")
        return None
    if kind == "cache-cleared":
        db.plan_cache.clear()
        db.stats.invalidate()
        return None
    return None


def explain_all(db, height, variables=None):
    """EXPLAIN every corpus statement (minus the cache hit/miss line)."""
    out = []
    for sql in CORPUS:
        tx = db.begin(allow_nondeterministic=True)
        try:
            lines = [r[0] for r in run_sql(
                db, tx, "EXPLAIN " + sql,
                params=("org1", height), variables=variables).rows]
        finally:
            db.apply_abort(tx, reason="test")
        out.append((sql, lines[:-1]))
    return out


def build_node(noise_plan):
    """Replay BLOCKS on a fresh node, interleaving the given noise
    between blocks.  Returns the node and any still-open transactions."""
    db = Database()
    open_txs = []
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, SETUP)
    db.apply_commit(setup, block_number=0)
    for height, statements in enumerate(BLOCKS, start=1):
        for kind in noise_plan.get(height, []):
            tx = apply_noise(db, kind)
            if tx is not None:
                open_txs.append(tx)
        block_tx = db.begin(allow_nondeterministic=True)
        for sql, params in statements:
            run_sql(db, block_tx, sql, params=params)
        db.apply_commit(block_tx, block_number=height)
        db.committed_height = height
        db.columnstore.on_block(db, height)
    return db, open_txs


noise_kinds = st.lists(
    st.sampled_from(["inflight", "aborted", "cache-cleared", "none"]),
    min_size=0, max_size=2)
noise_plans = st.fixed_dictionaries({
    1: noise_kinds, 2: noise_kinds, 3: noise_kinds})


class TestPlanIdentity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(noise_a=noise_plans, noise_b=noise_plans,
           shadow=st.sampled_from(COLUMNS))
    def test_interleavings_cannot_move_plans(self, noise_a, noise_b,
                                             shadow):
        """Two nodes with different interleaving noise agree on every
        EXPLAIN at the shared committed height — and a warm re-EXPLAIN
        (cache hit) on each node matches its own cold output.  A PL
        variable named after a column (``shadow``) is in scope
        throughout, and moves no plan either."""
        node_a, open_a = build_node(noise_a)
        node_b, open_b = build_node(noise_b)
        try:
            height = BLOCKS and len(BLOCKS)
            variables = {shadow: 3}
            plans_a = explain_all(node_a, height, variables)
            plans_b = explain_all(node_b, height, variables)
            assert plans_a == plans_b
            # Hit vs miss on the same node: byte-identical.
            assert explain_all(node_a, height, variables) == plans_a
            assert explain_all(node_a, height) == plans_a
        finally:
            for tx in open_a + open_b:
                node_a_or_b = node_a if tx in open_a else node_b
                node_a_or_b.apply_abort(tx, reason="cleanup")

    def test_identity_at_every_anchored_height(self):
        """Replaying the same blocks, nodes that pause at each height
        plan identically there — and a node that advanced past a height
        re-plans identically when it returns to the same anchor via a
        fresh replica."""
        reference = {}
        db, _ = build_node({})
        # Capture plans at each height on a single node advancing.
        db2 = Database()
        setup = db2.begin(allow_nondeterministic=True)
        run_sql(db2, setup, SETUP)
        db2.apply_commit(setup, block_number=0)
        for height, statements in enumerate(BLOCKS, start=1):
            tx = db2.begin(allow_nondeterministic=True)
            for sql, params in statements:
                run_sql(db2, tx, sql, params=params)
            db2.apply_commit(tx, block_number=height)
            db2.committed_height = height
            db2.columnstore.on_block(db2, height)
            reference[height] = explain_all(db2, height)
        # A third node replays with noise and checks each height's plans
        # against the reference as it passes through.
        db3 = Database()
        setup = db3.begin(allow_nondeterministic=True)
        run_sql(db3, setup, SETUP)
        db3.apply_commit(setup, block_number=0)
        for height, statements in enumerate(BLOCKS, start=1):
            apply_noise(db3, "aborted")
            tx = db3.begin(allow_nondeterministic=True)
            for sql, params in statements:
                run_sql(db3, tx, sql, params=params)
            db3.apply_commit(tx, block_number=height)
            db3.committed_height = height
            db3.columnstore.on_block(db3, height)
            assert explain_all(db3, height) == reference[height], \
                f"plan divergence at height {height}"


# ---------------------------------------------------------------------------
# Answer identity: row order the planner stopped producing cannot be seen
# ---------------------------------------------------------------------------

# Aggregates whose scans the planner marks "(any order)".  Every one of
# them must return the same bits on nodes whose heaps and indexes hold
# the rows in different physical orders.
ANSWER_CORPUS = [
    # global
    "SELECT sum(amount), avg(amount), count(*), count(amount), "
    "min(invoice_id), max(acc_id) FROM invoices",
    "SELECT sum(amount), count(*) FROM invoices WHERE acc_id = $1",
    "SELECT sum(balance), max(org), count(DISTINCT org) FROM accounts",
    # grouped, totally ordered
    "SELECT acc_id, sum(amount), avg(amount), count(*) FROM invoices "
    "GROUP BY acc_id ORDER BY acc_id",
    "SELECT sum(amount) FROM invoices GROUP BY acc_id "
    "ORDER BY sum(amount) DESC, acc_id ASC LIMIT 3",
    "SELECT org, count(*), sum(balance) FROM accounts GROUP BY org "
    "HAVING count(*) > 0 ORDER BY org DESC",
    # join + aggregate
    "SELECT sum(i.amount), count(*) FROM accounts a "
    "JOIN invoices i ON i.acc_id = a.acc_id WHERE a.org = $2",
    "SELECT a.org, sum(i.amount), count(i.invoice_id) FROM accounts a "
    "LEFT JOIN invoices i ON i.acc_id = a.acc_id "
    "GROUP BY a.org ORDER BY a.org",
    "SELECT a.acc_id, sum(i.amount) FROM accounts a "
    "JOIN invoices i ON i.acc_id = a.acc_id "
    "GROUP BY a.acc_id ORDER BY a.acc_id DESC LIMIT 4",
]

# Wide exponents on purpose: a left-to-right float sum of these depends
# on the order, and 1e308 + 1e308 overflows an intermediate even when
# the true sum is in range.
wide_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([1e308, -1e308, 1e-300, -1e-300, 0.1, -0.0, 0.0,
                     1e16, 1.0, -1e16]))


def answer(db, sql):
    """Rows as ``repr`` (bit-exact for floats), or the error a node
    would write to its ledger."""
    tx = db.begin(allow_nondeterministic=True)
    try:
        return repr(run_sql(db, tx, sql, params=(2, "org1")).rows)
    except Exception as exc:   # noqa: BLE001 - the message is the answer
        return f"{type(exc).__name__}: {exc}"
    finally:
        db.apply_abort(tx, reason="test")


def content_order_answer(db, sql):
    """The oracle: the same statement with every scan planned in the
    old content order."""
    from unittest import mock

    from repro.sql.planner import Planner

    db.plan_cache.clear()
    with mock.patch.object(Planner, "_order_observable",
                           lambda self, *args: True):
        tx = db.begin(allow_nondeterministic=True)
        try:
            lines = run_sql(db, tx, "EXPLAIN " + sql,
                            params=(2, "org1")).rows
        finally:
            db.apply_abort(tx, reason="test")
        assert not any("(any order)" in line[0] for line in lines)
        result = answer(db, sql)
    db.plan_cache.clear()
    return result


def build_answer_node(amounts, order, burn, vacuum):
    """Replay one logical history with a node-specific physical layout:
    ``order`` permutes the inserts inside block 1, ``burn`` aborted
    transactions consume xids and version ids first, and ``vacuum``
    prunes dead versions on this node only."""
    from repro.storage.vacuum import vacuum_database

    db = Database()
    setup = db.begin(allow_nondeterministic=True)
    run_sql(db, setup, SETUP)
    db.apply_commit(setup, block_number=0)
    for _ in range(burn):
        apply_noise(db, "aborted")
    inserts = [
        ("INSERT INTO accounts (acc_id, org, balance) VALUES ($1, $2, $3)",
         (i + 1, f"org{i % 3 + 1}", amounts[i % len(amounts)]))
        for i in range(6)
    ] + [
        ("INSERT INTO invoices (invoice_id, acc_id, amount) "
         "VALUES ($1, $2, $3)", (i + 1, i % 6 + 1, amount))
        for i, amount in enumerate(amounts)
    ]
    blocks = [
        [inserts[pos] for pos in order],
        [("UPDATE invoices SET amount = amount * 0.5 "
          "WHERE invoice_id <= 3", ()),
         ("DELETE FROM invoices WHERE invoice_id = 5", ())],
        [("INSERT INTO invoices (invoice_id, acc_id, amount) "
          "VALUES (900, 2, 0.1)", ())],
    ]
    for height, statements in enumerate(blocks, start=1):
        tx = db.begin(allow_nondeterministic=True)
        for sql, params in statements:
            run_sql(db, tx, sql, params=params)
        db.apply_commit(tx, block_number=height)
        db.committed_height = height
        db.columnstore.on_block(db, height)
        if burn:
            apply_noise(db, "aborted")
    if vacuum:
        assert vacuum_database(db, len(blocks)).removed_versions > 0
    return db


class TestAnswerIdentity:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(),
           amounts=st.lists(wide_floats, min_size=8, max_size=14))
    def test_physical_order_cannot_move_answers(self, data, amounts):
        """Two nodes commit the same blocks with different insert
        interleavings, burned ids, and a vacuum on one of them only.
        Every order-elided aggregate returns bit-identical rows (or the
        identical error) on both — and on each node equals the same
        statement run with its scans forced into content order."""
        positions = list(range(6 + len(amounts)))
        node_a = build_answer_node(amounts, positions, burn=0,
                                   vacuum=False)
        node_b = build_answer_node(
            amounts, data.draw(st.permutations(positions)),
            burn=data.draw(st.integers(1, 3)), vacuum=True)
        for sql in ANSWER_CORPUS:
            got_a, got_b = answer(node_a, sql), answer(node_b, sql)
            assert got_a == got_b, sql
            assert got_a == content_order_answer(node_a, sql), sql
            assert got_b == content_order_answer(node_b, sql), sql

    def test_corpus_is_order_elided(self):
        """Guards the property above against silently testing ordered
        plans: every corpus statement's scans are marked."""
        db = build_answer_node([1.0] * 8, list(range(14)), 0, False)
        for sql in ANSWER_CORPUS:
            tx = db.begin(allow_nondeterministic=True)
            lines = [r[0] for r in run_sql(db, tx, "EXPLAIN " + sql,
                                           params=(2, "org1")).rows]
            db.apply_abort(tx, reason="test")
            scans = [l for l in lines if "Scan" in l or "Probe" in l]
            assert scans and all("(any order)" in l for l in scans), lines
