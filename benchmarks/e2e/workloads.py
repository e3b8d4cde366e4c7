"""Workload catalog of the end-to-end benchmark.

Four workloads, each chosen to put the wall clock in a different layer
(see README.md for the reasons and the interaction table).  A workload
is: a network shape, a genesis seed (schema + multi-row INSERTs, because
a chain-submitted seed costs ~20 ms/row), an endless deterministic
stream of contract calls, and — for ``htap-mixed`` — the ``AS OF``
queries interleaved with the calls.

Everything here is plain data and SQL text.  The schema and the three
Appendix-A contracts are restated instead of imported from
``repro.bench`` so that retiring that package (ROADMAP item 1) cannot
break a benchmark later PRs are not allowed to edit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

SCHEMA_SQL = """
CREATE TABLE accounts (
    acc_id INT PRIMARY KEY,
    org TEXT NOT NULL,
    balance FLOAT NOT NULL
);
CREATE INDEX accounts_org_idx ON accounts(org);
CREATE TABLE invoices (
    invoice_id INT PRIMARY KEY,
    acc_id INT NOT NULL,
    org TEXT NOT NULL,
    amount FLOAT NOT NULL,
    status TEXT NOT NULL
);
CREATE INDEX invoices_acc_idx ON invoices(acc_id);
CREATE INDEX invoices_org_idx ON invoices(org);
CREATE TABLE summaries (
    summary_id TEXT PRIMARY KEY,
    org TEXT NOT NULL,
    total FLOAT NOT NULL,
    cnt INT NOT NULL
);
CREATE TABLE groupmax (
    gm_id TEXT PRIMARY KEY,
    org TEXT NOT NULL,
    max_total FLOAT NOT NULL
);
"""

TABLES = ("accounts", "invoices", "summaries", "groupmax")
PRIMARY_KEY = {"accounts": "acc_id", "invoices": "invoice_id",
               "summaries": "summary_id", "groupmax": "gm_id"}

CONTRACTS = [
    # Appendix A, Figure 9.
    """
CREATE FUNCTION simple_insert(inv_id INT, account INT, org_name TEXT,
                              amount FLOAT) RETURNS VOID AS $$
BEGIN
    INSERT INTO invoices (invoice_id, acc_id, org, amount, status)
    VALUES (inv_id, account, org_name, amount, 'new');
END $$ LANGUAGE plpgsql
""",
    # Appendix A, Figure 10.
    """
CREATE FUNCTION complex_join(sid TEXT, org_name TEXT) RETURNS VOID AS $$
DECLARE
    total FLOAT;
    cnt INT;
BEGIN
    SELECT sum(i.amount), count(*) INTO total, cnt
    FROM accounts a JOIN invoices i ON i.acc_id = a.acc_id
    WHERE a.org = org_name;
    INSERT INTO summaries (summary_id, org, total, cnt)
    VALUES (sid, org_name, coalesce(total, 0.0), coalesce(cnt, 0));
END $$ LANGUAGE plpgsql
""",
    # Appendix A, Figure 11.
    """
CREATE FUNCTION complex_group(gid TEXT, org_name TEXT) RETURNS VOID AS $$
DECLARE
    m FLOAT;
BEGIN
    SELECT sum(amount) INTO m
    FROM invoices
    WHERE org = org_name
    GROUP BY acc_id
    ORDER BY sum(amount) DESC, acc_id ASC
    LIMIT 1;
    INSERT INTO groupmax (gm_id, org, max_total)
    VALUES (gid, org_name, coalesce(m, 0.0));
END $$ LANGUAGE plpgsql
""",
    # Benchmark-defined: a read, two read-modify-write UPDATEs on the
    # shared ``accounts`` rows and an INSERT — the SSI abort path and the
    # columnstore's late deleter stamps.
    """
CREATE FUNCTION pay_invoice(inv_id INT, src INT, dst INT, org_name TEXT,
                            amt FLOAT) RETURNS VOID AS $$
DECLARE
    bal FLOAT;
BEGIN
    SELECT balance INTO bal FROM accounts WHERE acc_id = src;
    UPDATE accounts SET balance = balance - amt WHERE acc_id = src;
    UPDATE accounts SET balance = balance + amt WHERE acc_id = dst;
    INSERT INTO invoices (invoice_id, acc_id, org, amount, status)
    VALUES (inv_id, src, org_name, amt, 'paid');
END $$ LANGUAGE plpgsql
""",
]

#: Table each contract inserts exactly one row into when it commits.
INSERTS_INTO = {"simple_insert": "invoices", "pay_invoice": "invoices",
                "complex_join": "summaries", "complex_group": "groupmax"}

#: Invoice ids of generated transactions start here, above any seed id.
FIRST_TX_INVOICE_ID = 1_000_000

HOT_ACCOUNTS = 20
HOT_PROBABILITY = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    flow: str
    consensus: str
    orgs: int
    block_size: int
    accounts: int
    invoices_per_account: int
    txs: int                  # fixed-count size at --scale 1
    mix: Tuple[str, ...]      # procedures, cycled per submission
    queries_per_tx: float = 0.0
    scale: float = 1.0

    @property
    def window(self) -> int:
        """Closed-loop depth W: transactions kept outstanding."""
        return 2 * self.block_size

    @property
    def warmup(self) -> int:
        """Transactions pushed through before timing: one full block."""
        return max(len(self.mix), int(self.block_size * self.scale))

    def org_names(self) -> List[str]:
        return [f"org{i + 1}" for i in range(self.orgs)]

    def scaled(self, scale: float) -> "Workload":
        """Shrink (or grow) the seed, the warm-up and the transaction
        count together; the floors keep every code path alive at
        smoke-test scale."""
        accounts = max(2 * HOT_ACCOUNTS if "pay_invoice" in self.mix
                       else self.orgs, int(self.accounts * scale))
        return replace(self, accounts=accounts, scale=scale,
                       txs=max(2 * len(self.mix), int(self.txs * scale)))


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "oe-simple",
        "order-execute on kafka, single-row inserts: the paper's Fig. 5(a) "
        "path, where P-256 verify in common is most of the wall clock",
        "order-execute", "kafka", 3, 50, 12, 3, 900, ("simple_insert",)),
    Workload(
        "eo-simple-pbft",
        "execute-order on pbft with f=1: execute-at-submit, tx_forward "
        "fan-out and three-phase consensus load consensus, net and node",
        "execute-order", "pbft", 4, 50, 12, 3, 700, ("simple_insert",)),
    Workload(
        "oe-complex",
        "join and group-by contracts over a 6,000-invoice seed (Figs. 6-7):"
        " sql and contracts dominate, crypto is a small share",
        "order-execute", "kafka", 3, 10, 300, 20, 100,
        ("complex_join", "complex_group")),
    Workload(
        "htap-mixed",
        "inserts and conflicting account updates while AS OF aggregates "
        "scan the columnar replica: analytics ingest against scans, and "
        "the SSI abort path",
        "order-execute", "kafka", 3, 50, 600, 10, 600,
        ("simple_insert", "pay_invoice"), queries_per_tx=0.5),
)}


@dataclass(frozen=True)
class Call:
    procedure: str
    args: tuple

    @property
    def table(self) -> str:
        return INSERTS_INTO[self.procedure]


def _values(rows: Sequence[str], head: str, per_statement: int = 500
            ) -> List[str]:
    return [head + ", ".join(rows[i:i + per_statement]) + ";"
            for i in range(0, len(rows), per_statement)]


def genesis_sql(w: Workload, seed: int) -> Tuple[str, Dict[str, int]]:
    """Schema plus the seed rows as multi-row INSERTs, and the resulting
    row count per table.  Accounts are dealt to orgs round-robin."""
    rng = random.Random(seed)
    orgs = w.org_names()
    accounts: List[str] = []
    invoices: List[str] = []
    for acc_id in range(1, w.accounts + 1):
        org = orgs[(acc_id - 1) % len(orgs)]
        accounts.append(
            f"({acc_id}, '{org}', {round(rng.uniform(5e4, 1e5), 2)})")
        for _ in range(w.invoices_per_account):
            invoices.append(
                f"({len(invoices) + 1}, {acc_id}, '{org}', "
                f"{round(rng.uniform(10, 500), 2)}, 'new')")
    statements = _values(
        accounts, "INSERT INTO accounts (acc_id, org, balance) VALUES ")
    statements += _values(
        invoices, "INSERT INTO invoices "
        "(invoice_id, acc_id, org, amount, status) VALUES ")
    counts = {"accounts": len(accounts), "invoices": len(invoices),
              "summaries": 0, "groupmax": 0}
    return SCHEMA_SQL + "\n".join(statements), counts


def _endpoint(rng: random.Random, accounts: int) -> int:
    if rng.random() < HOT_PROBABILITY:
        return rng.randint(1, HOT_ACCOUNTS)
    return rng.randint(1, accounts)


def call_stream(w: Workload, seed: int) -> Iterator[Call]:
    """Endless deterministic call stream.  Call ``i`` is submitted by
    client ``i % orgs`` and names that client's organization."""
    rng = random.Random(seed + 1)
    orgs = w.org_names()
    i = 0
    while True:
        org = orgs[i % len(orgs)]
        procedure = w.mix[i % len(w.mix)]
        amount = round(rng.uniform(10, 500), 2)
        if procedure == "simple_insert":
            yield Call(procedure, (FIRST_TX_INVOICE_ID + i,
                                   rng.randint(1, w.accounts), org, amount))
        elif procedure == "pay_invoice":
            src = _endpoint(rng, w.accounts)
            dst = _endpoint(rng, w.accounts)
            while dst == src:
                dst = _endpoint(rng, w.accounts)
            yield Call(procedure, (FIRST_TX_INVOICE_ID + i, src, dst, org,
                                   amount))
        elif procedure == "complex_join":
            yield Call(procedure, (f"sum-{i}", org))
        else:
            yield Call(procedure, (f"gm-{i}", org))
        i += 1


def analytic_shapes(seed_invoices: int):
    """The four ``AS OF`` shapes: ``(name, SQL, parameter maker)``.
    htap-mixed interleaves them with its transactions; every workload
    cross-checks each once against the row store (driver.verify)."""
    def id_range(rng: random.Random) -> tuple:
        low = rng.randint(1, max(1, seed_invoices // 2))
        return (low, low + max(1, seed_invoices // 4))

    def no_params(rng: random.Random) -> tuple:
        return ()

    return (
        ("group_sum",
         "SELECT org, count(*), sum(amount) FROM invoices GROUP BY org "
         "ORDER BY org", no_params),
        ("range_minmax",
         "SELECT count(*), min(amount), max(amount), sum(amount) "
         "FROM invoices WHERE invoice_id BETWEEN $1 AND $2", id_range),
        ("dict_filter_group",
         "SELECT org, count(*), sum(amount) FROM invoices "
         "WHERE status = 'paid' GROUP BY org ORDER BY org", no_params),
        ("accounts_group",
         "SELECT org, count(*), sum(balance) FROM accounts GROUP BY org "
         "ORDER BY org", no_params),
    )


def query_stream(w: Workload, seed: int, seed_invoices: int
                 ) -> Iterator[Tuple[str, str, tuple]]:
    """Endless deterministic ``(shape, sql, params)`` stream."""
    rng = random.Random(seed + 2)
    shapes = analytic_shapes(seed_invoices)
    i = 0
    while True:
        name, sql, make = shapes[i % len(shapes)]
        yield name, sql, make(rng)
        i += 1
