"""Scans hand out ``RowVersion.values`` itself, not a copy: no operator
and no DML path may write to a row it was handed.

Every stored version's ``values`` is swapped for a read-only
``MappingProxyType`` view, so any write raises ``TypeError`` on the
spot; the statements below cover every place that used to receive a
private copy."""

from types import MappingProxyType

import pytest

from repro.mvcc.database import Database
from repro.sql.executor import run_sql


@pytest.fixture
def db():
    database = Database()
    tx = database.begin(allow_nondeterministic=True)
    run_sql(database, tx, """
        CREATE TABLE accounts (acc_id INT PRIMARY KEY, org TEXT NOT NULL,
                               balance FLOAT NOT NULL,
                               note TEXT DEFAULT 'none');
        CREATE INDEX accounts_org_idx ON accounts(org);
        CREATE TABLE invoices (invoice_id INT PRIMARY KEY,
                               acc_id INT NOT NULL, amount FLOAT NOT NULL);
        CREATE INDEX invoices_acc_idx ON invoices(acc_id);
    """)
    for i in range(6):
        run_sql(database, tx, "INSERT INTO accounts (acc_id, org, balance) "
                              "VALUES ($1, $2, 100.0)",
                params=(i + 1, f"org{i % 2 + 1}"))
    for i in range(8):
        run_sql(database, tx, "INSERT INTO invoices (invoice_id, acc_id, "
                              "amount) VALUES ($1, $2, $3)",
                params=(i + 1, i % 4 + 1, 10.0 + i))
    database.apply_commit(tx, block_number=1)
    database.committed_height = 1
    freeze(database)
    return database


def freeze(database):
    frozen = 0
    for table in database.catalog.table_names():
        for version in database.catalog.heap_of(table).all_versions():
            if not isinstance(version.values, MappingProxyType):
                version.values = MappingProxyType(version.values)
                frozen += 1
    return frozen


def snapshot(database):
    return {table: sorted(
        (v.version_id, tuple(sorted(v.values.items(),
                                    key=lambda kv: kv[0])))
        for v in database.catalog.heap_of(table).all_versions())
        for table in ("accounts", "invoices")}


def run(database, sql, params=(), commit=None, **tx_kwargs):
    tx = database.begin(allow_nondeterministic=True, **tx_kwargs)
    result = run_sql(database, tx, sql, params=params)
    if commit is None:
        database.apply_abort(tx, reason="test")
    else:
        database.apply_commit(tx, block_number=commit)
        database.committed_height = commit
    return result


def test_the_proxy_does_refuse_writes(db):
    version = db.catalog.heap_of("accounts").all_versions()[0]
    with pytest.raises(TypeError):
        version.values["balance"] = 0.0


READS = [
    "SELECT * FROM accounts ORDER BY acc_id",
    "SELECT a.*, i.* FROM accounts a LEFT JOIN invoices i "
    "ON i.acc_id = a.acc_id ORDER BY a.acc_id, i.invoice_id",
    # hash join and nested-loop join null-extension
    "SELECT a.acc_id, i.amount FROM accounts a LEFT JOIN invoices i "
    "ON i.amount = a.balance",
    "SELECT a.acc_id, i.invoice_id FROM accounts a LEFT JOIN invoices i "
    "ON i.acc_id = a.acc_id ORDER BY a.acc_id",
    "SELECT org, sum(balance), count(*) FROM accounts GROUP BY org "
    "ORDER BY org",
    "SELECT DISTINCT org FROM accounts",
    "SELECT acc_id FROM accounts ORDER BY acc_id LIMIT 2",
    "SELECT acc_id, (SELECT sum(amount) FROM invoices i "
    "WHERE i.acc_id = a.acc_id) FROM accounts a ORDER BY acc_id",
]


@pytest.mark.parametrize("sql", READS)
def test_reads_leave_rows_alone(db, sql):
    before = snapshot(db)
    run(db, sql)
    assert snapshot(db) == before


def test_left_join_null_row_is_per_output_row(db):
    """The NULL-extension row is built per unmatched outer row; the
    stored rows beside it are the shared ones."""
    rows = run(db, "SELECT a.acc_id, i.invoice_id FROM accounts a "
                   "LEFT JOIN invoices i ON i.acc_id = a.acc_id "
                   "WHERE a.acc_id >= 5 ORDER BY a.acc_id").rows
    assert rows == [(5, None), (6, None)]


def test_update_and_delete_build_new_versions(db):
    before = snapshot(db)
    run(db, "UPDATE accounts SET balance = balance + 1, note = 'paid' "
            "WHERE org = 'org1'", commit=2)
    run(db, "DELETE FROM invoices WHERE acc_id = 2", commit=3)
    after = snapshot(db)
    # Every version that existed is unchanged; the UPDATE added three.
    for table in before:
        old = dict(after[table])
        assert all(old[vid] == values for vid, values in before[table])
    assert len(after["accounts"]) == len(before["accounts"]) + 3
    assert run(db, "SELECT sum(balance), count(*) FROM accounts").rows == \
        [(603.0, 6)]
    assert run(db, "SELECT count(*) FROM invoices").scalar() == 6


def test_update_abort_leaves_the_old_version_readable(db):
    run(db, "UPDATE accounts SET balance = 0 WHERE acc_id = 1")
    assert run(db, "SELECT balance FROM accounts WHERE acc_id = 1"
               ).scalar() == 100.0


def test_provenance_rows_get_their_own_dict(db):
    """Provenance scans add pseudo-columns — to a copy."""
    run(db, "UPDATE accounts SET balance = 5 WHERE acc_id = 1", commit=2)
    assert freeze(db) == 1          # the version the UPDATE wrote
    before = snapshot(db)
    rows = run(db, "PROVENANCE SELECT acc_id, balance, xmin, creator "
                   "FROM accounts WHERE acc_id = 1 ORDER BY creator",
               provenance=True, read_only=True).rows
    assert [(r[0], r[1], r[3]) for r in rows] == [(1, 100.0, 1),
                                                  (1, 5.0, 2)]
    assert snapshot(db) == before
    assert all("xmin" not in v.values for v in
               db.catalog.heap_of("accounts").all_versions())
