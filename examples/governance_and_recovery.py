"""Operations demo: contract governance, node failure + recovery, and
tamper evidence (paper sections 3.5-3.7).

1. A new contract is proposed by one organization's admin and only
   becomes live after *every* organization approves (section 3.7's
   create/approve/submit_deployTx system contracts).
2. One database node crashes; the network keeps committing without it
   (no liveness dependency on any single peer); on restart the section
   3.6 recovery protocol replays the missed blocks.
3. A node that tampers with its block store is caught by hash-chain
   verification (section 3.5(6)).

Run:  python examples/governance_and_recovery.py
"""

from repro import BlockchainNetwork
from repro.errors import BlockValidationError

SCHEMA = "CREATE TABLE readings (sensor TEXT PRIMARY KEY, value INT);"

BASE_CONTRACT = """CREATE FUNCTION record_reading(sensor_id TEXT, val INT)
RETURNS VOID AS $$
DECLARE existing INT;
BEGIN
    SELECT value INTO existing FROM readings WHERE sensor = sensor_id;
    IF existing IS NULL THEN
        INSERT INTO readings (sensor, value) VALUES (sensor_id, val);
    ELSE
        UPDATE readings SET value = val WHERE sensor = sensor_id;
    END IF;
END $$ LANGUAGE plpgsql"""

PROPOSED_CONTRACT = """CREATE FUNCTION clamp_reading(sensor_id TEXT,
    hi INT) RETURNS VOID AS $$
DECLARE current INT;
BEGIN
    SELECT value INTO current FROM readings WHERE sensor = sensor_id;
    IF current IS NULL THEN
        RAISE EXCEPTION 'unknown sensor';
    END IF;
    IF current > hi THEN
        UPDATE readings SET value = hi WHERE sensor = sensor_id;
    END IF;
END $$ LANGUAGE plpgsql"""

ORGS = ["org-a", "org-b", "org-c"]


def main() -> None:
    net = BlockchainNetwork(
        organizations=ORGS, flow="order-execute",
        block_size=5, block_timeout=0.2,
        schema_sql=SCHEMA, contracts=[BASE_CONTRACT])
    operator = net.register_client("operator", "org-a")

    # --- 1. governance --------------------------------------------------------
    print("== contract governance ==")
    admin_a, admin_b, admin_c = (net.admin_client(org) for org in ORGS)
    deploy_id = admin_a.propose_contract(PROPOSED_CONTRACT)
    print(f"proposed clamp_reading as deployment {deploy_id}")
    premature = admin_a.submit_contract(deploy_id)
    print(f"submit before approvals -> {premature['status']} "
          f"({premature['reason'][:60]}...)")
    for admin, org in ((admin_a, "org-a"), (admin_b, "org-b"),
                       (admin_c, "org-c")):
        status = admin.approve_contract(deploy_id)["status"]
        print(f"approval from {org}: {status}")
    print(f"final submit -> "
          f"{admin_a.submit_contract(deploy_id)['status']}")

    operator.invoke_and_wait("record_reading", "s1", 130)
    operator.invoke_and_wait("clamp_reading", "s1", 100)
    print("clamped reading:",
          operator.query("SELECT value FROM readings "
                         "WHERE sensor = 's1'").scalar())

    # --- 2. crash and recovery ------------------------------------------------
    print("\n== node failure and recovery ==")
    victim = net.node_of("org-b")
    victim.crash()
    print(f"{victim.name} crashed; network keeps committing...")
    for i in range(6):
        operator.invoke("record_reading", f"s{i + 2}", i * 10)
    net.settle(timeout=60.0)
    live_heights = {n.name: n.db.committed_height
                    for n in net.nodes if not n.crashed}
    print(f"live replica heights: {live_heights}")
    print(f"{victim.name} height while down: "
          f"{victim.db.committed_height}")

    # restart() is self-healing: it runs the section 3.6 recovery
    # protocol over local state, then the anti-entropy sync layer pulls
    # every block the network produced while the node was down from its
    # peers — no out-of-band block hand-off needed.
    report = victim.restart()
    net.settle(timeout=30.0)
    pulled = victim.metrics.counter("sync.blocks_requested").value
    print(f"recovery report: {report}, sync pulled {pulled} block(s)")
    print(f"{victim.name} height after recovery: "
          f"{victim.db.committed_height}")
    net.assert_consistent()
    print("all replicas consistent after recovery")

    # --- 3. tamper evidence ----------------------------------------------------
    print("\n== tamper evidence ==")
    rogue = net.node_of("org-c")
    rogue.blockstore.tamper(1, metadata={"rewritten": True})
    try:
        rogue.blockstore.verify_chain()
        print("ERROR: tampering went undetected!")
    except BlockValidationError as exc:
        print(f"tampering detected: {exc}")

    print("\ngovernance & recovery demo OK")


if __name__ == "__main__":
    main()
