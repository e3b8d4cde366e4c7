"""Load generator, correctness checks and metric derivation.

One :class:`Session` is one network plus one closed-loop client driver.
The load generator is a single thread of this process; the engine's
finalize threads are the only other runners.  It drives the engine only
through its public surface: ``BlockchainNetwork(...)``,
``register_client``, ``client.invoke`` / ``query`` / ``query_as_of``,
``net.advance`` / ``settle`` / ``assert_consistent``,
``node.notifications.listen``, ``node.ledger.entry`` and
``net.metrics.snapshot()``.

Closed loop: keep ``W = 2 * block_size`` transactions outstanding, then
``net.advance(0.05)``.  ``t_submit`` is ``perf_counter()`` just before
``client.invoke``; ``t_commit`` is ``perf_counter()`` inside the
``tx_status`` notification callback on the submitting client's own peer.
Transport delay and block timeout are simulated time, so wall-clock
latency is processing time under the W-deep loop and the protocol wait
is reported separately in simulated milliseconds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import nullcontext
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

import workloads
from spans import INSIDE_BLOCK, INSIDE_QUERY, INSIDE_VALIDATE, LAYERS
from workloads import Call, Workload

BLOCK_TIMEOUT = 0.2          # simulated seconds
ADVANCE_STEP = 0.05          # simulated seconds per event-loop slice
STALL_STEPS = 600            # 30 simulated seconds without any commit
SETUP_REPEATS = 3
PROBE_ROUNDS = 25            # at-rest AS OF rounds per set-up (4 shapes)
CALIB_TOLERANCE = 0.10
#: Registry counters whose deltas enter the state digest and the count
#: metrics.  Two of them depend on thread timing and stay out of the
#: digest: a barrier counts only when it had to wait, and a bounded
#: background WAL flush that arrives after a foreground flush finds
#: nothing left to write and is not counted.
COUNTER_PREFIXES = ("transport.", "wal.", "plancache.", "columnstore.",
                    "consensus.", "scheduler.")
TIMING_DEPENDENT = {"scheduler.barriers_waited", "wal.flush_count"}
INEXACT_COUNT_METRICS = {"storage.wal_flushes_per_block"}

_P256 = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF


def calibrate() -> float:
    """Fixed pure-Python kernel (256-bit modular multiplications and
    dict updates), in milliseconds.  Reported as ``host.calib_ms`` and
    used only to mark a run disturbed — never to rescale a metric."""
    start = time.perf_counter()
    x = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
    table: Dict[int, int] = {}
    for i in range(60_000):
        x = (x * x + i) % _P256
        table[i & 1023] = x
    return (time.perf_counter() - start) * 1e3


def percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def counter_totals(net) -> Dict[str, int]:
    """Registry counters summed over label scopes (all nodes)."""
    totals: Dict[str, int] = {}
    for key, value in net.metrics.snapshot()["counters"].items():
        name = key.split("{", 1)[0]
        if name.startswith(COUNTER_PREFIXES):
            totals[name] = totals.get(name, 0) + int(value)
    return totals


def gauge_mean(net, name: str) -> Optional[float]:
    values = [v for key, v in net.metrics.snapshot()["gauges"].items()
              if key.split("{", 1)[0] == name and v]
    return sum(values) / len(values) if values else None


class Round:
    """One closed-loop round: a window of submissions and the
    ``advance`` calls until a window's worth of transactions is final
    (in the steady state exactly the ones submitted, so nothing is
    outstanding at a boundary)."""

    __slots__ = ("attempted", "committed", "aborted", "wall", "cpu",
                 "latencies", "query_latencies")

    def __init__(self):
        self.attempted = self.committed = self.aborted = 0
        self.wall = self.cpu = 0.0
        self.latencies: List[float] = []          # seconds, wall
        self.query_latencies: List[float] = []    # seconds, wall


def quiet_quartile(values: Iterable[float], better: str = "lower") -> float:
    """The quartile on the good side of per-round figures: the 25th
    percentile of a cost, the 75th of a rate.  Host noise only ever adds
    time, so the good side of the distribution is the steady one; a
    change to the engine moves every round and therefore moves this."""
    return percentile(list(values), 25 if better == "lower" else 75)


class Phase:
    """What one measured (or warm-up) phase observed."""

    def __init__(self, window: int):
        self.window = window
        self.rounds: List[Round] = []
        self.unfinished = 0
        self.wall = 0.0
        self.order_waits: List[float] = []        # seconds, simulated
        self.blocks = 0
        self.counters: Dict[str, int] = {}
        self.calib = (0.0, 0.0)

    def total(self, field: str) -> int:
        return sum(getattr(r, field) for r in self.rounds)

    @property
    def full_rounds(self) -> List[Round]:
        """Rounds of a whole window (the last one of a run is cut short
        by the deadline and is not comparable); every round if none."""
        submitted = [r for r in self.rounds if r.attempted]
        return [r for r in submitted if r.attempted == self.window] \
            or submitted

    @property
    def wall_per_tx(self) -> float:
        return quiet_quartile(r.wall / r.attempted for r in self.full_rounds)

    @property
    def query_rounds(self) -> List[List[float]]:
        return [r.query_latencies for r in self.full_rounds
                if r.query_latencies]

    @property
    def disturbed(self) -> bool:
        before, after = self.calib
        return abs(before - after) > CALIB_TOLERANCE * min(before, after)


class Session:
    def __init__(self, engine, w: Workload, seed: int):
        self.w = w
        sql, self.seed_counts = workloads.genesis_sql(w, seed)
        self.net = engine.BlockchainNetwork(
            w.org_names(), flow=w.flow, consensus=w.consensus,
            block_size=w.block_size, block_timeout=BLOCK_TIMEOUT,
            schema_sql=sql, contracts=workloads.CONTRACTS, seed=seed)
        self.clients = [self.net.register_client(f"client@{org}", org)
                        for org in w.org_names()]
        self.calls: Iterator[Call] = workloads.call_stream(w, seed)
        self.queries = workloads.query_stream(
            w, seed, self.seed_counts["invoices"])
        self.seed_balance = self.clients[0].query(
            "SELECT sum(balance) FROM accounts").scalar()
        self.query_debt = 0.0
        # tx_id -> (client index, t_submit, simulated t_submit, call)
        self.pending: Dict[str, Tuple[int, float, float, Call]] = {}
        # every transaction ever submitted: tx_id -> [call, final status]
        self.history: Dict[str, List[Any]] = {}
        self.phase = Phase(w.window)
        self.round = Round()
        self._unlisten = []
        for index, client in enumerate(self.clients):
            self._unlisten.append(client.peer.notifications.listen(
                "tx_status",
                lambda event, index=index: self._on_status(index, event)))
        self._unlisten.append(self.net.primary_node.notifications.listen(
            "blocks", self._on_block))

    def close(self) -> None:
        for unlisten in self._unlisten:
            unlisten()
        self._unlisten = []

    # -- callbacks -----------------------------------------------------------

    def _sim_now(self) -> float:
        scheduler = getattr(self.net, "scheduler", None)
        return getattr(scheduler, "now", 0.0)

    def _on_status(self, index: int, event) -> None:
        payload = event.payload
        entry = self.pending.get(payload["tx_id"])
        if entry is None or entry[0] != index:
            return
        now = time.perf_counter()
        del self.pending[payload["tx_id"]]
        self.round.latencies.append(now - entry[1])
        self.phase.order_waits.append(self._sim_now() - entry[2])
        status = payload["status"]
        if status == "committed":
            self.round.committed += 1
        else:
            self.round.aborted += 1
        self.history[payload["tx_id"]][1] = status

    def _on_block(self, event) -> None:
        self.phase.blocks += 1

    # -- load ----------------------------------------------------------------

    def _submit(self) -> None:
        call = next(self.calls)
        index = len(self.history) % len(self.clients)
        sim = self._sim_now()
        started = time.perf_counter()
        tx_id = self.clients[index].invoke(call.procedure, *call.args)
        self.pending[tx_id] = (index, started, sim, call)
        self.history[tx_id] = [call, None]
        self.round.attempted += 1
        self.query_debt += self.w.queries_per_tx
        while self.query_debt >= 1.0:
            self.query_debt -= 1.0
            _name, sql, params = next(self.queries)
            started = time.perf_counter()
            result = self.clients[index].query_as_of(sql, params=params)
            len(result.rows)
            self.round.query_latencies.append(
                time.perf_counter() - started)

    def run_phase(self, txs: Optional[int] = None,
                  seconds: Optional[float] = None, recorder=None,
                  calibrated: bool = False) -> Phase:
        """Closed loop until ``txs`` submissions or ``seconds`` of wall
        time, then drain what is outstanding.  With ``recorder`` the
        timed region is recorded under one root span; with
        ``calibrated`` the host kernel is timed just before and after."""
        window = self.w.window
        phase = self.phase = Phase(window)
        before = counter_totals(self.net)
        calib_before = calibrate() if calibrated else 0.0
        attempted = idle_steps = 0

        def more() -> bool:
            if txs is not None and attempted >= txs:
                return False
            return deadline is None or time.perf_counter() < deadline

        with recorder.measure() if recorder is not None else nullcontext():
            started = round_started = time.perf_counter()
            round_cpu = time.process_time()
            deadline = started + seconds if seconds is not None else None
            current = self.round = Round()
            while self.pending or more():
                while len(self.pending) < window and more():
                    self._submit()
                    attempted += 1
                done = current.committed + current.aborted
                self.net.advance(ADVANCE_STEP)
                if current.committed + current.aborted == done:
                    idle_steps += 1
                    if idle_steps > STALL_STEPS:
                        break
                    continue
                idle_steps = 0
                if not self.pending or \
                        current.committed + current.aborted >= window:
                    now, cpu = time.perf_counter(), time.process_time()
                    current.wall = now - round_started
                    current.cpu = cpu - round_cpu
                    phase.rounds.append(current)
                    round_started, round_cpu = now, cpu
                    current = self.round = Round()
            if current.attempted:      # stalled: keep what was attempted
                current.wall = time.perf_counter() - round_started
                current.cpu = time.process_time() - round_cpu
                phase.rounds.append(current)
            # The last blocks' background finalization is part of the
            # work.
            self.net.settle(timeout=1.0)
            phase.wall = time.perf_counter() - started
        if calibrated:
            phase.calib = (calib_before, calibrate())
        phase.unfinished = len(self.pending)
        after = counter_totals(self.net)
        phase.counters = {name: after[name] - before.get(name, 0)
                          for name in after}
        return phase

    def probe(self, rounds: int) -> List[List[float]]:
        """Time the four AS OF shapes at rest (no commits in flight),
        ``rounds`` times over."""
        client = self.clients[0]
        out = []
        for _ in range(rounds):
            latencies = []
            for _ in range(4):
                _name, sql, params = next(self.queries)
                started = time.perf_counter()
                len(client.query_as_of(sql, params=params).rows)
                latencies.append(time.perf_counter() - started)
            out.append(latencies)
        return out

    # -- correctness ---------------------------------------------------------

    def verify(self) -> Tuple[List[str], int, str]:
        """``(problems, failed transactions, state digest)``.  A failed
        transaction has no final status, or a status that differs
        between nodes; if the replicas diverged every transaction
        counts as failed."""
        problems: List[str] = []
        net = self.net
        total = len(self.history)
        failed = 0
        try:
            net.settle()
            net.assert_consistent()
        except Exception as exc:   # boundary: report, fail the run
            problems.append(f"replica consistency: {exc!r}"[:300])
            failed = total
        committed = {table: 0 for table in workloads.TABLES}
        aborted = 0
        for tx_id, (call, status) in self.history.items():
            seen = set()
            for node in net.nodes:
                entry = node.ledger.entry(tx_id)
                seen.add(entry["status"] if entry else None)
            if status is None or seen != {status}:
                failed = min(total, failed + 1)
                if len(problems) < 5:
                    problems.append(
                        f"tx {tx_id}: notified {status}, ledgers {seen}")
            elif status == "committed":
                committed[call.table] += 1
            else:
                aborted += 1
        client = self.clients[0]
        fingerprints = []
        for table in workloads.TABLES:
            rows = client.query(
                f"SELECT * FROM {table} "
                f"ORDER BY {workloads.PRIMARY_KEY[table]}").rows
            want = self.seed_counts[table] + committed[table]
            if len(rows) != want and not failed:
                problems.append(
                    f"{table}: {len(rows)} rows, expected {want}")
            fingerprints.append(hashlib.sha256(
                json.dumps(rows, default=repr).encode()).hexdigest())
        balance = client.query("SELECT sum(balance) FROM accounts").scalar()
        if abs(balance - self.seed_balance) > 1e-6 * self.seed_balance:
            # pay_invoice only moves money between accounts.
            problems.append(f"accounts: balance sum {balance}, seeded "
                            f"{self.seed_balance}")
        problems += self._cross_check(client)
        counts = {name: value
                  for name, value in counter_totals(net).items()
                  if name not in TIMING_DEPENDENT}
        digest = hashlib.sha256(json.dumps(
            [fingerprints, aborted, counts],
            sort_keys=True).encode()).hexdigest()[:16]
        return problems, failed, digest

    def _cross_check(self, client) -> List[str]:
        """Each AS OF shape once against the row store at one height."""
        problems = []
        height = client.block_height()
        for _ in range(4):
            name, sql, params = next(self.queries)
            columnar = client.query_as_of(sql, height=height,
                                          params=params).rows
            rowstore = client.query(sql, params=params).rows
            if _rounded(columnar) != _rounded(rowstore):
                problems.append(
                    f"AS OF {name} at height {height}: columnstore "
                    f"{columnar[:3]} != row store {rowstore[:3]}")
        return problems


def _rounded(rows):
    return [tuple(round(v, 4) if isinstance(v, float) else v for v in row)
            for row in rows]


def setup(engine, w: Workload, seed: int) -> Tuple[Session, float]:
    """Build the network (genesis seed included), push one full block
    through the whole path so caches, lazily built pools and the
    columnar replica's first sync are out of the way, collect garbage.
    All of it counts as set-up time."""
    started = time.perf_counter()
    session = Session(engine, w, seed)
    session.run_phase(txs=w.warmup)
    gc.collect()
    return session, time.perf_counter() - started


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(phase: Phase, setup_s: float,
                       analytic: List[List[float]]
                       ) -> Dict[str, Tuple[Any, str]]:
    """Every timing is computed per closed-loop round and reported as
    the quiet quartile over the full rounds (``analytic`` holds one list
    of query latencies per round)."""
    rounds = phase.full_rounds

    def latency(pct: float) -> float:
        return 1e3 * quiet_quartile(percentile(r.latencies, pct)
                                    for r in rounds)

    def query_latency(pct: float) -> float:
        return 1e3 * quiet_quartile(percentile(latencies, pct)
                                    for latencies in analytic)

    return {
        "setup_s": (setup_s, "s"),
        "committed_tps": (quiet_quartile(
            (r.committed / r.wall for r in rounds), "higher"), "1/s"),
        "cpu_ms_per_tx": (1e3 * quiet_quartile(
            r.cpu / r.attempted for r in rounds), "ms"),
        "commit_latency_p50_ms": (latency(50), "ms"),
        "commit_latency_p95_ms": (latency(95), "ms"),
        "committed_share": (
            phase.total("committed") / phase.total("attempted"), "ratio"),
        "analytic_latency_p50_ms": (query_latency(50), "ms"),
        "analytic_latency_p95_ms": (query_latency(95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def per_layer_metrics(phase: Phase, recorder, b, net,
                      untraced_wall_per_tx: float
                      ) -> Dict[str, Tuple[Any, str]]:
    """Per-layer metrics of the traced phase.  ``per_tx`` divides by the
    client transactions attempted (so it is the cost of one client
    transaction on the whole network, all replicas included);
    ``per_block`` divides by ``process_block`` calls (one block on one
    node); ``per_call`` / ``per_stmt`` / ``per_query`` are means.  ``b``
    is the recorder's :class:`spans.Budget`."""
    txs = phase.total("attempted")
    node_blocks = b.count("BlockProcessor.process_block")
    out: Dict[str, Tuple[Any, str]] = {}

    def ms(seconds: float, per: float) -> Optional[float]:
        return 1e3 * seconds / per if per else None

    def ratio(a: float, c: float) -> Optional[float]:
        return a / c if c else None

    def have(*span_names: str) -> bool:
        return all(recorder.has(n) for n in span_names)

    def put(name: str, value, unit: str, *needs: str) -> None:
        out[name] = (value if have(*needs) else None, unit)

    for layer in LAYERS:
        out[f"{layer}.self_ms_per_tx"] = (ms(b.layer_self[layer], txs), "ms")
        out[f"{layer}.share"] = (ratio(b.layer_self[layer], b.wall), "ratio")

    verify, sign = "PublicKey.verify", "PrivateKey.sign"
    put("common.verify_calls_per_tx", ratio(b.count(verify), txs),
        "count", verify)
    put("common.sign_calls_per_tx", ratio(b.count(sign), txs), "count", sign)
    put("common.verify_ms_per_call", ms(b.total(verify), b.count(verify)),
        "ms", verify)
    put("common.sign_ms_per_call", ms(b.total(sign), b.count(sign)),
        "ms", sign)
    put("chain.block_verify_ms_per_block",
        ms(b.total("Block.verify"), node_blocks), "ms", "Block.verify")

    counters = phase.counters

    def counter(name: str) -> Optional[int]:
        return counters.get(name)

    def counter_ratio(name: str, per: float) -> Optional[float]:
        value = counter(name)
        return value / per if value is not None and per else None

    out["net.messages_per_tx"] = (
        counter_ratio("transport.messages_sent", txs), "count")
    out["net.bytes_per_tx"] = (
        counter_ratio("transport.bytes_sent", txs), "bytes")
    out["consensus.blocks"] = (phase.blocks, "count")
    out["consensus.txs_per_block"] = (ratio(txs, phase.blocks), "count")
    waits = phase.order_waits
    out["consensus.order_wait_sim_ms_p50"] = (
        1e3 * percentile(waits, 50) if waits else None, "ms")
    out["consensus.order_wait_sim_ms_p95"] = (
        1e3 * percentile(waits, 95) if waits else None, "ms")

    block, execute = "BlockProcessor.process_block", "Backend.execute"
    put("node.bpt_ms", ms(b.total(block), node_blocks), "ms", block)
    put("node.tet_ms", ms(b.total(execute), b.count(execute)), "ms",
        execute)
    put("node.auth_ms_per_tx", ms(b.total("Backend.authenticate"), txs),
        "ms", "Backend.authenticate")
    put("node.mt_per_block",
        ratio(b.count(execute, inside=INSIDE_BLOCK), node_blocks),
        "count", block, execute)
    put("node.ledger_ms_per_block",
        ms(b.total("Ledger.record_block")
           + b.total("Ledger.record_statuses"), node_blocks),
        "ms", "Ledger.record_block", "Ledger.record_statuses")
    put("node.barrier_wait_ms_per_block",
        ms(b.self_time("CommitScheduler.barrier"), node_blocks),
        "ms", "CommitScheduler.barrier")
    sync_time = sum(
        stat.total for (name, _bg, _mask), stat in b.stats.items()
        if name.startswith("event:repro.node.sync.")
        or name.startswith("BlockSyncManager."))
    out["node.sync_ms_per_tx"] = (ms(sync_time, txs), "ms")
    primary = net.primary_node.name
    put("node.su", ratio(b.per_node_block_time.get(primary, 0.0), b.wall),
        "ratio", block)

    invoke = "ProcedureRuntime.invoke"
    put("contracts.invoke_ms_per_call", ms(b.total(invoke), b.count(invoke)),
        "ms", invoke)

    stmt = "Executor.execute"
    put("sql.statements_per_tx", ratio(b.count(stmt), b.count(execute)),
        "count", stmt, execute)
    put("sql.exec_ms_per_stmt", ms(b.total(stmt), b.count(stmt)), "ms",
        stmt)
    put("sql.parse_ms_per_tx", ms(b.total("parse_sql"), txs), "ms",
        "parse_sql")
    hits, misses = counter("plancache.hits"), counter("plancache.misses")
    out["sql.plancache_hit_ratio"] = (
        ratio(hits, hits + misses)
        if hits is not None and misses is not None else None, "ratio")

    validators = [n for n in ("AbortDuringCommitSSI.validate",
                              "BlockAwareSSI.validate") if recorder.has(n)]
    validations = sum(b.count(n) for n in validators)
    out["mvcc.validate_ms_per_tx"] = (
        ms(sum(b.total(n) for n in validators), txs)
        if validators else None, "ms")
    # A validator aborts the committing transaction by raising, and other
    # transactions (the pivots it finds) through apply_abort.
    ssi_aborts = sum(b.errors(n) for n in validators) \
        + b.count("Database.apply_abort", inside=INSIDE_VALIDATE)
    out["mvcc.ssi_abort_ratio"] = (
        ratio(ssi_aborts, validations) if validators else None, "ratio")
    put("mvcc.apply_commit_ms_per_tx",
        ms(b.total("Database.apply_commit"), txs), "ms",
        "Database.apply_commit")
    put("mvcc.apply_block_bg_ms_per_block",
        ms(b.total("Database.apply_block", bg=True), node_blocks), "ms",
        "Database.apply_block")

    flush = "WriteAheadLog.flush"
    out["storage.wal_flushes_per_block"] = (
        counter_ratio("wal.flush_count", node_blocks), "count")
    out["storage.wal_records_per_tx"] = (
        counter_ratio("wal.records_flushed", txs), "count")
    put("storage.wal_flush_ms_per_block", ms(b.total(flush), node_blocks),
        "ms", flush)
    merge = "HeapTable.merge_pending_indexes"
    put("storage.index_merge_ms_per_block", ms(b.total(merge), node_blocks),
        "ms", merge)

    ingest = b.total("ColumnStore.ingest_block", bg=True) \
        + b.total("ColumnStore.on_block", bg=True)
    put("analytics.ingest_bg_ms_per_block", ms(ingest, node_blocks), "ms",
        "ColumnStore.ingest_block")
    queries = b.count("BlockchainClient.query_as_of")
    out["analytics.scan_ms_per_query"] = (
        ms(b.layer_self_inside("analytics", INSIDE_QUERY), queries),
        "ms")
    fence = b.self_time("CommitScheduler.barrier", inside=INSIDE_QUERY) \
        + b.self_time("Database.drain_commits", inside=INSIDE_QUERY)
    out["analytics.fence_wait_ms_per_query"] = (ms(fence, queries), "ms")
    pruned = counter("columnstore.chunks_pruned")
    scanned = counter("columnstore.chunks_scanned")
    out["analytics.chunks_pruned_ratio"] = (
        ratio(pruned, pruned + scanned)
        if pruned is not None and scanned is not None else None, "ratio")
    out["analytics.bytes_per_row"] = (
        gauge_mean(net, "columnstore.bytes_per_row"), "bytes")

    out["trace.unattributed_share"] = (
        ratio(b.layer_self["driver"], b.wall), "ratio")
    out["trace.overhead_ratio"] = (
        ratio(phase.wall_per_tx, untraced_wall_per_tx), "ratio")
    out["host.calib_ms"] = (statistics.mean(phase.calib), "ms")
    return out
