"""Experiment harness: regenerates every table and figure of section 5.

Each ``run_*`` function returns plain dicts/lists (and can render an ASCII
table) so the pytest-benchmark wrappers in ``benchmarks/`` and
EXPERIMENTS.md generation share one code path.

Two kinds of experiments coexist:

* *model experiments* (Figures 5-8, Tables 4-5) drive the calibrated
  pipeline simulator — the paper's absolute numbers are a property of its
  32-vCPU testbed, the shape is a property of the protocol;
* *functional experiments* drive the real engine end-to-end (multi-org
  network, real SSI, real consensus) to measure the Python engine's own
  commit rates and validate that the same orderings hold.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.contracts_appendix_a import (
    ALL_CONTRACTS,
    SCHEMA_SQL,
    SEED_ACCOUNTS_CONTRACT,
    seed_calls,
    workload_calls,
)
from repro.bench.perfmodel import (
    FLOW_EO,
    FLOW_OE,
    PipelineSimulator,
    SimConfig,
    peak_throughput,
    sweep_arrival_rates,
)
from repro.bench.profiles import (
    BFT_ORDERER_MODEL,
    COMPLEX_GROUP,
    COMPLEX_JOIN,
    KAFKA_ORDERER_MODEL,
    LAN_DEPLOYMENT,
    SIMPLE,
    WAN_DEPLOYMENT,
)


#: Counter namespaces embedded into BENCH_*.json baselines.  These are
#: workload-determined (how many flushes, cache misses, sync round
#: trips a fixed workload performs), unlike wall-clock numbers, so a
#: perf gate can diff them across commits to flag e.g. an unexpected
#: plan-cache miss spike that a ratio-based time gate would absorb.
BENCH_COUNTER_PREFIXES = ("plancache.", "wal.", "sync.", "transport.",
                          "columnstore.", "consensus.", "stats.")


def registry_counter_snapshot(metrics,
                              prefixes: Sequence[str] =
                              BENCH_COUNTER_PREFIXES) -> Dict[str, int]:
    """Compact counter view of a :class:`MetricsRegistry` (or scope) for
    embedding in a benchmark baseline: totals aggregated across label
    scopes (all nodes of a network summed), filtered to the engine
    subsystems listed in :data:`BENCH_COUNTER_PREFIXES`."""
    totals: Dict[str, int] = {}
    for key, value in metrics.snapshot()["counters"].items():
        name = key.split("{", 1)[0]
        if name.startswith(tuple(prefixes)):
            totals[name] = totals.get(name, 0) + int(value)
    return dict(sorted(totals.items()))


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Minimal fixed-width ASCII table."""
    cols = [[str(h)] + [str(r[i]) for r in rows]
            for i, h in enumerate(headers)]
    widths = [max(len(v) for v in col) for col in cols]
    def fmt(row):
        return "  ".join(str(v).rjust(w) for v, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5: throughput & latency vs arrival rate (simple contract)
# ---------------------------------------------------------------------------

def run_fig5(flow: str, rates: Optional[List[float]] = None,
             block_sizes: Sequence[int] = (10, 100, 500),
             duration: float = 15.0) -> Dict:
    if rates is None:
        rates = ([1200, 1500, 1800, 2100] if flow == FLOW_OE
                 else [1800, 2100, 2400, 2700])
    series = sweep_arrival_rates(flow, SIMPLE, list(rates),
                                 list(block_sizes), duration=duration)
    peak = max(throughput for per_bs in series.values()
               for _, throughput, _ in per_bs)
    return {"flow": flow, "series": series, "peak_throughput": peak}


def fig5_table(result: Dict) -> str:
    rows = []
    for bs, points in sorted(result["series"].items()):
        for rate, throughput, latency in points:
            rows.append([bs, int(rate), round(throughput, 1),
                         round(latency * 1e3, 1)])
    return format_table(
        ["block_size", "arrival_tps", "throughput_tps", "latency_ms"], rows)


# ---------------------------------------------------------------------------
# Tables 4 and 5: micro metrics at fixed arrival rates
# ---------------------------------------------------------------------------

def run_micro_metrics(flow: str, arrival_rate: float,
                      block_sizes: Sequence[int] = (10, 100, 500),
                      duration: float = 10.0) -> List[Dict]:
    rows = []
    for bs in block_sizes:
        sim = PipelineSimulator(SimConfig(
            flow=flow, profile=SIMPLE, arrival_rate=arrival_rate,
            block_size=bs, duration=duration))
        result = sim.run()
        row = {"bs": bs}
        row.update(result.row())
        row["throughput"] = round(result.throughput, 1)
        rows.append(row)
    return rows


def micro_metrics_table(rows: List[Dict], include_mt: bool) -> str:
    headers = ["bs", "brr", "bpr", "bpt", "bet", "bct", "tet"]
    if include_mt:
        headers.append("mt")
    headers.append("su")
    return format_table(headers,
                        [[row[h] for h in headers] for row in rows])


# ---------------------------------------------------------------------------
# Figures 6 and 7: contract complexity
# ---------------------------------------------------------------------------

def run_complexity(profile_name: str,
                   block_sizes: Sequence[int] = (10, 50, 100)) -> Dict:
    profile = {"complex-join": COMPLEX_JOIN,
               "complex-group": COMPLEX_GROUP}[profile_name]
    out: Dict = {"profile": profile_name, "flows": {}}
    for flow in (FLOW_OE, FLOW_EO):
        per_bs = []
        for bs in block_sizes:
            sim = PipelineSimulator(SimConfig(
                flow=flow, profile=profile,
                arrival_rate=10_000, block_size=bs, duration=5.0))
            capacity = sim.capacity()
            result = PipelineSimulator(SimConfig(
                flow=flow, profile=profile, arrival_rate=capacity * 1.2,
                block_size=bs, duration=8.0)).run()
            per_bs.append({
                "bs": bs,
                "peak_throughput": round(result.throughput, 1),
                "bpt_ms": round(result.avg_block_processing_time * 1e3, 2),
                "bet_ms": round(result.avg_block_execution_time * 1e3, 2),
                "tet_ms": round(result.avg_tx_execution_time * 1e3, 2),
            })
        out["flows"][flow] = per_bs
    return out


# ---------------------------------------------------------------------------
# Section 5.1 Ethereum-style serial baseline
# ---------------------------------------------------------------------------

def run_serial_baseline(block_size: int = 100) -> Dict:
    serial = peak_throughput(FLOW_OE, SIMPLE, block_size,
                             serial_execution=True)
    concurrent = peak_throughput(FLOW_OE, SIMPLE, block_size)
    return {"serial_peak": round(serial, 1),
            "concurrent_peak": round(concurrent, 1),
            "ratio": round(serial / concurrent, 3)}


# ---------------------------------------------------------------------------
# Figure 8(a): multi-cloud deployment
# ---------------------------------------------------------------------------

def run_fig8a(block_sizes: Sequence[int] = (10, 50, 100)) -> Dict:
    out: Dict = {"rows": []}
    for flow in (FLOW_OE, FLOW_EO):
        for bs in block_sizes:
            lan_peak = peak_throughput(flow, COMPLEX_JOIN, bs,
                                       deployment=LAN_DEPLOYMENT)
            wan_peak = peak_throughput(flow, COMPLEX_JOIN, bs,
                                       deployment=WAN_DEPLOYMENT)
            # Latency comparison at a sub-saturation rate.
            rate = lan_peak * 0.5
            lan_lat = PipelineSimulator(SimConfig(
                flow=flow, profile=COMPLEX_JOIN, arrival_rate=rate,
                block_size=bs, duration=10.0)).run().avg_latency
            wan_lat = PipelineSimulator(SimConfig(
                flow=flow, profile=COMPLEX_JOIN, arrival_rate=rate,
                block_size=bs, duration=10.0,
                deployment=WAN_DEPLOYMENT)).run().avg_latency
            out["rows"].append({
                "flow": flow, "bs": bs,
                "lan_peak": round(lan_peak, 1),
                "wan_peak": round(wan_peak, 1),
                "peak_drop_pct": round(
                    100.0 * (1 - wan_peak / lan_peak), 2),
                "latency_increase_ms": round(
                    (wan_lat - lan_lat) * 1e3, 1),
            })
    return out


# ---------------------------------------------------------------------------
# Figure 8(b): ordering-service throughput vs orderer count
# ---------------------------------------------------------------------------

def run_fig8b(orderer_counts: Sequence[int] = (4, 8, 12, 16, 20, 24, 28, 32),
              offered_tps: float = 3000.0) -> Dict:
    rows = []
    for n in orderer_counts:
        kafka = min(offered_tps, KAFKA_ORDERER_MODEL.capacity(n))
        bft = min(offered_tps, BFT_ORDERER_MODEL.capacity(n))
        rows.append({"orderers": n,
                     "kafka_tps": round(kafka, 1),
                     "bft_tps": round(bft, 1)})
    return {"offered_tps": offered_tps, "rows": rows}


# ---------------------------------------------------------------------------
# Functional (real-engine) experiments
# ---------------------------------------------------------------------------

def build_functional_network(flow: str, organizations: Sequence[str] =
                             ("org1", "org2", "org3"),
                             consensus: str = "kafka",
                             block_size: int = 20,
                             block_timeout: float = 0.2,
                             seed_data: bool = True):
    """A real multi-org network loaded with the Appendix A schema."""
    from repro.core.network import BlockchainNetwork

    net = BlockchainNetwork(
        organizations=list(organizations), flow=flow, consensus=consensus,
        block_size=block_size, block_timeout=block_timeout,
        schema_sql=SCHEMA_SQL,
        contracts=ALL_CONTRACTS + [SEED_ACCOUNTS_CONTRACT])
    clients = [net.register_client(f"bench-client-{i}", org)
               for i, org in enumerate(organizations)]
    if seed_data:
        for i, (procedure, args) in enumerate(
                seed_calls(list(organizations))):
            clients[i % len(clients)].invoke(procedure, *args)
        net.settle(timeout=60.0)
    return net, clients


def sql_totals(metrics) -> Dict[str, float]:
    """Per-statement SQL timings and plan-cache traffic of one registry,
    summed over its nodes: statement count and seconds from the
    ``sql.*_seconds`` histograms, hits / misses from ``plancache.*``."""
    snap = metrics.snapshot()
    totals = {"statements": 0, "plan_s": 0.0, "exec_s": 0.0}
    for key, hist in snap["histograms"].items():
        name = key.split("{", 1)[0]
        if name == "sql.plan_seconds":
            totals["plan_s"] += hist["sum"]
        elif name == "sql.exec_seconds":
            totals["exec_s"] += hist["sum"]
            totals["statements"] += hist["count"]
    counters = registry_counter_snapshot(metrics, ("plancache.",))
    totals["hits"] = counters.get("plancache.hits", 0)
    totals["misses"] = counters.get("plancache.misses", 0)
    return totals


def run_functional_workload(flow: str, kind: str, count: int = 60,
                            consensus: str = "kafka") -> Dict:
    """Push ``count`` real transactions through the engine; returns
    wall-clock commit rate, abort statistics, and the SQL engine's own
    per-statement planning/execution timings and plan-cache hit/miss
    counts (this network's registry, workload minus seeding), so
    fig6/fig7-style runs report the statement fast path's effect
    directly."""
    net, clients = build_functional_network(flow, consensus=consensus)
    orgs = [c.identity.organization for c in clients]
    calls = workload_calls(kind, count, orgs)
    sql_before = sql_totals(net.metrics)  # the workload, not the seeding
    started = time.perf_counter()
    tx_ids = []
    for i, (procedure, args) in enumerate(calls):
        tx_ids.append(clients[i % len(clients)].invoke(procedure, *args))
    net.settle(timeout=120.0)
    elapsed = time.perf_counter() - started
    committed = aborted = 0
    node = net.primary_node
    for tx_id in tx_ids:
        entry = node.ledger.entry(tx_id)
        if entry and entry["status"] == "committed":
            committed += 1
        else:
            aborted += 1
    net.assert_consistent()
    exec_samples = [t for metrics in node.processor.metrics
                    for t in metrics.tx_execution_times]
    avg_exec_ms = (1e3 * sum(exec_samples) / len(exec_samples)
                   if exec_samples else 0.0)
    sql = {name: value - sql_before[name]
           for name, value in sql_totals(net.metrics).items()}
    statements = sql["statements"] or 1
    registry = registry_counter_snapshot(net.metrics)
    return {
        "flow": flow, "kind": kind, "count": count,
        "committed": committed, "aborted": aborted,
        "wall_seconds": round(elapsed, 3),
        "engine_tps": round(committed / elapsed, 1) if elapsed else 0.0,
        "avg_tx_exec_ms": round(avg_exec_ms, 3),
        "blocks": node.blockstore.height,
        "sql_statements": sql["statements"],
        "sql_plan_ms_avg": round(sql["plan_s"] / statements * 1e3, 4),
        "sql_exec_ms_avg": round(sql["exec_s"] / statements * 1e3, 4),
        "sql_plan_ms_total": round(sql["plan_s"] * 1e3, 3),
        "sql_exec_ms_total": round(sql["exec_s"] * 1e3, 3),
        "sql_plan_cache_hits": sql["hits"],
        "sql_plan_cache_misses": sql["misses"],
        # Anti-entropy sync activity summed across the replica set: on a
        # healthy run requests/retries stay ~0 while announces tick — a
        # nonzero blocks_requested here means the workload outran
        # delivery somewhere and the sync layer healed it.
        "sync_blocks_requested": registry.get("sync.blocks_requested", 0),
        "sync_blocks_served": registry.get("sync.blocks_served", 0),
        "sync_retries": registry.get("sync.retries", 0),
        "sync_backoff_ms_total": registry.get("sync.backoff_ms_total", 0),
        "sync_announces_sent": registry.get("sync.announces_sent", 0),
        # Full counter snapshot of the network's registry, for embedding
        # next to the timings in BENCH_*.json.
        "registry": registry,
    }
