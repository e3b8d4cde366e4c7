"""End-to-end benchmark on the real engine — command-line entry.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S | --scale F] [--trace 0|1 | --traced]
        [--flow F] [--consensus C] [--repeat-check]

With ``--workload`` and ``--trace`` it runs that one job in this process
and prints, as the last line of standard output, the result object the
benchmark contract asks for.  Otherwise it runs every selected workload,
untraced and traced, each in a fresh subprocess, and prints every metric
by name with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import driver      # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

MAX_ATTEMPTS = 3              # a disturbed run is repeated at most twice
UNATTRIBUTED_LIMIT = 0.10
CALIB_SET_TOLERANCE = 0.15


def load_engine() -> SimpleNamespace:
    """Import the engine from ``src/`` of this checkout."""
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no engine to measure: {REPO / 'src' / 'repro'} "
                         f"does not exist")
    sys.path.insert(0, str(REPO / "src"))
    from repro.core.network import BlockchainNetwork
    return SimpleNamespace(BlockchainNetwork=BlockchainNetwork)


def catalog() -> Dict[str, Any]:
    return json.loads((REPO / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# One job, in this process
# ---------------------------------------------------------------------------

def run_job(args) -> Dict[str, Any]:
    w = workloads.WORKLOADS[args.workload]
    if args.scale != 1.0:
        w = w.scaled(args.scale)
    if args.flow or args.consensus:
        w = replace(w, flow=args.flow or w.flow,
                    consensus=args.consensus or w.consensus)
    traced = args.trace == 1
    started = time.perf_counter()
    engine = load_engine()
    import_s = time.perf_counter() - started
    recorder = None
    if traced:
        recorder = spans.Recorder()
        recorder.install()
    try:
        return _measure(args, w, engine, import_s, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()


def _measure(args, w, engine, import_s, recorder) -> Dict[str, Any]:
    traced = recorder is not None
    seconds = args.seconds
    txs = None if seconds is not None else w.txs
    setups: List[float] = []
    analytic: List[List[float]] = []
    session = None
    # Throw-away set-ups use other seeds, so that a process-wide cache
    # keyed on SQL text cannot make the later ones cheaper.
    for k in reversed(range(1 if traced else driver.SETUP_REPEATS)):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        session, spent = driver.setup(engine, w, args.seed + 7919 * k)
        setups.append(spent)
        if not traced and not w.queries_per_tx:
            # No interleaved queries: time the AS OF shapes at rest on
            # the seeded state (which does not depend on how many rows a
            # time-bounded run goes on to insert), after every set-up so
            # that the samples are seconds apart.
            analytic += session.probe(driver.PROBE_ROUNDS)
    reference = None
    if traced:
        # Same network, wrappers passing through: the untraced cost per
        # transaction that trace.overhead_ratio is relative to.
        reference = session.run_phase(
            txs=None if txs is None else min(w.window, txs),
            seconds=None if seconds is None else 0.35 * seconds)
        seconds = None if seconds is None else 0.65 * seconds
    phase = session.run_phase(txs=txs, seconds=seconds, recorder=recorder,
                              calibrated=True)

    analytic = analytic or phase.query_rounds
    problems, failed, digest = session.verify()
    if phase.unfinished:
        problems.append(f"{phase.unfinished} transactions never finished")
    attempted = phase.total("attempted")
    aborted = phase.total("aborted")

    if traced:
        budget = recorder.budget()
        metrics = driver.per_layer_metrics(
            phase, recorder, budget, session.net, reference.wall_per_tx)
        trace_info = {"layer_sum_s": sum(budget.layer_self.values()),
                      "traced_wall_s": budget.wall}
        if abs(trace_info["layer_sum_s"] - budget.wall) > 0.01 * budget.wall:
            problems.append(
                f"layer self times sum to {trace_info['layer_sum_s']:.4f} s"
                f" but the traced wall clock is {budget.wall:.4f} s")
        unattributed = metrics["trace.unattributed_share"][0]
        if unattributed is None or unattributed > UNATTRIBUTED_LIMIT:
            problems.append(
                f"trace.unattributed_share {unattributed} exceeds "
                f"{UNATTRIBUTED_LIMIT}: a layer is not measured")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        recorder.write_jsonl(out_dir / f"{w.name}.spans.jsonl")
    else:
        trace_info = {}
        metrics = driver.end_to_end_metrics(
            phase, import_s + statistics.median(setups), analytic)

    info = {
        "workload": w.name, "seed": args.seed, "trace": int(traced),
        "flow": w.flow, "consensus": w.consensus, "orgs": w.orgs,
        "block_size": w.block_size, "window": w.window,
        "seed_rows": session.seed_counts,
        "attempted": attempted, "committed": phase.total("committed"),
        "aborted": aborted, "failed": failed,
        "abort_share": aborted / max(1, attempted),
        "failed_share": failed / max(1, len(session.history)),
        "blocks": phase.blocks, "rounds": len(phase.rounds),
        "measured_wall_s": phase.wall,
        "commit_latency_samples": attempted - phase.unfinished,
        "analytic_latency_samples": sum(map(len, analytic)),
        "analytic_latency_from": "interleaved" if phase.query_rounds
        else "at-rest probe",
        "setup_samples_s": setups, "import_s": import_s,
        "host.calib_ms": list(phase.calib), "disturbed": phase.disturbed,
        "state_digest": digest, "problems": problems,
        "missing_spans": recorder.missing if traced else [],
        "not_applicable": sorted(name for name, (value, _unit)
                                 in metrics.items() if value is None),
        "counters": phase.counters, **trace_info,
        "round_table": [
            {"attempted": r.attempted, "committed": r.committed,
             "wall_s": r.wall, "cpu_s": r.cpu,
             "p50_ms": 1e3 * driver.percentile(r.latencies, 50),
             "p95_ms": 1e3 * driver.percentile(r.latencies, 95)}
            for r in phase.rounds],
    }
    session.close()
    return {"info": info, "metrics": metrics}


def report(result: Dict[str, Any]) -> None:
    info = result["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  "
          f"trace {info['trace']}  {info['flow']}/{info['consensus']}  "
          f"orgs {info['orgs']}  block_size {info['block_size']}  "
          f"closed loop W={info['window']}")
    print(f"  attempted {info['attempted']}  committed {info['committed']}"
          f"  aborted {info['aborted']}  failed {info['failed']}  "
          f"blocks {info['blocks']}  rounds {info['rounds']}  measured "
          f"{info['measured_wall_s']:.2f} s")
    print(f"  abort_share {info['abort_share']:.4f}  failed_share "
          f"{info['failed_share']:.4f}  commit latency n="
          f"{info['commit_latency_samples']}  analytic latency n="
          f"{info['analytic_latency_samples']} "
          f"({info['analytic_latency_from']})")
    print(f"  state_digest {info['state_digest']}  host.calib_ms "
          f"{info['host.calib_ms'][0]:.1f}/{info['host.calib_ms'][1]:.1f}"
          f"{'  DISTURBED' if info['disturbed'] else ''}")
    if info["missing_spans"]:
        print(f"  missing_spans {info['missing_spans']}")
    for problem in info["problems"]:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")


def contract_line(result: Dict[str, Any]) -> str:
    """The last line of standard output.  A metric that does not apply to
    this workload is written as 0; the table above says n/a."""
    info = result["info"]
    return json.dumps({
        "correct": not info["problems"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": 0.0 if value is None else value,
                           "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    })


# ---------------------------------------------------------------------------
# Many jobs, each in a fresh subprocess
# ---------------------------------------------------------------------------

def spawn(args, workload: str, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--trace", str(trace), "--seed", str(args.seed),
               "--scale", str(args.scale)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    for flag in ("flow", "consensus"):
        if getattr(args, flag):
            command += [f"--{flag}", getattr(args, flag)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    info_line = next((line for line in lines if line.startswith("# info ")),
                     None)
    if done.returncode != 0 or info_line is None:
        sys.stdout.write(done.stdout)
        raise SystemExit(
            f"{workload} (trace {trace}) exited with {done.returncode}")
    sys.stdout.write("\n".join(
        line for line in lines[:-1] if not line.startswith("# info ")) + "\n")
    return {"info": json.loads(info_line[len("# info "):]),
            "contract": json.loads(lines[-1])}


def run_suite(args) -> Dict[tuple, Dict[str, Any]]:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    jobs = [(name, trace) for name in names for trace in traces]
    results = {job: spawn(args, *job) for job in jobs}
    # Host-noise guard: a run whose calibration moved by more than 10 %
    # between its start and end, or is more than 15 % off the median of
    # the set, is repeated (at most twice) and listed.
    repeats = {job: 0 for job in jobs}
    while True:
        calib = {job: r["info"]["host.calib_ms"]
                 for job, r in results.items()}
        median = statistics.median(v for pair in calib.values()
                                   for v in pair)
        again = [job for job, r in results.items()
                 if repeats[job] < MAX_ATTEMPTS - 1 and (
                     r["info"]["disturbed"] or any(
                         abs(v - median) > CALIB_SET_TOLERANCE * median
                         for v in calib[job]))]
        if not again:
            return results
        for job in again:
            repeats[job] += 1
            print(f"DISTURBED {job[0]} (trace {job[1]}): calibration "
                  f"{calib[job][0]:.1f} -> {calib[job][1]:.1f} ms, set "
                  f"median {median:.1f} ms; repeat {repeats[job]}")
            results[job] = spawn(args, *job)


def suite_ok(results) -> bool:
    bad = [job for job, r in results.items()
           if not r["contract"]["correct"] or r["contract"]["failed"]]
    for job in bad:
        print(f"FAILED {job[0]} (trace {job[1]}): "
              f"{results[job]['info']['problems']}")
    return not bad


def repeat_check(args) -> bool:
    """Run the suite twice; every end-to-end metric must agree within its
    bound, and everything that is a count must agree exactly."""
    spec = catalog()
    first, second = run_suite(args), run_suite(args)
    ok = suite_ok(first) and suite_ok(second)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"
              } - driver.INEXACT_COUNT_METRICS
    print(f"\n{'workload':<16} {'metric':<26} {'first':>12} {'second':>12} "
          f"{'worse by':>9} {'bound':>6}")
    for (name, trace), a in first.items():
        b = second[(name, trace)]
        for key in ("state_digest", "abort_share", "failed_share"):
            if args.seconds is None and a["info"][key] != b["info"][key]:
                ok = False
                print(f"{name:<16} {key} differs: {a['info'][key]} "
                      f"!= {b['info'][key]}")
        for metric, cell in a["contract"]["metrics"].items():
            x, y = cell["value"], b["contract"]["metrics"][metric]["value"]
            if metric in counts and args.seconds is None and x != y:
                ok = False
                print(f"{name:<16} {metric:<26} {x:>12.6g} {y:>12.6g}  "
                      f"count differs")
            if metric not in bounds:
                continue
            sign = 1.0 if bounds[metric]["better"] == "lower" else -1.0
            worse = sign * (y - x) / x
            breach = worse > bounds[metric]["bound"]
            ok = ok and not breach
            print(f"{name:<16} {metric:<26} {x:>12.6g} {y:>12.6g} "
                  f"{worse:>+9.3f} {bounds[metric]['bound']:>6}"
                  f"{'  BREACH' if breach else ''}")
    return ok


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long instead of a fixed "
                             "transaction count")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale seed rows and transaction counts")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1)
    parser.add_argument("--flow", choices=("order-execute", "execute-order"),
                        help="ad-hoc off-diagonal run, not recorded")
    parser.add_argument("--consensus", choices=("kafka", "raft", "pbft"))
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)
    if args.repeat_check:
        return 0 if repeat_check(args) else 1
    if args.workload is None or args.trace is None:
        return 0 if suite_ok(run_suite(args)) else 1
    result = run_job(args)
    report(result)
    print("# info " + json.dumps(result["info"]))
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
