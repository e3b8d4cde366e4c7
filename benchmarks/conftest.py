"""Benchmark configuration.

Each benchmark regenerates one table or figure from section 5 of the
paper and prints the reproduced rows/series next to the paper's reported
values, so `pytest benchmarks/ --benchmark-only` doubles as the
EXPERIMENTS.md evidence trail.

``BENCH_statement_fastpath.json`` at the repo root is the committed perf
baseline: benchmarks bootstrap their section on first run (that file is
then committed with the PR that changed the numbers) and assert against
the committed values afterwards, so CI fails on large regressions.
"""

import json
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = _REPO_ROOT / "BENCH_statement_fastpath.json"
ANALYTICS_BASELINE_PATH = _REPO_ROOT / "BENCH_analytics_scan.json"
JOIN_COSTING_BASELINE_PATH = _REPO_ROOT / "BENCH_join_costing.json"
BLOCK_COMMIT_BASELINE_PATH = _REPO_ROOT / "BENCH_block_commit.json"


def print_banner(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def load_baseline(path: Path = BASELINE_PATH) -> dict:
    if path.exists():
        return json.loads(path.read_text())
    return {}


def record_baseline(section: str, data: dict,
                    path: Path = BASELINE_PATH,
                    registry: dict = None) -> dict:
    """Bootstrap ``section`` of the committed baseline file if absent;
    return the canonical (committed) values for regression checks.

    ``registry`` is the run's engine-counter snapshot (see
    ``repro.bench.harness.registry_counter_snapshot``).  It is embedded
    under the section's ``"registry"`` key so perf gates can also diff
    workload-determined counters (plan-cache misses, WAL flushes, sync
    retries) across commits.  Sections committed before the metrics
    registry existed adopt it once — a backfill write, committed with
    the PR that introduced it — never overwriting a recorded snapshot.
    A recorded snapshot must name exactly the counters the live
    registry has: a counter one side lacks fails here, so the committed
    names cannot drift from the engine unseen.
    """
    baseline = load_baseline(path)
    committed = baseline.get(section, {}).get("registry")
    if registry is not None and committed is not None:
        gone = sorted(set(committed) - set(registry))
        new = sorted(set(registry) - set(committed))
        assert not gone and not new, (
            f"{path.name} [{section}] registry snapshot is stale: it "
            f"names counters the engine lacks {gone} and lacks counters "
            f"the engine has {new}")
    if registry is not None:
        data = dict(data, registry=registry)
    if section not in baseline:
        baseline[section] = data
    elif registry is not None and "registry" not in baseline[section]:
        baseline[section]["registry"] = registry
    else:
        return baseline[section]
    path.write_text(
        json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return baseline[section]
