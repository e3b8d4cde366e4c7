"""Retained bytes per committed transaction, and where they sit.

    python3 benchmarks/retained_bytes.py [--workload NAME] [--txs N]
        [--traced-txs M] [--seed S] [--top K]

The end-to-end benchmark (``benchmarks/e2e``) is time-bounded, so a
faster engine commits more transactions in the same seconds and is
charged, through ``peak_rss_mb``, for what each of them leaves behind:
``peak_rss_mb ~ base + bytes per tx x committed txs``.  This prints the
two terms of that line for one of the benchmark's workloads, so a
change that claims throughput can state its memory budget beforehand:

1. three set-ups, as a benchmark job makes them (two thrown away), then
   ``gc.collect()`` — the **base RSS**;
2. ``--txs`` transactions of the workload's call stream through the
   benchmark's own closed loop, untraced — the **KB/tx slope** is the
   RSS growth over the second half of them (the first half fills
   allocator arenas and lazily built caches);
3. ``--traced-txs`` more under ``tracemalloc`` — net retained bytes per
   transaction by source file (bigint arithmetic under tracemalloc is
   ~20x slower, hence the separate, shorter leg).

It imports the load generator and the workloads from ``benchmarks/e2e``
and the engine from ``src/`` of this checkout, reads ``/proc`` for RSS,
and changes nothing.  The figures cover every replica in the process
plus the load generator's own per-transaction history.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
import tracemalloc
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE / "e2e"))

import driver      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402


def rss_kb() -> float:
    """Resident set size now (not the peak), in KB."""
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0
    except OSError:   # not Linux: the peak is all there is
        return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def set_up(engine, w, seed: int):
    """Three set-ups with the seeds a benchmark job uses; the last one
    stays."""
    session = None
    for k in reversed(range(driver.SETUP_REPEATS)):
        if session is not None:
            session.close()
            session = None
            gc.collect()
        session, _spent = driver.setup(engine, w, seed + 7919 * k)
    return session


def per_file(before: tracemalloc.Snapshot, after: tracemalloc.Snapshot
             ) -> List[Tuple[str, int, int]]:
    """``(file, net bytes, net blocks)`` by source file, largest first."""
    rows = []
    for stat in after.compare_to(before, "filename"):
        name = stat.traceback[0].filename
        try:
            name = str(Path(name).resolve().relative_to(REPO))
        except ValueError:
            pass
        rows.append((name, stat.size_diff, stat.count_diff))
    rows.sort(key=lambda row: -row[1])
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="oe-simple",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--txs", type=int, default=1000,
                        help="untraced transactions (RSS slope)")
    parser.add_argument("--traced-txs", type=int, default=300,
                        help="further transactions under tracemalloc "
                             "(0 skips the per-file table)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--top", type=int, default=14,
                        help="rows of the per-file table")
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    engine = run.load_engine()
    session = set_up(engine, w, args.seed)
    gc.collect()
    base = rss_kb()

    half = max(w.window, args.txs // 2)
    first = session.run_phase(txs=half)
    gc.collect()
    mid = rss_kb()
    second = session.run_phase(txs=half)
    gc.collect()
    end = rss_kb()
    committed = first.total("committed") + second.total("committed")

    print(f"workload {w.name}  seed {args.seed}  {w.flow}/{w.consensus}  "
          f"{w.orgs} orgs  block_size {w.block_size}")
    print(f"base_rss_mb        {base / 1024:9.1f}   after three set-ups")
    print(f"rss_mb             {end / 1024:9.1f}   after {committed} "
          f"committed transactions")
    last = second.total("committed")
    print(f"rss_kb_per_tx      {(end - mid) / max(1, last):9.2f}"
          f"   over the last {last}")
    print(f"rss_kb_per_tx_all  {(end - base) / max(1, committed):9.2f}"
          f"   over all {committed}")

    if args.traced_txs > 0:
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        phase = session.run_phase(txs=args.traced_txs)
        gc.collect()
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        n = max(1, phase.total("committed"))
        rows = per_file(before, after)
        total = sum(size for _name, size, _count in rows)
        print(f"traced_kb_per_tx   {total / 1024 / n:9.2f}   tracemalloc, "
              f"{n} committed transactions")
        print(f"{'file':<44}{'KB/tx':>9}{'blocks/tx':>11}{'share':>8}")
        for name, size, count in rows[:args.top]:
            print(f"{name[-43:]:<44}{size / 1024 / n:>9.3f}"
                  f"{count / n:>11.2f}{size / max(1, total):>8.1%}")
        rest = rows[args.top:]
        if rest:
            print(f"{'(' + str(len(rest)) + ' more files)':<44}"
                  f"{sum(r[1] for r in rest) / 1024 / n:>9.3f}"
                  f"{sum(r[2] for r in rest) / n:>11.2f}"
                  f"{sum(r[1] for r in rest) / max(1, total):>8.1%}")

    problems, failed, _digest = session.verify()
    session.close()
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
