"""Operator census: how often each physical operator is planned.

    python3 benchmarks/operator_census.py [--workload NAME ...]
        [--seed N] [--scale F]

Runs each end-to-end workload (benchmarks/e2e/workloads.py) at its
fixed transaction count — one set-up (genesis seed and warm-up block),
then the measured phase, as ``benchmarks/e2e/run.py --scale 1 --seed 1
--trace 0`` runs its last set-up — and counts every plan node
constructed on any node of the network.  A plan-cache hit constructs
nothing, so a count says how often a statement was *planned* onto the
operator, not how often it ran.  Prints one row per operator class,
one column per workload.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))
sys.path.insert(0, str(HERE.parent / "src"))

import driver      # noqa: E402
import workloads   # noqa: E402


def plan_classes() -> List[type]:
    """Every PlanNode subclass the engine defines."""
    from repro.analytics import operators  # noqa: F401  (defines some)
    from repro.sql.plan import PlanNode

    found, todo = [], [PlanNode]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def count_constructions(counts: Counter) -> None:
    """Wrap each class's ``__init__`` so that constructing an instance
    counts once, under its exact class (a ``super().__init__`` call
    reaches a wrapper whose class is not the instance's, and is not
    counted)."""
    def wrap(cls, init):
        def counted(self, *args, **kwargs):
            if type(self) is cls:
                counts[cls.__name__] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in plan_classes():
        cls.__init__ = wrap(cls, cls.__init__)


def census(names: List[str], seed: int, scale: float
           ) -> Dict[str, Counter]:
    from repro.core.network import BlockchainNetwork

    engine = SimpleNamespace(BlockchainNetwork=BlockchainNetwork)
    counts: Counter = Counter()
    count_constructions(counts)
    out = {}
    for name in names:
        w = workloads.WORKLOADS[name]
        if scale != 1.0:
            w = w.scaled(scale)
        counts.clear()
        session, _ = driver.setup(engine, w, seed)
        session.run_phase(txs=w.txs)
        out[name] = Counter(counts)
        problems, failed, _ = session.verify()
        session.close()
        if problems or failed:
            raise SystemExit(f"{name}: {failed} failed, {problems}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    names = args.workload or list(workloads.WORKLOADS)
    table = census(names, args.seed, args.scale)
    operators = sorted(set().union(*table.values()))
    width = max(len(name) for name in names)
    print(f"\n{'operator':<20}" + "".join(f"{n:>{width + 2}}" for n in names))
    for op in operators:
        print(f"{op:<20}" + "".join(f"{table[n][op]:>{width + 2}}"
                                    for n in names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
