"""Statement fast path: the plan-template cache.

Stored procedures and re-executed transactions run the *same* statements
on every replica, so re-binding and re-planning each execution is pure
overhead.  This module caches physical plan *templates* per database,
keyed by::

    (statement fingerprint, context shape, catalog version,
     stats anchor, tx flags)

* **statement fingerprint** — the structural identity of the parsed tree
  (``repr`` of the dataclass AST, memoized on the node: cached parse
  trees and stored-procedure bodies fingerprint in O(1) after the first
  call);
* **context shape** — which parameters / PL variables / outer-row columns
  are NULL.  Bound extraction drops NULL comparisons, so nullness (not
  values) is what can change a plan's structure;
* **catalog version** — the catalog's ``version_token``: a monotonic
  counter the catalog bumps on DDL and on vacuum-driven stats drift,
  paired with a structural fingerprint of the whole catalog.  A bump
  makes every older entry unreachable (a private cache's registered
  listener purges them eagerly).  The fingerprint is what makes
  **process-shared caches** safe: several nodes of one process with
  identical catalogs (same DDL history → same token) share one cache
  and each other's templates — cutting N-node memory to one template
  set — while a node whose catalog diverged (private-schema DDL) can
  never be served another catalog's plans.  Shared caches skip the
  eager purge (another node may still legitimately sit at the purged
  token); the token keying plus LRU eviction retire stale entries;
* **stats anchor** — the committed block height the planner's anchored
  statistics were pinned to.  Cost-based strategy choice is a pure
  function of (statement, anchored stats), so a template planned at one
  height must never serve an execution planning at another: nodes at
  the same height re-derive the same plan, nodes at different heights
  simply miss and re-plan (sql/stats.py);
* **tx flags** — ``require_index`` (execute-order-in-parallel planning
  rules), ``provenance`` (pseudo-columns change binding and output),
  ``allow_nondeterministic`` (changes which bounds are const-evaluable).
  ``require_index`` is also what selects structural over cost-based
  strategy choice, so the planning mode is part of the key.

Determinism argument: plans must be *node-deterministic* — a cache hit
may never change the chosen plan or the SIREAD set, or replicas would
diverge on SSI abort decisions.  Two mechanisms guarantee this:

1. Templates are split from per-execution state: scan nodes store the
   WHERE clause as value-free normalized conjuncts (``plan.Sarg``) and
   derive bound values from the live ``EvalContext`` every execution, so
   runtime index ranges (and hence predicate reads) are computed
   identically whether the tree came from the cache or the planner.
2. Every template carries :class:`ScanGuard` records — one per statically
   planned scan — capturing the structural index choice the planner made.
   On lookup the guards are re-derived against the *current* context; any
   mismatch (the shape key is deliberately coarse — e.g. a CASE expression
   may fold to NULL for some inputs) falls back to a full re-plan, which
   is exactly what an uncached execution would do.

A hit executes; it does not re-cost.  No runtime decision reads
``est_rows``/``est_cost`` — the strategy embedded in a template was
chosen under the same key (anchor, catalog version, ``require_index``),
so it cannot drift on a hit — and the ``cost~``/``rows~`` annotations
have one reader, EXPLAIN, which recosts the template it is about to
render (``Executor._execute_explain`` → ``recost_plan``) and so prints
exactly what a fresh planning pass at the same anchor would.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import CatalogError
from repro.sql.ast_nodes import Statement
from repro.sql.expressions import EvalContext
from repro.sql.plan import Sarg, ScanSignature, bounds_of, index_signature

__all__ = [
    "PlanCache", "PlanEntry", "ScanGuard", "context_shape",
    "statement_fingerprint", "validate_guards",
]


def statement_fingerprint(stmt: Statement) -> str:
    """Structural identity of a parsed statement, memoized on the node
    (safe: the AST is immutable after parsing, and the attribute lives
    outside the dataclass fields so ``repr`` output is unaffected)."""
    fp = stmt.__dict__.get("_fingerprint")
    if fp is None:
        fp = repr(stmt)
        stmt.__dict__["_fingerprint"] = fp
    return fp


def context_shape(ctx: EvalContext) -> Tuple:
    """The NULL-shape of everything bound at execution time: positional
    parameters, PL variables, and the outer-row scope chain (correlated
    subqueries re-plan per outer row; their shape varies with outer-row
    nullness)."""
    env_shapes: List[Tuple] = []
    scope: Optional[EvalContext] = ctx
    while scope is not None:
        if scope.env:
            env_shapes.append(tuple(sorted(
                (alias, tuple(sorted(
                    col for col, value in values.items() if value is None)))
                for alias, values in scope.env.items())))
        scope = scope.outer
    return (tuple(p is None for p in ctx.params),
            tuple(sorted((name, value is None)
                         for name, value in ctx.variables.items())),
            tuple(env_shapes))


@dataclass
class ScanGuard:
    """One statically planned scan's expected structural signature.

    Covers every bounds-dependent input to the planner's decisions: the
    scan's own SeqScan/IndexScan split, ``unique_covered`` point-lookup
    detection, and (via the build-side scan of each candidate hash join)
    the hash-vs-nested-loop strategy choice.  ``sargs`` are the scan's
    own normalized conjuncts — validation evaluates them, it never reads
    the WHERE clause again.  ``node`` is the scan node this guard
    validated (None once the planner replaced it), so the bounds
    computed during validation are handed to execution instead of being
    derived a second time."""

    table: str
    sargs: Sequence[Sarg]
    signature: ScanSignature
    node: Any = None
    # Columnar (AS OF) scans have no index signature to re-derive — the
    # guard only validates table existence and recomputes the bounds the
    # scan uses for zone-map pruning.
    columnar: bool = False


def validate_guards(catalog, guards: Sequence[ScanGuard],
                    ctx: EvalContext
                    ) -> Optional[Dict[int, Dict[str, Dict[str, Any]]]]:
    """Re-derive every guard's structural signature under ``ctx``.

    Returns None when any guard fails (the caller must re-plan), else a
    ``{id(scan node): bounds}`` map of the bounds computed along the way —
    statically planned scans execute with the statement context, so the
    executor threads these through :class:`Runtime` and the scans skip
    their own derivation."""
    bounds_by_node: Dict[int, Dict[str, Dict[str, Any]]] = {}
    for guard in guards:
        try:
            heap = catalog.heap_of(guard.table)
        except CatalogError:
            return None
        bounds = bounds_of(guard.sargs, ctx)
        if not guard.columnar and \
                index_signature(heap, bounds) != guard.signature:
            return None
        if guard.node is not None:
            bounds_by_node[id(guard.node)] = bounds
    return bounds_by_node


@dataclass
class PlanEntry:
    """A cached plan template plus the guards that validate reuse."""

    plan: Any                       # SelectPlan, or a scan node for DML
    guards: List[ScanGuard] = field(default_factory=list)
    catalog_version: Any = 0        # the catalog's version_token


class PlanCache:
    """Per-database LRU cache of plan templates (thread-safe)."""

    def __init__(self, capacity: int = 256, metrics=None):
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, PlanEntry]" = OrderedDict()
        self._lock = threading.Lock()
        # Counters on the unified registry (a process-shared cache keeps
        # its own private scope; per-node caches get the node scope).
        if metrics is None:
            from repro.obs.metrics import private_scope
            metrics = private_scope()
        self.metrics = metrics
        self._hits = metrics.counter("plancache.hits")
        self._misses = metrics.counter("plancache.misses")
        self._guard_failures = metrics.counter("plancache.guard_failures")
        self._evictions = metrics.counter("plancache.evictions")
        self._invalidations = metrics.counter("plancache.invalidations")
        metrics.gauge("plancache.size", fn=self.__len__)

    # -- keying ------------------------------------------------------------

    @staticmethod
    def key_for(stmt: Statement, ctx: EvalContext, tx,
                catalog_version: Any,
                stats_anchor: int = 0) -> Tuple:
        # AS OF statements additionally key on the *presence* of a
        # height pin: pinning changes the chosen operators (ColumnarScan
        # vs heap scans).  The height value itself is deliberately NOT
        # part of the key — templates are height-free (operators read
        # ``ctx.as_of_height`` per execution), so `AS OF BLOCK $1` at a
        # thousand heights, or a dashboard pinning to every new committed
        # height, reuses one template instead of churning the LRU.
        #
        # ``stats_anchor`` is the committed height the planner's
        # statistics were pinned to: cost-based strategy choice reads
        # them, so templates are only ever reused at the anchor they
        # were costed at (all nodes at one height agree; a new block
        # simply re-plans).
        as_of = getattr(ctx, "as_of_height", None)
        pinned = as_of is not None
        return (statement_fingerprint(stmt), context_shape(ctx),
                catalog_version, int(stats_anchor), bool(tx.require_index),
                bool(tx.provenance), bool(ctx.allow_nondeterministic),
                pinned)

    # -- lookup / store ----------------------------------------------------

    def get(self, key: Tuple, db, ctx: EvalContext
            ) -> Optional[Tuple[PlanEntry, Dict[int, Dict]]]:
        """Return a guard-validated ``(entry, bounds-by-scan-node)`` pair,
        or None (counting the miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self._misses.inc()
            return None
        scan_bounds = validate_guards(db.catalog, entry.guards, ctx)
        if scan_bounds is None:
            self._guard_failures.inc()
            self._misses.inc()
            return None
        self._hits.inc()
        return entry, scan_bounds

    def store(self, key: Tuple, entry: PlanEntry) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    # -- invalidation ------------------------------------------------------

    def invalidate_for_version(self, current_version: Any) -> int:
        """Purge entries planned under an older catalog version token
        (they are unreachable anyway — the token is part of the key — but
        eager purging keeps the LRU from carrying dead weight).  Only
        wired for *private* caches: a process-shared cache must not purge
        on one node's bump while siblings still sit at the older token."""
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if entry.catalog_version != current_version]
            for key in stale:
                del self._entries[key]
        self._invalidations.inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
