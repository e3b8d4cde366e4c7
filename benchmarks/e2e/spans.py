"""Span recorder for the traced run.

The benchmark may not touch ``src/``, so the layer boundaries are
instrumented from here: at run start every callable in :data:`TARGETS`
is resolved by dotted path and rebound to a wrapper that records one
span per call (name, layer, start, end, parent through a per-thread
stack, ``tx_id`` / block ``height`` / ``node`` when the call carries
them).  ``EventScheduler.schedule`` is wrapped too, so every fired
event-loop callback becomes a root span whose layer is the
``repro.<layer>`` module that defined the callback — consensus timers,
transport deliveries and sync ticks are attributed without naming them.

A target that no longer exists is listed in ``Recorder.missing`` and its
metrics become null; it never raises, so a PR that deletes or renames a
wrapped function cannot break a benchmark it is forbidden to edit.

Rebinding happens before the network is built (the engine stores bound
methods at construction time); until :meth:`Recorder.measure` switches
recording on, a wrapper is a pass-through.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all main-thread spans below the
``driver.measure`` root add up to that root's duration exactly.  Spans
on other threads (the finalize stage) have no main-thread parent; they
are aggregated separately as background time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

LAYERS = ("core", "chain", "common", "net", "consensus", "node",
          "contracts", "sql", "mvcc", "storage", "analytics")
DRIVER = "driver"
ROOT_SPAN = "driver.measure"


@dataclass(frozen=True)
class Target:
    """One wrapped callable.  ``node`` is an attribute path from ``self``
    to the owning node's name; ``tx`` / ``height`` are the positional
    index of the argument that carries ``.tx_id`` / ``.number`` (or is
    the height itself), or ``"ret"`` for the return value."""

    path: str
    node: str = ""
    tx: Any = None
    height: Any = None
    subclasses: bool = False

    @property
    def layer(self) -> str:
        return self.path.split(".")[1]


TARGETS: Tuple[Target, ...] = (
    Target("repro.core.client.BlockchainClient.invoke", tx="ret"),
    Target("repro.core.client.BlockchainClient.query_as_of"),
    Target("repro.chain.transaction.Transaction.create", tx="ret"),
    Target("repro.chain.block.Block.verify", height=0),
    Target("repro.chain.block.Block.seal", height=0),
    Target("repro.common.crypto.PrivateKey.sign"),
    Target("repro.common.crypto.PublicKey.verify"),
    Target("repro.common.identity.CertificateRegistry.verify"),
    Target("repro.common.serialization.canonical_bytes"),
    Target("repro.common.merkle.merkle_root"),
    Target("repro.net.transport.SimNetwork.send"),
    Target("repro.consensus.base.OrderingService.submit", tx=1,
           subclasses=True),
    Target("repro.consensus.base.OrderingService.submit_checkpoint",
           height=2, subclasses=True),
    Target("repro.node.peer.DatabaseNode.submit_transaction", node="name",
           tx=1),
    Target("repro.node.peer.DatabaseNode.on_message", node="name"),
    Target("repro.node.peer.DatabaseNode.on_block", node="name", height=1),
    Target("repro.node.peer.DatabaseNode.query", node="name"),
    Target("repro.node.backend.Backend.execute", node="node.name", tx=1),
    Target("repro.node.backend.Backend.authenticate", node="node.name",
           tx=1),
    Target("repro.node.block_processor.BlockProcessor.process_block",
           node="node.name", height=1),
    Target("repro.node.ledger.Ledger.record_block", height=1),
    Target("repro.node.ledger.Ledger.record_statuses", height=1),
    Target("repro.node.checkpoint.CheckpointManager.record_local",
           node="node_name", height=1),
    Target("repro.node.scheduler.CommitScheduler.barrier",
           node="node.name"),
    Target("repro.node.sync.BlockSyncManager.on_announce",
           node="node.name"),
    Target("repro.node.sync.BlockSyncManager.on_request",
           node="node.name"),
    Target("repro.node.sync.BlockSyncManager.on_response",
           node="node.name"),
    Target("repro.contracts.procedure.ProcedureRuntime.invoke", tx=1),
    Target("repro.sql.parser.parse_sql"),
    Target("repro.sql.executor.Executor.execute"),
    Target("repro.mvcc.database.Database.begin"),
    Target("repro.mvcc.database.Database.begin_at_height", height=1),
    Target("repro.mvcc.database.Database.apply_commit", tx=1),
    Target("repro.mvcc.database.Database.apply_abort", tx=1),
    Target("repro.mvcc.database.Database.apply_block", height=1),
    Target("repro.mvcc.database.Database.drain_commits"),
    Target("repro.mvcc.ssi.AbortDuringCommitSSI.validate", tx=1),
    Target("repro.mvcc.block_ssi.BlockAwareSSI.validate", tx=1, height=2),
    Target("repro.storage.wal.WriteAheadLog.append"),
    Target("repro.storage.wal.WriteAheadLog.flush"),
    Target("repro.storage.blockstore.BlockStore.append", height=1),
    Target("repro.storage.table.HeapTable.merge_pending_indexes"),
    Target("repro.analytics.columnstore.ColumnStore.on_block", height=2),
    Target("repro.analytics.columnstore.ColumnStore.ingest_block",
           height=2),
    Target("repro.analytics.operators.ColumnarScan.scan_rows"),
    Target("repro.analytics.operators.ColumnarAggregate.rows"),
)

SCHEDULE = "repro.common.events.EventScheduler.schedule"

#: Span names whose descendants are tagged, so a metric can ask for
#: "X below Y" (executions inside process_block, fence waits inside an
#: analytic query, victims a validator aborted).
INSIDE_BLOCK = 1
INSIDE_QUERY = 2
INSIDE_VALIDATE = 4
MARKERS = {"BlockProcessor.process_block": INSIDE_BLOCK,
           "BlockchainClient.query_as_of": INSIDE_QUERY,
           "AbortDuringCommitSSI.validate": INSIDE_VALIDATE,
           "BlockAwareSSI.validate": INSIDE_VALIDATE}


def _resolve(path: str):
    """``(owner, attribute name)`` for a dotted path, or ``None``."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def _subclasses(cls) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _layer_of_module(module: str) -> str:
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return DRIVER


class Stat:
    __slots__ = ("layer", "count", "total", "self_time", "errors")

    def __init__(self, layer: str):
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0


class Budget:
    """Aggregated spans of one measured phase."""

    def __init__(self, wall: float):
        self.wall = wall
        # (name, background?, inside mask) -> Stat
        self.stats: Dict[Tuple[str, bool, int], Stat] = {}
        # main-thread self time per layer; sums to ``wall``
        self.layer_self = {layer: 0.0 for layer in LAYERS + (DRIVER,)}
        self.per_node_block_time: Dict[str, float] = {}

    def _select(self, name: str, bg: Optional[bool], inside: int):
        for (n, b, mask), stat in self.stats.items():
            if n == name and (bg is None or b == bg) and \
                    mask & inside == inside:
                yield stat

    def count(self, name, bg=None, inside=0) -> int:
        return sum(s.count for s in self._select(name, bg, inside))

    def total(self, name, bg=None, inside=0) -> float:
        return sum(s.total for s in self._select(name, bg, inside))

    def self_time(self, name, bg=None, inside=0) -> float:
        return sum(s.self_time for s in self._select(name, bg, inside))

    def errors(self, name) -> int:
        return sum(s.errors for s in self._select(name, None, 0))

    def layer_self_inside(self, layer: str, inside: int) -> float:
        """Main-thread self time of ``layer`` below a marker span."""
        return sum(stat.self_time
                   for (_n, bg, mask), stat in self.stats.items()
                   if not bg and mask & inside and stat.layer == layer)


class Recorder:
    def __init__(self):
        self.on = False
        self.spans: List[tuple] = []
        self.names: List[Tuple[str, str]] = []      # id -> (name, layer)
        self._name_ids: Dict[str, int] = {}
        self._event_ids: Dict[Tuple[str, str], int] = {}
        self._tls = threading.local()
        self._ids = itertools.count()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.main_thread = threading.get_ident()
        self.missing: List[str] = []

    # -- names -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append((name, layer))
        return got

    def has(self, name: str) -> bool:
        """Was a target with this span name found and wrapped?"""
        return name in self._name_ids

    # -- wrapping ----------------------------------------------------------

    def _enter(self):
        """Open a span on the calling thread: ``(stack, frame)`` where
        ``frame`` is ``[span id, time in children, parent id]``."""
        try:
            stack = self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
        frame = [next(self._ids), 0.0, stack[-1][0] if stack else -1]
        stack.append(frame)
        return stack, frame

    def _leave(self, stack, frame, name_id, start, error, meta) -> None:
        end = time.perf_counter()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][1] += duration
        self.spans.append((frame[0], frame[2], name_id,
                           threading.get_ident(), start, end,
                           duration - frame[1], error) + meta)

    def _wrap(self, fn: Callable, name_id: int,
              target: Optional[Target]) -> Callable:
        rec = self
        clock = time.perf_counter
        enter = self._enter
        node_path = tuple(target.node.split(".")) \
            if target is not None and target.node else ()
        tx_at = target.tx if target is not None else None
        height_at = target.height if target is not None else None

        def meta(args, result):
            node = tx_id = height = None
            if node_path:
                node = args[0]
                for attr in node_path:
                    node = getattr(node, attr, None)
            if tx_at == "ret":
                tx_id = getattr(result, "tx_id", result)
            elif tx_at is not None and len(args) > tx_at:
                tx_id = getattr(args[tx_at], "tx_id", None)
            if height_at is not None and len(args) > height_at:
                height = getattr(args[height_at], "number",
                                 args[height_at])
            return (node if isinstance(node, str) else None,
                    tx_id if isinstance(tx_id, str) else None,
                    height if isinstance(height, int) else None)

        def leave(stack, frame, start, error, args, result):
            rec._leave(stack, frame, name_id, start, error,
                       meta(args, result))

        if inspect.isgeneratorfunction(fn):
            # One span per resumption: the time a generator spends
            # suspended belongs to whoever consumes it.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    if not rec.on:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        yield item
                        continue
                    stack, frame = enter()
                    start = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        leave(stack, frame, start, False, args, None)
                        return
                    except BaseException:
                        leave(stack, frame, start, True, args, None)
                        raise
                    leave(stack, frame, start, False, args, None)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            stack, frame = enter()
            result = None
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                leave(stack, frame, start, error, args, result)
        return wrapper

    def _rebind(self, owner, attr: str, name: str, target: Target) -> None:
        raw = owner.__dict__[attr] if inspect.isclass(owner) \
            else getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind else raw
        name_id = self._name_id(name, target.layer)
        wrapped = self._wrap(fn, name_id, target)
        replacement = kind(wrapped) if kind else wrapped
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        if not inspect.isclass(owner):
            # ``from module import fn`` copies: rebind every alias.
            for module in list(sys.modules.values()):
                if module is owner or module is None or \
                        not getattr(module, "__name__", "").startswith(
                            "repro."):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is raw:
                        self._undo.append((module, alias, raw))
                        setattr(module, alias, wrapped)

    def install(self) -> None:
        """Rebind every target.  Import the engine first: aliases are
        only found in modules that are already loaded."""
        for target in TARGETS:
            found = _resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attr = found
            if inspect.isclass(owner):
                owners = [owner] if attr in owner.__dict__ else []
                if target.subclasses:
                    owners += [sub for sub in _subclasses(owner)
                               if attr in sub.__dict__]
                for cls in owners:
                    self._rebind(cls, attr, f"{cls.__name__}.{attr}",
                                 target)
                if not owners:
                    self.missing.append(target.path)
            else:
                self._rebind(owner, attr, attr, target)
        found = _resolve(SCHEDULE)
        if found is None:
            self.missing.append(SCHEDULE)
            return
        owner, attr = found
        schedule = owner.__dict__[attr]
        event = self._event

        @functools.wraps(schedule)
        def traced_schedule(self_, delay, callback):
            return schedule(self_, delay, event(callback))
        self._undo.append((owner, attr, schedule))
        setattr(owner, attr, traced_schedule)

    def _event(self, callback: Callable) -> Callable:
        fn = callback
        while isinstance(fn, functools.partial):
            fn = fn.func
        key = (getattr(fn, "__module__", None) or "",
               getattr(fn, "__qualname__", type(fn).__name__))
        name_id = self._event_ids.get(key)
        if name_id is None:
            name_id = self._event_ids[key] = self._name_id(
                f"event:{key[0]}.{key[1]}", _layer_of_module(key[0]))
        return self._wrap(callback, name_id, None)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def measure(self):
        """Record everything the calling thread does inside the block
        under one ``driver.measure`` root span."""
        stack, frame = self._enter()
        self.on = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.on = False
            self._leave(stack, frame, self._name_id(ROOT_SPAN, DRIVER),
                        start, False, (None, None, None))

    # -- results -----------------------------------------------------------

    def budget(self) -> Budget:
        """Aggregate the recorded spans (parents always carry a smaller
        id than their children, so one pass in id order suffices)."""
        self.spans.sort()
        spans = self.spans
        root = next((s for s in spans if self.names[s[2]][0] == ROOT_SPAN),
                    None)
        budget = Budget(wall=(root[5] - root[4]) if root else 0.0)
        inside: Dict[int, int] = {}
        for (sid, parent, name_id, thread, start, end, self_time, error,
             node, _tx, _height) in spans:
            name, layer = self.names[name_id]
            mask = inside.get(parent, 0)
            inside[sid] = mask | MARKERS.get(name, 0)
            bg = thread != self.main_thread
            stat = budget.stats.get((name, bg, mask))
            if stat is None:
                stat = budget.stats[(name, bg, mask)] = Stat(layer)
            stat.count += 1
            stat.total += end - start
            stat.self_time += self_time
            stat.errors += bool(error)
            if not bg:
                budget.layer_self[layer] += self_time
            if name == "BlockProcessor.process_block" and node:
                budget.per_node_block_time[node] = \
                    budget.per_node_block_time.get(node, 0.0) + end - start
        return budget

    def write_jsonl(self, path) -> None:
        names = self.names
        main = self.main_thread
        self.spans.sort()
        with open(path, "w") as out:
            for (sid, parent, name_id, thread, start, end, self_time,
                 error, node, tx_id, height) in self.spans:
                name, layer = names[name_id]
                out.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "layer": layer,
                    "thread": "main" if thread == main else thread,
                    "start": start, "end": end, "self": self_time,
                    "error": error, "node": node, "tx_id": tx_id,
                    "height": height}) + "\n")
