"""Unified metrics model: counters, gauges and fixed-bucket histograms.

Every subsystem counter (WAL flush counts, transport fault-plan drops,
sync activity, columnstore maintenance, plan-cache hits) and the
per-statement SQL timings are objects registered here, named under one
``subsystem.metric`` convention and scoped by labels (``node=...`` for
per-node metrics on a process-wide registry).  The registry is the only
reader: components keep their metric objects private and expose no
attribute views or ``stats()`` dicts.

Two design rules keep the layer off the determinism path:

* metrics are **write-only** for the engine: nothing in planning,
  validation or commit ever reads a counter or histogram back, so the
  bytes a node produces (WAL, ledger, digests, EXPLAIN) are identical
  with the layer hot or cold (property-tested in
  ``tests/obs/test_trace_identity.py``);
* gauges may be **callbacks** evaluated only at snapshot/render time, so
  observing a queue depth costs nothing on the hot path.

Exports: :meth:`MetricsRegistry.snapshot` (plain JSON-able dict) and
:meth:`MetricsRegistry.render_prometheus` (text exposition format).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Default histogram buckets (seconds): micro-ops through multi-second
#: recovery replays.  Upper bounds are inclusive; overflow lands in +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: LabelItems) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in labels) + "}"


class Counter:
    """Monotone named counter.  Process-lifetime: survives node crash and
    restart (the object lives in the registry, not in the crashed state)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value: either explicitly ``set`` or computed by a
    callback at snapshot time (zero hot-path cost)."""

    __slots__ = ("name", "labels", "_value", "_fn")

    def __init__(self, name: str, labels: LabelItems = (),
                 fn: Optional[Callable[[], Any]] = None):
        self.name = name
        self.labels = labels
        self._value: Any = 0
        self._fn = fn

    def set(self, value: Any) -> None:
        self._value = value

    def set_fn(self, fn: Optional[Callable[[], Any]]) -> None:
        self._fn = fn

    @property
    def value(self) -> Any:
        if self._fn is not None:
            try:
                return self._fn()
            except Exception:   # a torn-down component must not break export
                return None
        return self._value


class Histogram:
    """Fixed-bucket histogram (cumulative, Prometheus-style).

    ``observe`` is O(len(buckets)) with one small lock — cheap enough for
    span recording, and *never* read back by the engine (timings must not
    feed into planning; see module docstring).
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    def __init__(self, name: str, labels: LabelItems = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, acc = self._count, self._sum
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative[repr(bound)] = running
        cumulative["+Inf"] = total
        return {"count": total, "sum": round(acc, 9),
                "buckets": cumulative}


class MetricsRegistry:
    """Process-wide metric store.

    One registry typically serves a whole :class:`BlockchainNetwork`,
    with each node registering its metrics under a ``node=<name>`` label
    through :meth:`scope`; components built standalone fall back to a
    private registry so tests stay isolated.  ``counter``/``gauge``/
    ``histogram`` are get-or-create: re-registering the same (name,
    labels) pair returns the existing object, which is what lets a node
    restart re-bind to its pre-crash counters instead of zeroing them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelItems], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelItems], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelItems], Histogram] = {}

    # -- registration ------------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        with self._lock:
            got = self._counters.get(key)
            if got is None:
                got = self._counters[key] = Counter(name, key[1])
            return got

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None,
              **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        with self._lock:
            got = self._gauges.get(key)
            if got is None:
                got = self._gauges[key] = Gauge(name, key[1], fn=fn)
            elif fn is not None:
                # Restart path: a re-created component re-binds its
                # callback (the old closure would read torn-down state).
                got.set_fn(fn)
            return got

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            got = self._histograms.get(key)
            if got is None:
                got = self._histograms[key] = Histogram(
                    name, key[1], buckets=buckets)
            return got

    def scope(self, **labels: Any) -> "MetricsScope":
        return MetricsScope(self, labels)

    # -- export ------------------------------------------------------------

    def snapshot(self, **label_filter: Any) -> Dict[str, Any]:
        """Plain-dict export of every metric (JSON-serializable).  With
        ``label_filter`` (e.g. ``node="peer0@org1"``) only metrics
        carrying all of those labels are included."""
        want = _label_key(label_filter)
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())

        def keep(labels: LabelItems) -> bool:
            return all(item in labels for item in want)

        out: Dict[str, Any] = {"counters": {}, "gauges": {},
                               "histograms": {}}
        for c in counters:
            if keep(c.labels):
                out["counters"][c.name + _label_suffix(c.labels)] = c.value
        for g in gauges:
            if keep(g.labels):
                out["gauges"][g.name + _label_suffix(g.labels)] = g.value
        for h in histograms:
            if keep(h.labels):
                out["histograms"][h.name + _label_suffix(h.labels)] = \
                    h.snapshot()
        return out

    def render_prometheus(self, **label_filter: Any) -> str:
        """Prometheus text exposition page (names sanitized ``a.b`` →
        ``a_b``; histograms emit cumulative ``_bucket``/``_sum``/
        ``_count`` series)."""
        want = _label_key(label_filter)

        def keep(labels: LabelItems) -> bool:
            return all(item in labels for item in want)

        def sanitize(name: str) -> str:
            return name.replace(".", "_").replace("-", "_")

        with self._lock:
            counters = sorted(self._counters.values(),
                              key=lambda m: (m.name, m.labels))
            gauges = sorted(self._gauges.values(),
                            key=lambda m: (m.name, m.labels))
            histograms = sorted(self._histograms.values(),
                                key=lambda m: (m.name, m.labels))
        lines: List[str] = []
        seen_types: set = set()

        def type_line(name: str, kind: str) -> None:
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {kind}")

        for c in counters:
            if not keep(c.labels):
                continue
            name = sanitize(c.name)
            type_line(name, "counter")
            lines.append(f"{name}{_label_suffix(c.labels)} {c.value}")
        for g in gauges:
            if not keep(g.labels):
                continue
            name = sanitize(g.name)
            value = g.value
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, (int, float)) or value is None:
                continue   # non-numeric gauges are snapshot-only
            type_line(name, "gauge")
            lines.append(f"{name}{_label_suffix(g.labels)} {value}")
        for h in histograms:
            if not keep(h.labels):
                continue
            name = sanitize(h.name)
            type_line(name, "histogram")
            snap = h.snapshot()
            base = dict(h.labels)
            for bound, cum in snap["buckets"].items():
                items = _label_key({**base, "le": bound})
                lines.append(f"{name}_bucket{_label_suffix(items)} {cum}")
            lines.append(
                f"{name}_sum{_label_suffix(h.labels)} {snap['sum']}")
            lines.append(
                f"{name}_count{_label_suffix(h.labels)} {snap['count']}")
        return "\n".join(lines) + ("\n" if lines else "")


class MetricsScope:
    """A registry view with base labels pre-applied (e.g. one node's
    ``node=<name>`` scope on the process-wide registry)."""

    __slots__ = ("registry", "labels")

    def __init__(self, registry: MetricsRegistry, labels: Dict[str, Any]):
        self.registry = registry
        self.labels = dict(labels)

    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **{**self.labels, **labels})

    def gauge(self, name: str, fn: Optional[Callable[[], Any]] = None,
              **labels: Any) -> Gauge:
        return self.registry.gauge(name, fn=fn,
                                   **{**self.labels, **labels})

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  **labels: Any) -> Histogram:
        return self.registry.histogram(name, buckets=buckets,
                                       **{**self.labels, **labels})

    def scope(self, **labels: Any) -> "MetricsScope":
        return MetricsScope(self.registry, {**self.labels, **labels})

    def snapshot(self) -> Dict[str, Any]:
        return self.registry.snapshot(**self.labels)

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus(**self.labels)


def private_scope(**labels: Any) -> MetricsScope:
    """A scope on a fresh private registry — the default for components
    constructed standalone (unit tests, ad-hoc :class:`Database`
    instances), keeping their counters isolated from everything else."""
    return MetricsRegistry().scope(**labels)
