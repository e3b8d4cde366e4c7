"""Block-aligned span tracer.

A :class:`Tracer` records named spans — wall-time intervals tagged with
labels such as ``height=12`` — for every pipeline stage: the ordered
commit loop, each leg of the block's finalization (apply/index fold,
columnstore ingest, digest fold, WAL flush), consensus rounds, sync
request/response cycles and recovery replay.  Finished spans land in two
places:

* a bounded ring buffer of structured span dicts (newest last), exported
  through ``DatabaseNode.observability()["trace"]``;
* a ``span.<name>`` histogram on the node's metrics scope, so the
  latency distribution survives after the ring has rotated.

Tracing is **observation only**.  When disabled (the default unless
``REPRO_TRACE=1``), ``span()`` yields a shared no-op and the hot path
pays one attribute check.  When enabled, the engine still never reads a
span or histogram back, which is what makes the traced and untraced
executions byte-identical (property-tested in
``tests/obs/test_trace_identity.py``).
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, Iterator, Optional

from contextlib import contextmanager

from .metrics import MetricsScope, private_scope


def trace_enabled_from_env() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0", "false", "no")


class _NoopSpan:
    __slots__ = ()

    def annotate(self, **labels: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: Dict[str, Any]):
        self.name = name
        self.labels = labels

    def annotate(self, **labels: Any) -> None:
        """Attach labels discovered mid-span (e.g. rows ingested)."""
        self.labels.update(labels)


class Tracer:
    """Per-node span recorder.

    ``enabled`` defaults from the ``REPRO_TRACE`` environment variable;
    tests flip it per-instance.  Recording is lock-protected, like the
    registry it feeds.
    """

    def __init__(self, metrics: Optional[MetricsScope] = None,
                 enabled: Optional[bool] = None, max_spans: int = 512):
        self.metrics = metrics if metrics is not None else private_scope()
        self.enabled = (trace_enabled_from_env()
                        if enabled is None else enabled)
        self.max_spans = max_spans
        self._spans: Deque[Dict[str, Any]] = deque(maxlen=max_spans)
        self._dropped = 0
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[Any]:
        if not self.enabled:
            yield _NOOP_SPAN
            return
        live = _Span(name, dict(labels))
        start = time.perf_counter()
        try:
            yield live
        finally:
            self.record(name, time.perf_counter() - start, **live.labels)

    def record(self, name: str, seconds: float, **labels: Any) -> None:
        """Record an externally timed span (e.g. a sync request/response
        cycle measured in simulated time)."""
        if not self.enabled:
            return
        self.metrics.histogram("span." + name).observe(seconds)
        entry = {"name": name, "ms": round(seconds * 1000.0, 6)}
        entry.update(labels)
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self._dropped += 1
            self._spans.append(entry)

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            spans = list(self._spans)
            dropped = self._dropped
        by_name: Dict[str, int] = {}
        for s in spans:
            by_name[s["name"]] = by_name.get(s["name"], 0) + 1
        return {"enabled": self.enabled, "spans": spans,
                "span_counts": by_name, "dropped": dropped}

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._dropped = 0
