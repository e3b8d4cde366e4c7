"""Simulated network transport.

All inter-node communication (transaction forwarding, consensus messages,
block delivery) flows through a :class:`SimNetwork` attached to the
discrete-event scheduler.  Latency models reproduce the paper's two
deployments (section 5): a single-cloud LAN (5 Gbps, sub-millisecond RTT)
and a four-continent multi-cloud WAN (50-60 Mbps, ~100 ms latencies).

Determinism: delivery delays come from a seeded RNG, and messages between
the same pair of nodes are delivered FIFO (a later message never overtakes
an earlier one on the same link).

Fault injection (:class:`FaultPlan`): per-link message drops, duplicates,
delay multipliers and bounded reorder windows, all drawn from the plan's
*own* seeded RNG.  Two properties follow from that split:

* a run with a fault plan installed replays exactly under the same seed
  (chaos schedules are reproducible bug for bug);
* the base latency RNG stream is consumed identically whether or not a
  plan is installed, so a run with no plan — or an all-noop plan — is
  byte-identical to a build without the fault layer at all.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.common.events import EventScheduler
from repro.obs.metrics import MetricsScope, private_scope


@dataclass(frozen=True)
class LatencyModel:
    """Point-to-point latency/bandwidth parameters."""

    base_latency: float           # one-way propagation delay (seconds)
    jitter: float                 # +/- uniform jitter fraction of base
    bandwidth_bytes_per_sec: float

    def delay_for(self, size_bytes: int, rng: random.Random) -> float:
        transmission = size_bytes / self.bandwidth_bytes_per_sec
        jitter = self.base_latency * self.jitter * (2 * rng.random() - 1)
        return max(1e-6, self.base_latency + jitter + transmission)


#: Single-cloud deployment: 5 Gbps, ~0.2 ms one-way.
LAN = LatencyModel(base_latency=0.0002, jitter=0.25,
                   bandwidth_bytes_per_sec=5e9 / 8)

#: Multi-cloud deployment: 50-60 Mbps, ~50 ms one-way (section 5: four
#: data centers across four continents; latency rose by ~100 ms round trip).
WAN = LatencyModel(base_latency=0.050, jitter=0.20,
                   bandwidth_bytes_per_sec=55e6 / 8)

#: Zero-delay model for pure-logic tests.
INSTANT = LatencyModel(base_latency=1e-6, jitter=0.0,
                       bandwidth_bytes_per_sec=1e12)

Message = Tuple[str, Any]  # (kind, payload)
Handler = Callable[[str, Message], None]  # (sender, message)


@dataclass(frozen=True)
class LinkFaults:
    """Fault parameters for one directed link (or the plan default)."""

    drop: float = 0.0             # P(message silently lost on the wire)
    duplicate: float = 0.0        # P(a second copy is also delivered)
    delay_multiplier: float = 1.0  # scales the sampled delivery delay
    reorder_window: float = 0.0   # extra uniform delay in [0, w] seconds,
    #                               exempt from the FIFO clamp: messages
    #                               whose FIFO times are within ``w`` of
    #                               each other may swap; nothing can be
    #                               reordered past that bound.

    def is_noop(self) -> bool:
        return (self.drop <= 0.0 and self.duplicate <= 0.0
                and self.delay_multiplier == 1.0
                and self.reorder_window <= 0.0)


class FaultPlan:
    """A seeded, replayable schedule of link faults.

    Every fault decision (drop? duplicate? how much extra delay?) comes
    from the plan's private RNG, in send order — so the same seed over
    the same message sequence injects the exact same faults, and the
    transport's latency RNG stream is never perturbed.
    """

    def __init__(self, seed: int = 0,
                 default: LinkFaults = LinkFaults(),
                 links: Optional[Dict[Tuple[str, str], LinkFaults]] = None):
        self.seed = seed
        self.default = default
        self.links: Dict[Tuple[str, str], LinkFaults] = dict(links or {})
        self._rng = random.Random(seed)

    def set_link(self, src: str, dst: str, faults: LinkFaults) -> None:
        self.links[(src, dst)] = faults

    def faults_for(self, src: str, dst: str) -> LinkFaults:
        return self.links.get((src, dst), self.default)

    # -- decision draws (send order == replay order) --------------------

    def should_drop(self, faults: LinkFaults) -> bool:
        return faults.drop > 0.0 and self._rng.random() < faults.drop

    def should_duplicate(self, faults: LinkFaults) -> bool:
        return faults.duplicate > 0.0 and \
            self._rng.random() < faults.duplicate

    def reorder_delay(self, faults: LinkFaults) -> float:
        if faults.reorder_window <= 0.0:
            return 0.0
        return self._rng.uniform(0.0, faults.reorder_window)


#: Named profiles for ``REPRO_CHAOS_PLAN`` / CI soak runs.  ``low`` keeps
#: every message flowing (no drops) but duplicates, slows and mildly
#: reorders traffic — safe for the full tier-1 suite, whose byte-identity
#: gates must keep holding under it.
CHAOS_PROFILES: Dict[str, LinkFaults] = {
    "low": LinkFaults(duplicate=0.05, delay_multiplier=1.25,
                      reorder_window=0.0005),
    "heavy": LinkFaults(drop=0.15, duplicate=0.10, delay_multiplier=2.0,
                        reorder_window=0.002),
}


def make_chaos_plan(profile: str, seed: int = 0) -> Optional[FaultPlan]:
    """Build a :class:`FaultPlan` from a named profile (or ``off``)."""
    name = (profile or "").strip().lower()
    if name in ("", "off", "none", "0"):
        return None
    if name not in CHAOS_PROFILES:
        raise ValueError(f"unknown chaos profile {profile!r}; "
                         f"choose from {sorted(CHAOS_PROFILES)} or 'off'")
    return FaultPlan(seed=seed, default=CHAOS_PROFILES[name])


class SimNetwork:
    """A message bus between named nodes with per-link latency."""

    def __init__(self, scheduler: EventScheduler,
                 default_latency: LatencyModel = LAN, seed: int = 7,
                 metrics: Optional["MetricsScope"] = None):
        self.scheduler = scheduler
        self.default_latency = default_latency
        self._handlers: Dict[str, Handler] = {}
        self._links: Dict[Tuple[str, str], LatencyModel] = {}
        self._rng = random.Random(seed)
        self._partitioned: set = set()
        self._down: set = set()
        # FIFO guarantee: next earliest delivery time per (src, dst)
        self._link_clock: Dict[Tuple[str, str], float] = {}
        self.fault_plan: Optional[FaultPlan] = None
        # Traffic counters on the unified registry.
        self.metrics = metrics if metrics is not None else private_scope()
        self._messages_sent = self.metrics.counter("transport.messages_sent")
        self._bytes_sent = self.metrics.counter("transport.bytes_sent")
        self._messages_dropped = self.metrics.counter(
            "transport.messages_dropped")
        self._messages_duplicated = self.metrics.counter(
            "transport.messages_duplicated")

    # ------------------------------------------------------------------

    def register(self, name: str, handler: Handler) -> None:
        self._handlers[name] = handler

    def unregister(self, name: str) -> None:
        self._handlers.pop(name, None)

    def is_registered(self, name: str) -> bool:
        return name in self._handlers

    def set_link(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override latency for one directed link."""
        self._links[(src, dst)] = model

    # -- fault injection -------------------------------------------------

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear, with ``None``) a seeded fault plan."""
        self.fault_plan = plan

    def clear_fault_plan(self) -> None:
        self.fault_plan = None

    def partition(self, a: str, b: str) -> None:
        """Drop all traffic between ``a`` and ``b`` (both directions)."""
        self._partitioned.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitioned.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._partitioned.clear()

    def take_down(self, name: str) -> None:
        """Crash a node: it neither sends nor receives."""
        self._down.add(name)

    def bring_up(self, name: str) -> None:
        self._down.discard(name)

    def is_down(self, name: str) -> bool:
        return name in self._down

    # ------------------------------------------------------------------

    def send(self, src: str, dst: str, message: Message,
             size_bytes: int = 256) -> None:
        """Deliver ``message`` from ``src`` to ``dst`` after simulated
        latency.  Silently dropped when either end is down/partitioned
        (like a TCP connection reset), or when the installed fault plan
        loses it on the wire."""
        if src in self._down or dst in self._down:
            return
        if frozenset((src, dst)) in self._partitioned:
            return
        model = self._links.get((src, dst), self.default_latency)
        # Always draw the base delay first so the latency RNG stream is
        # identical with and without a fault plan installed.
        delay = model.delay_for(size_bytes, self._rng)
        plan = self.fault_plan
        faults = plan.faults_for(src, dst) if plan is not None else None
        if faults is not None and faults.is_noop():
            faults = None
        copies = 1
        self._messages_sent.inc()
        self._bytes_sent.inc(size_bytes)
        if faults is not None:
            if plan.should_drop(faults):
                self._messages_dropped.inc()
                return
            delay *= faults.delay_multiplier
            if plan.should_duplicate(faults):
                self._messages_duplicated.inc()
                copies = 2
        # FIFO per link: never deliver before an earlier message.  A
        # reorder window adds extra delay *after* the clamp, so later
        # messages may overtake this one only within the window bound.
        link = (src, dst)
        fifo_at = max(self.scheduler.now + delay,
                      self._link_clock.get(link, 0.0))
        self._link_clock[link] = fifo_at + 1e-9

        def _deliver():
            if dst in self._down:
                return
            handler = self._handlers.get(dst)
            if handler is not None:
                handler(src, message)

        for copy in range(copies):
            deliver_at = fifo_at
            if faults is not None:
                deliver_at += plan.reorder_delay(faults)
                if copy > 0:
                    # The duplicate trails its original by up to one
                    # extra delay (a retransmission echo).
                    deliver_at += delay * (1.0 + plan._rng.random())
            self.scheduler.schedule_at(deliver_at, _deliver)

    def broadcast(self, src: str, message: Message,
                  size_bytes: int = 256,
                  exclude: Optional[set] = None) -> None:
        """Send ``message`` to every registered node except ``src``."""
        exclude = exclude or set()
        for name in sorted(self._handlers):
            if name != src and name not in exclude:
                self.send(src, name, message, size_bytes)
