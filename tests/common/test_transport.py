"""Simulated network: latency, FIFO links, partitions, crashes, and the
seeded fault-injection plan."""

import pytest

from repro.common.events import EventScheduler
from repro.net.transport import (
    CHAOS_PROFILES,
    FaultPlan,
    INSTANT,
    LAN,
    LatencyModel,
    LinkFaults,
    SimNetwork,
    WAN,
    make_chaos_plan,
)
from tests.conftest import counter


@pytest.fixture
def net():
    scheduler = EventScheduler()
    network = SimNetwork(scheduler, default_latency=LAN, seed=1)
    return scheduler, network


class TestDelivery:
    def test_basic_delivery(self, net):
        scheduler, network = net
        received = []
        network.register("b", lambda src, msg: received.append((src, msg)))
        network.send("a", "b", ("ping", 1))
        scheduler.run_until_idle()
        assert received == [("a", ("ping", 1))]

    def test_fifo_per_link(self, net):
        scheduler, network = net
        received = []
        network.register("b", lambda src, msg: received.append(msg[1]))
        for i in range(20):
            network.send("a", "b", ("seq", i))
        scheduler.run_until_idle()
        assert received == list(range(20))

    def test_latency_positive_and_size_dependent(self):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=WAN, seed=2)
        arrivals = []
        network.register("b", lambda src, msg: arrivals.append(
            scheduler.now))
        network.send("a", "b", ("small", None), size_bytes=100)
        scheduler.run_until_idle()
        small_time = arrivals[-1]
        assert small_time >= 0.03  # WAN one-way latency
        network2 = SimNetwork(EventScheduler(), default_latency=WAN,
                              seed=2)
        big_delay = WAN.delay_for(10_000_000, network2._rng)
        assert big_delay > small_time  # bandwidth term kicks in

    def test_broadcast_excludes_sender(self, net):
        scheduler, network = net
        log = []
        for name in ("a", "b", "c"):
            network.register(name,
                             lambda src, msg, n=name: log.append(n))
        network.broadcast("a", ("hello", None))
        scheduler.run_until_idle()
        assert sorted(log) == ["b", "c"]

    def test_per_link_override(self, net):
        scheduler, network = net
        network.set_link("a", "b", INSTANT)
        times = []
        network.register("b", lambda src, msg: times.append(scheduler.now))
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert times[0] < 0.001


class TestFaults:
    def test_partition_drops_both_directions(self, net):
        scheduler, network = net
        received = []
        network.register("a", lambda src, msg: received.append("a"))
        network.register("b", lambda src, msg: received.append("b"))
        network.partition("a", "b")
        network.send("a", "b", ("x", None))
        network.send("b", "a", ("y", None))
        scheduler.run_until_idle()
        assert received == []
        network.heal("a", "b")
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert received == ["b"]

    def test_down_node_neither_sends_nor_receives(self, net):
        scheduler, network = net
        received = []
        network.register("b", lambda src, msg: received.append(msg))
        network.take_down("a")
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert received == []
        network.bring_up("a")
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert len(received) == 1

    def test_message_in_flight_to_crashing_node_dropped(self, net):
        scheduler, network = net
        received = []
        network.register("b", lambda src, msg: received.append(msg))
        network.send("a", "b", ("x", None))
        network.take_down("b")  # crashes before delivery
        scheduler.run_until_idle()
        assert received == []

    def test_stats_counted(self, net):
        scheduler, network = net
        network.register("b", lambda src, msg: None)
        network.send("a", "b", ("x", None), size_bytes=512)
        assert counter(network, "transport.messages_sent") == 1
        assert counter(network, "transport.bytes_sent") == 512


def _run_traffic(plan, net_seed=11, rounds=40):
    """Drive a fixed message schedule through a fresh network and return
    the full delivery trace plus fault counters."""
    scheduler = EventScheduler()
    network = SimNetwork(scheduler, default_latency=LAN, seed=net_seed)
    network.set_fault_plan(plan)
    trace = []
    for name in ("a", "b", "c"):
        network.register(
            name,
            lambda src, msg, n=name: trace.append(
                (round(scheduler.now, 9), src, n, msg)))
    for i in range(rounds):
        # Stagger sends in simulated time so the schedule exercises the
        # link clocks, not just a single burst.
        scheduler.schedule(i * 0.001, lambda i=i: network.send(
            "a", "b", ("seq", i), size_bytes=200))
        scheduler.schedule(i * 0.001, lambda i=i: network.send(
            "b", "c", ("rev", i), size_bytes=200))
    scheduler.run_until_idle()
    return (trace, counter(network, "transport.messages_dropped"),
            counter(network, "transport.messages_duplicated"))


class TestFaultPlan:
    def test_same_seed_replays_identically(self):
        faults = LinkFaults(drop=0.2, duplicate=0.2, delay_multiplier=1.5,
                            reorder_window=0.0004)
        runs = [_run_traffic(FaultPlan(seed=5, default=faults))
                for _ in range(2)]
        assert runs[0] == runs[1]
        trace, dropped, duplicated = runs[0]
        assert dropped > 0 and duplicated > 0

    def test_different_seed_differs(self):
        faults = LinkFaults(drop=0.2, duplicate=0.2,
                            reorder_window=0.0004)
        one = _run_traffic(FaultPlan(seed=5, default=faults))
        other = _run_traffic(FaultPlan(seed=6, default=faults))
        assert one != other

    def test_noop_plan_is_byte_identical_to_no_plan(self):
        """The plan RNG must never perturb the base latency stream."""
        bare = _run_traffic(None)
        noop = _run_traffic(FaultPlan(seed=99, default=LinkFaults()))
        assert bare == noop
        assert noop[1] == 0 and noop[2] == 0

    def test_drops_are_counted_and_lost(self):
        trace, dropped, _ = _run_traffic(
            FaultPlan(seed=3, default=LinkFaults(drop=1.0)))
        assert trace == []
        assert dropped == 80

    def test_duplicates_deliver_twice_and_trail(self):
        trace, _, duplicated = _run_traffic(
            FaultPlan(seed=3, default=LinkFaults(duplicate=1.0)),
            rounds=10)
        assert duplicated == 20
        assert len(trace) == 40  # every message delivered twice
        by_payload = {}
        for when, src, dst, msg in trace:
            by_payload.setdefault((src, dst, msg), []).append(when)
        for arrivals in by_payload.values():
            assert len(arrivals) == 2
            assert arrivals[1] > arrivals[0]  # echo trails the original

    def test_delay_multiplier_slows_delivery(self):
        fast, _, _ = _run_traffic(None, rounds=5)
        slow, _, _ = _run_traffic(
            FaultPlan(seed=3, default=LinkFaults(delay_multiplier=4.0)),
            rounds=5)
        assert len(fast) == len(slow)
        fast_times = sorted(t for t, *_ in fast)
        slow_times = sorted(t for t, *_ in slow)
        assert all(s >= f for f, s in zip(fast_times, slow_times))
        assert sum(slow_times) > sum(fast_times)

    def test_reorder_bounded_by_window(self):
        """Messages spaced further apart than the reorder window can never
        swap; messages inside the window may, but all still arrive."""
        window = 0.0004
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT, seed=1)
        network.set_fault_plan(FaultPlan(
            seed=8, default=LinkFaults(reorder_window=window)))
        received = []
        network.register("b", lambda src, msg: received.append(msg[1]))
        spacing = 10 * window
        for i in range(30):
            scheduler.schedule(i * spacing,
                               lambda i=i: network.send("a", "b",
                                                        ("seq", i)))
        scheduler.run_until_idle()
        assert received == list(range(30))

    def test_reorder_can_swap_within_window(self):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=INSTANT, seed=1)
        network.set_fault_plan(FaultPlan(
            seed=8, default=LinkFaults(reorder_window=0.01)))
        received = []
        network.register("b", lambda src, msg: received.append(msg[1]))
        for i in range(30):   # one burst: FIFO times ~identical
            network.send("a", "b", ("seq", i))
        scheduler.run_until_idle()
        assert sorted(received) == list(range(30))  # nothing lost
        assert received != list(range(30))          # but order shuffled

    def test_per_link_overrides(self):
        plan = FaultPlan(seed=2)
        plan.set_link("a", "b", LinkFaults(drop=1.0))
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=LAN, seed=1)
        network.set_fault_plan(plan)
        got = []
        network.register("b", lambda src, msg: got.append(("b", msg)))
        network.register("c", lambda src, msg: got.append(("c", msg)))
        network.send("a", "b", ("x", None))
        network.send("a", "c", ("y", None))
        scheduler.run_until_idle()
        assert got == [("c", ("y", None))]
        assert counter(network, "transport.messages_dropped") == 1

    def test_make_chaos_plan(self):
        assert make_chaos_plan("") is None
        assert make_chaos_plan("off") is None
        assert make_chaos_plan("none") is None
        for profile in CHAOS_PROFILES:
            plan = make_chaos_plan(profile, seed=4)
            assert isinstance(plan, FaultPlan)
            assert plan.default == CHAOS_PROFILES[profile]
            assert plan.seed == 4
        with pytest.raises(ValueError, match="unknown chaos profile"):
            make_chaos_plan("tornado")

    def test_low_profile_never_drops(self):
        """The CI soak profile must keep every message flowing."""
        assert CHAOS_PROFILES["low"].drop == 0.0
        trace, dropped, _ = _run_traffic(make_chaos_plan("low", seed=1))
        assert dropped == 0
        assert len({(s, d, m) for _, s, d, m in trace}) == 80

    def test_heal_all_clears_partitions(self):
        scheduler = EventScheduler()
        network = SimNetwork(scheduler, default_latency=LAN, seed=1)
        received = []
        network.register("b", lambda src, msg: received.append(msg))
        network.partition("a", "b")
        network.partition("a", "c")
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert received == []
        network.heal_all()
        network.send("a", "b", ("x", None))
        scheduler.run_until_idle()
        assert len(received) == 1
