"""Focused unit tests for the usage monitor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import Host, Link, Platform
from repro.simulation import Simulator, UsageMonitor, category_metric
from repro.trace import CAPACITY, USAGE


def platform():
    p = Platform()
    p.add_host(Host("a", 100.0))
    p.add_host(Host("b", 100.0))
    p.add_link(Link("l", 1000.0), "a", "b")
    return p


class TestCategoryMetric:
    def test_naming(self):
        assert category_metric("") == USAGE
        assert category_metric("app1") == "usage_app1"


class TestMonitorMechanics:
    def test_categories_collected(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx, cat):
            yield ctx.execute(50.0, category=cat)

        sim.spawn(job, "a", None, "x")
        sim.spawn(job, "b", None, "y")
        sim.run()
        assert monitor.categories() == ["x", "y"]

    def test_mixed_categories_on_one_host(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx, cat, flops):
            yield ctx.execute(flops, category=cat)

        sim.spawn(job, "a", None, "x", 100.0)
        sim.spawn(job, "a", None, "y", 100.0)
        end = sim.run()
        trace = monitor.build_trace()
        a = trace.entity("a")
        # While both run, each category gets half the host.
        assert a.signal("usage_x")(0.5) == pytest.approx(50.0)
        assert a.signal("usage_y")(0.5) == pytest.approx(50.0)
        assert a.signal(USAGE)(0.5) == pytest.approx(100.0)
        # Work split per category is exact.
        assert a.signal("usage_x").integrate(0.0, end) == pytest.approx(100.0)
        assert a.signal("usage_y").integrate(0.0, end) == pytest.approx(100.0)

    def test_uncategorized_work_only_in_total(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(10.0)

        sim.spawn(job, "a")
        sim.run()
        trace = monitor.build_trace()
        assert trace.entity("a").signal(USAGE)(0.05) == pytest.approx(100.0)
        assert monitor.categories() == []

    def test_idle_resources_have_no_usage_signal(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(10.0)

        sim.spawn(job, "a")
        sim.run()
        trace = monitor.build_trace()
        # Host b never ran anything: no usage metric recorded at all.
        assert USAGE not in trace.entity("b").metrics
        # Its capacity is still declared.
        assert trace.entity("b").signal(CAPACITY)(0.0) == 100.0

    def test_trace_meta_end_time(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.sleep(7.5)

        sim.spawn(job, "a")
        sim.run()
        assert monitor.build_trace().meta["end_time"] == pytest.approx(7.5)

    def test_build_trace_is_repeatable(self):
        p = platform()
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(100.0)

        sim.spawn(job, "a")
        sim.run()
        t1 = monitor.build_trace()
        t2 = monitor.build_trace()
        assert len(t1) == len(t2)
        assert t1.entity("a").signal(USAGE) == t2.entity("a").signal(USAGE)

    def test_monitorless_simulation_still_runs(self):
        p = platform()
        sim = Simulator(p)

        def job(ctx):
            yield ctx.execute(100.0)

        sim.spawn(job, "a")
        assert sim.run() == pytest.approx(1.0)


class RewriteEveryLink(UsageMonitor):
    """Oracle: re-set every link ever seen on every network settle."""

    def update_links(self, now, rates):
        for link in self._links:
            if link not in rates:
                self._update(self._links, now, link, {})
        for link, by_category in rates.items():
            self._update(self._links, now, link, by_category)


# Per-category rates from a small pool: repeats are the common case,
# and 0.1 + 0.2 + 0.3 depends on the summation order in the last bit.
LINK_RATES = st.dictionaries(
    st.sampled_from(["", "x", "y", "z"]),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 5.0]),
    min_size=1,
)
SETTLES = st.lists(
    st.dictionaries(st.sampled_from(["l0", "l1", "l2"]), LINK_RATES),
    max_size=25,
)


def _link_signals(monitor):
    return {
        (link, category): builder.build()
        for link, builders in monitor._links.items()
        for category, builder in builders.items()
    }


class TestLinkUpdateSkipping:
    """``update_links`` skips links whose items did not change, and the
    signals it records are exactly those of re-setting every link."""

    @settings(max_examples=300, deadline=None)
    @given(settles=SETTLES, same_time=st.booleans())
    def test_matches_rewriting_every_link(self, settles, same_time):
        fast, oracle = UsageMonitor(platform()), RewriteEveryLink(platform())
        for step, rates in enumerate(settles):
            now = float(step // 2 if same_time else step)
            fast.update_links(now, rates)
            oracle.update_links(now, rates)
        assert list(fast._links) == list(oracle._links)
        assert _link_signals(fast) == _link_signals(oracle)

    def test_reordered_items_are_recorded(self):
        monitor = UsageMonitor(platform())
        monitor.update_links(0.0, {"l": {"a": 0.1, "b": 0.2, "c": 0.3}})
        monitor.update_links(1.0, {"l": {"c": 0.3, "b": 0.2, "a": 0.1}})
        total = monitor._links["l"][""].build()
        assert total.times == (0.0, 1.0)
        assert total.values == ((0.1 + 0.2) + 0.3, (0.3 + 0.2) + 0.1)


class TestMessagePayloadSchema:
    """The message PointEvent payload is a pinned contract.

    Downstream consumers — the timeline's arrows, the backward-replay
    critical path, the communication-matrix derivation — index into
    this payload by key, so its shape is part of the monitor's API:
    exactly ``UsageMonitor.MESSAGE_PAYLOAD_KEYS``.
    """

    def delivered_message_event(self):
        p = platform()
        monitor = UsageMonitor(p, record_messages=True)
        sim = Simulator(p, monitor)

        def sender(ctx):
            yield ctx.sleep(0.25)
            yield ctx.send("b", 100.0, "m", category="app1")

        def receiver(ctx):
            yield ctx.recv("m")

        sim.spawn(sender, "a")
        sim.spawn(receiver, "b")
        sim.run()
        (event,) = monitor.build_trace().events_of_kind("message")
        return event

    def test_payload_keys_pinned(self):
        event = self.delivered_message_event()
        assert UsageMonitor.MESSAGE_PAYLOAD_KEYS == (
            "size", "mailbox", "sent_at", "category", "latency"
        )
        assert tuple(event.payload) == UsageMonitor.MESSAGE_PAYLOAD_KEYS

    def test_category_and_latency_values(self):
        event = self.delivered_message_event()
        assert event.payload["category"] == "app1"
        assert event.payload["size"] == 100.0
        assert event.payload["mailbox"] == "m"
        assert event.payload["sent_at"] == pytest.approx(0.25)
        assert event.payload["latency"] == pytest.approx(
            event.time - event.payload["sent_at"]
        )
        assert event.payload["latency"] > 0.0
