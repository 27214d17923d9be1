"""Tests for time-varying resource availability (Fig. 1's varying
"available computing power" and "available bandwidth")."""

import pytest

from repro.errors import PlatformError
from repro.platform import Host, Link, LinkSharing, Platform, Router
from repro.simulation import Simulator, UsageMonitor
from repro.trace import CAPACITY, USAGE, Signal


def platform_with(host_avail=None, link_avail=None, power=100.0, bw=1000.0):
    p = Platform()
    p.add_host(Host("a", power, availability=host_avail))
    p.add_host(Host("b", power))
    p.add_link(Link("l", bw, availability=link_avail), "a", "b")
    return p


class TestModel:
    def test_negative_availability_rejected(self):
        bad = Signal([0.0], [-0.5])
        with pytest.raises(PlatformError):
            Host("h", 1.0, availability=bad)
        with pytest.raises(PlatformError):
            Link("l", 1.0, availability=bad)

    def test_power_at_follows_profile(self):
        profile = Signal([0.0, 10.0], [1.0, 0.25])
        host = Host("h", 100.0, availability=profile)
        assert host.power_at(5.0) == 100.0
        assert host.power_at(15.0) == 25.0

    def test_bandwidth_at(self):
        link = Link("l", 1000.0, availability=Signal([5.0], [0.5], initial=1.0))
        assert link.bandwidth_at(0.0) == 1000.0
        assert link.bandwidth_at(6.0) == 500.0

    def test_next_change(self):
        host = Host("h", 1.0, availability=Signal([2.0, 8.0], [0.5, 1.0]))
        assert host.next_availability_change(0.0) == 2.0
        assert host.next_availability_change(2.0) == 8.0
        assert host.next_availability_change(9.0) is None
        assert Host("x", 1.0).next_availability_change(0.0) is None


class TestWakeupIndex:
    """Settles visit only resources whose profile has a breakpoint."""

    def test_unprofiled_platform_never_asks(self, monkeypatch):
        def refuse(self, time):
            raise AssertionError(f"{self.name} asked for its next change")

        monkeypatch.setattr(Host, "next_availability_change", refuse)
        monkeypatch.setattr(Link, "next_availability_change", refuse)
        p = platform_with(host_avail=Signal((), (), initial=0.5))
        sim = Simulator(p)

        def job(ctx):
            yield ctx.send("b", 500.0, "in")
            yield ctx.execute(100.0)

        def sink(ctx):
            yield ctx.recv("in")

        sim.spawn(job, "a")
        sim.spawn(sink, "b")
        # 500 bytes at 1000 B/s, then 100 flops at half of 100 flops/s.
        assert sim.run() == pytest.approx(2.5)

    def test_only_profiled_resources_are_asked(self, monkeypatch):
        asked = []
        for cls in (Host, Link):
            original = cls.next_availability_change

            def spy(self, time, original=original):
                asked.append(self.name)
                return original(self, time)

            monkeypatch.setattr(cls, "next_availability_change", spy)
        p = platform_with(link_avail=Signal([0.2], [0.5], initial=1.0))
        sim = Simulator(p)

        def job(ctx):
            yield ctx.execute(10.0)
            yield ctx.send("b", 500.0, "in")

        def sink(ctx):
            yield ctx.recv("in")

        sim.spawn(job, "a")
        sim.spawn(sink, "b")
        # 0.1 s of compute; 100 bytes by the 0.2 s breakpoint, then the
        # remaining 400 at 500 B/s.
        assert sim.run() == pytest.approx(1.0)
        assert asked and set(asked) == {"l"}


class TestComputeUnderAvailability:
    def test_compute_slows_when_power_drops(self):
        # 100 flops/s for 5s, then 25 flops/s: 1000 flops takes
        # 5s * 100 + remaining 500 at 25 -> 5 + 20 = 25s.
        profile = Signal([0.0, 5.0], [1.0, 0.25])
        p = platform_with(host_avail=profile)
        sim = Simulator(p)

        def job(ctx):
            yield ctx.execute(1000.0)

        sim.spawn(job, "a")
        assert sim.run() == pytest.approx(25.0)

    def test_compute_stalls_at_zero_availability(self):
        # Power off during [2, 6]: 400 flops at 100 f/s = 4s of work,
        # interrupted for 4s -> finishes at 8.
        profile = Signal([0.0, 2.0, 6.0], [1.0, 0.0, 1.0])
        p = platform_with(host_avail=profile)
        sim = Simulator(p)

        def job(ctx):
            yield ctx.execute(400.0)

        sim.spawn(job, "a")
        assert sim.run() == pytest.approx(8.0)

    def test_unaffected_host_runs_normally(self):
        profile = Signal([0.0, 1.0], [1.0, 0.1])
        p = platform_with(host_avail=profile)
        sim = Simulator(p)
        ends = {}

        def job(ctx, name):
            yield ctx.execute(500.0)
            ends[name] = ctx.now

        sim.spawn(job, "a", None, "slowed")
        sim.spawn(job, "b", None, "normal")
        sim.run()
        assert ends["normal"] == pytest.approx(5.0)
        assert ends["slowed"] > 5.0


class TestTransfersUnderAvailability:
    def test_transfer_slows_when_bandwidth_drops(self):
        # 1000 B/s for 2s, then 250 B/s: 3000 B -> 2000 B in 2s,
        # remaining 1000 at 250 -> 2 + 4 = 6s.
        profile = Signal([0.0, 2.0], [1.0, 0.25])
        p = platform_with(link_avail=profile)
        sim = Simulator(p)
        done = []

        def sender(ctx):
            yield ctx.send("b", 3000.0, "m")

        def receiver(ctx):
            yield ctx.recv("m")
            done.append(ctx.now)

        sim.spawn(sender, "a")
        sim.spawn(receiver, "b")
        sim.run()
        assert done == [pytest.approx(6.0)]

    def test_transfer_survives_outage(self):
        # Link dead during [1, 3]: 2000 B at 1000 B/s = 2s of transfer
        # split around a 2s outage -> completes at 4.
        profile = Signal([0.0, 1.0, 3.0], [1.0, 0.0, 1.0])
        p = platform_with(link_avail=profile)
        sim = Simulator(p)
        done = []

        def sender(ctx):
            yield ctx.send("b", 2000.0, "m")

        def receiver(ctx):
            yield ctx.recv("m")
            done.append(ctx.now)

        sim.spawn(sender, "a")
        sim.spawn(receiver, "b")
        sim.run()
        assert done == [pytest.approx(4.0)]

    def test_fatpipe_availability_bounds_flow(self):
        p = Platform()
        p.add_host(Host("a", 1.0))
        p.add_host(Host("b", 1.0))
        p.add_link(
            Link(
                "fat",
                1000.0,
                sharing=LinkSharing.FATPIPE,
                availability=Signal([0.0, 1.0], [1.0, 0.5]),
            ),
            "a",
            "b",
        )
        sim = Simulator(p)
        done = []

        def sender(ctx):
            yield ctx.send("b", 1500.0, "m")

        def receiver(ctx):
            yield ctx.recv("m")
            done.append(ctx.now)

        sim.spawn(sender, "a")
        sim.spawn(receiver, "b")
        sim.run()
        # 1000 B in the first second, then 500 B at 500 B/s -> t=2.
        assert done == [pytest.approx(2.0)]


class TestMonitoringUnderAvailability:
    def test_capacity_signal_tracks_availability(self):
        profile = Signal([0.0, 5.0], [1.0, 0.25])
        p = platform_with(host_avail=profile)
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(1000.0)

        sim.spawn(job, "a")
        sim.run()
        trace = monitor.build_trace()
        capacity = trace.entity("a").signal(CAPACITY)
        assert capacity(2.0) == pytest.approx(100.0)
        assert capacity(10.0) == pytest.approx(25.0)
        # usage tracks the degraded rate too
        usage = trace.entity("a").signal(USAGE)
        assert usage(2.0) == pytest.approx(100.0)
        assert usage(10.0) == pytest.approx(25.0)

    def test_work_conserved_under_availability(self):
        profile = Signal([0.0, 3.0, 7.0], [1.0, 0.5, 1.0])
        p = platform_with(host_avail=profile)
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(800.0)

        sim.spawn(job, "a")
        end = sim.run()
        trace = monitor.build_trace()
        integral = trace.entity("a").signal(USAGE).integrate(0.0, end)
        assert integral == pytest.approx(800.0)

    def test_figure1_style_view(self):
        """End to end: the varying-capacity node of Fig. 1 from a run."""
        from repro.core import AnalysisSession

        profile = Signal([0.0, 5.0], [1.0, 0.4])
        p = platform_with(host_avail=profile)
        monitor = UsageMonitor(p)
        sim = Simulator(p, monitor)

        def job(ctx):
            yield ctx.execute(450.0)

        sim.spawn(job, "a")
        sim.run()
        session = AnalysisSession(monitor.build_trace())
        session.set_time_slice(0.0, 2.0)
        early = session.view(settle=False).node("a").size_value
        session.set_time_slice(6.0, 8.0)
        late = session.view(settle=False).node("a").size_value
        assert early == pytest.approx(100.0)
        assert late == pytest.approx(40.0)
