"""Resource-usage monitoring: from simulation to traces.

:class:`UsageMonitor` observes a running :class:`Simulator` and records,
for every host and link, the allocated rate (flops/s, bytes/s) as a
piecewise-constant signal — both in total (metric ``usage``) and broken
down by activity *category* (metric ``usage_<category>``), which is how
the two competing applications of Section 5.2 are told apart.

``build_trace`` freezes everything into a :class:`~repro.trace.Trace`
whose entities carry the platform hierarchy paths, and whose edges come
from the physical topology — the "fixed, previously defined" connection
source of Section 3.1.1.

Link samples arrive once per network settle for every link carrying a
flow; a link whose per-category rates are unchanged (same items, same
order) is skipped, and a link that stopped carrying traffic is zeroed
once, so a settle costs the busy links rather than every link seen.
"""

from __future__ import annotations

from repro.platform.topology import Platform
from repro.simulation.activities import Message
from repro.trace.builder import TraceBuilder
from repro.trace.events import PointEvent
from repro.trace.signal import SignalBuilder
from repro.trace.trace import CAPACITY, USAGE, Trace

__all__ = ["UsageMonitor", "category_metric"]


def category_metric(category: str) -> str:
    """The trace metric name carrying usage attributed to *category*."""
    return f"{USAGE}_{category}" if category else USAGE


class UsageMonitor:
    """Records per-resource allocated rates during a simulation.

    Parameters
    ----------
    platform:
        The platform being simulated (defines the monitored entities).
    record_messages:
        When true, every delivered message is kept as a
        :class:`PointEvent` (up to *message_limit*) so communication
        patterns can be reconstructed from the trace.
    message_limit:
        Cap on recorded messages, protecting trace size on long runs.
    """

    def __init__(
        self,
        platform: Platform,
        record_messages: bool = False,
        message_limit: int = 100_000,
        record_states: bool = False,
        state_limit: int = 500_000,
    ) -> None:
        self.platform = platform
        self.record_messages = record_messages
        self.message_limit = message_limit
        self.record_states = record_states
        self.state_limit = state_limit
        # resource name -> category -> builder ("" = total)
        self._hosts: dict[str, dict[str, SignalBuilder]] = {}
        self._links: dict[str, dict[str, SignalBuilder]] = {}
        # link name -> the (category, rate) items it was last set to, for
        # links whose last items were not empty
        self._busy_links: dict[str, tuple[tuple[str, float], ...]] = {}
        self._messages: list[PointEvent] = []
        self._states: list[PointEvent] = []
        self._dropped_messages = 0
        self._end_time = 0.0

    def attach(self, simulator) -> None:
        """Called by the simulator when the monitor is installed."""
        # Nothing to prepare: builders are created lazily.

    # ------------------------------------------------------------------
    # Engine callbacks
    # ------------------------------------------------------------------
    def update_host(
        self, now: float, host: str, rates_by_category: dict[str, float]
    ) -> None:
        """Record the allocated flops/s on *host*, per category."""
        self._update(self._hosts, now, host, rates_by_category)

    def update_links(
        self, now: float, rates: dict[str, dict[str, float]]
    ) -> None:
        """Record per-link traffic; links absent from *rates* go to zero.

        A link whose ``(category, rate)`` items equal, in order, the ones
        it was last set to is skipped: re-setting them would be a no-op
        for every builder (same values, see :meth:`SignalBuilder.set`).
        The comparison is order-sensitive because the total is a ``sum``
        over the items, which can differ in the last bit when they are
        reordered.
        """
        busy = self._busy_links
        for link in [link for link in busy if link not in rates]:
            del busy[link]
            self._update(self._links, now, link, {})
        for link, by_category in rates.items():
            items = tuple(by_category.items())
            if link in self._links and busy.get(link, ()) == items:
                continue
            self._update(self._links, now, link, by_category)
            if items:
                busy[link] = items
            else:
                busy.pop(link, None)

    def _update(
        self,
        table: dict[str, dict[str, SignalBuilder]],
        now: float,
        resource: str,
        rates_by_category: dict[str, float],
    ) -> None:
        builders = table.setdefault(resource, {})
        total = sum(rates_by_category.values())
        builders.setdefault("", SignalBuilder()).set(now, total)
        categories = {cat for cat in rates_by_category if cat}
        categories.update(cat for cat in builders if cat)
        for category in categories:
            value = rates_by_category.get(category, 0.0)
            builders.setdefault(category, SignalBuilder()).set(now, value)

    #: Pinned payload schema of recorded ``"message"`` point events.
    #: ``category`` and the end-to-end ``latency`` ride along so causal
    #: and latency analyses work from the trace alone, without
    #: re-running the simulation.
    MESSAGE_PAYLOAD_KEYS = ("size", "mailbox", "sent_at", "category", "latency")

    def on_message(self, message: Message) -> None:
        """Record a delivered message as a point event (when enabled)."""
        if not self.record_messages:
            return
        if len(self._messages) >= self.message_limit:
            self._dropped_messages += 1
            return
        self._messages.append(
            PointEvent(
                message.delivered_at,
                "message",
                message.src_host,
                message.dst_host,
                {
                    "size": message.size,
                    "mailbox": message.mailbox,
                    "sent_at": message.sent_at,
                    "category": message.category,
                    "latency": message.delivered_at - message.sent_at,
                },
            )
        )

    def on_process_state(self, process, state: str, time: float) -> None:
        """Record a process-state transition (when enabled).

        These point events (kind ``"state"``) feed the behavioral
        timeline view (:mod:`repro.core.timeline`) — the Gantt-chart
        representation the paper contrasts the topology view with.
        """
        if not self.record_states or len(self._states) >= self.state_limit:
            return
        self._states.append(
            PointEvent(
                time,
                "state",
                process.name,
                process.host.name,
                {"state": state},
            )
        )

    def finalize(self, end_time: float) -> None:
        """Remember the simulation end (becomes the trace's ``end_time``)."""
        self._end_time = max(self._end_time, end_time)

    # ------------------------------------------------------------------
    # Trace export
    # ------------------------------------------------------------------
    def categories(self) -> list[str]:
        """Every non-empty activity category observed so far."""
        seen: set[str] = set()
        for table in (self._hosts, self._links):
            for builders in table.values():
                seen.update(cat for cat in builders if cat)
        return sorted(seen)

    def build_trace(self) -> Trace:
        """Freeze the recorded usage into a :class:`Trace`.

        Every platform host and link becomes an entity (hosts carry
        their power, links their bandwidth, as the ``capacity`` metric);
        routers become metric-less ``router`` entities so the topology
        stays connected; edges mirror the physical links.
        """
        builder = TraceBuilder()
        builder.declare_metric(CAPACITY, "flops/s|bytes/s", "nominal capacity")
        builder.declare_metric(USAGE, "flops/s|bytes/s", "allocated rate")
        for category in self.categories():
            builder.declare_metric(
                category_metric(category),
                "flops/s|bytes/s",
                f"allocated rate of category {category}",
            )
        for host in self.platform.hosts:
            builder.declare_entity(host.name, "host", host.path)
            self._export_capacity(builder, host.name, host.power, host.availability)
        for link in self.platform.links:
            builder.declare_entity(link.name, "link", link.path)
            self._export_capacity(
                builder, link.name, link.bandwidth, link.availability
            )
        for router in self.platform.routers:
            builder.declare_entity(router.name, "router", router.path)
        self._export(builder, self._hosts)
        self._export(builder, self._links)
        for a, b, link_name in self.platform.topology_edges():
            builder.connect(a, b, via=link_name, source="topology")
        for event in self._messages:
            builder.record_point(event)
        for event in self._states:
            builder.record_point(event)
        builder.set_meta("end_time", self._end_time)
        if self._dropped_messages:
            builder.set_meta("dropped_messages", self._dropped_messages)
        return builder.build()

    def _export_capacity(
        self, builder: TraceBuilder, name: str, nominal: float, availability
    ) -> None:
        """Constant capacity, or the availability-scaled step signal —
        the varying "available capacity" curves of Fig. 1."""
        if availability is None:
            builder.set_constant(name, CAPACITY, nominal)
            return
        builder.record(name, CAPACITY, 0.0, nominal * availability.initial)
        for time, value in availability.steps():
            builder.record(name, CAPACITY, max(time, 0.0), nominal * value)

    def _export(
        self, builder: TraceBuilder, table: dict[str, dict[str, SignalBuilder]]
    ) -> None:
        for resource, builders in table.items():
            for category, signal_builder in builders.items():
                signal = signal_builder.build()
                metric = category_metric(category)
                if signal.initial:
                    # SignalBuilder always starts at zero; defensive only.
                    builder.record(resource, metric, 0.0, signal.initial)
                for time, value in signal.steps():
                    builder.record(resource, metric, time, value)
