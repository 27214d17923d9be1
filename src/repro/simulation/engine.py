"""The discrete-event simulation engine.

:class:`Simulator` ties together the platform, the CPU and network
models, the process scheduler and the usage monitors.  It is the
SimGrid-equivalent substrate (see DESIGN.md, substitution table): the
paper's traces come from SMPI/SimGrid runs; ours come from this engine.

Event handling is organized in *turns*: all events at the current
timestamp are handled and every runnable process is advanced until it
blocks; only then are resource shares re-computed (once), completion
events re-scheduled, and monitors updated.  This batching keeps the
max-min solver from running once per event when many things happen at
the same instant.

A settle's work is proportional to what changed, not to the platform:
availability wakeups visit only the hosts and links indexed at
construction as having a profile (none on Grid'5000), and the monitor
touches only links whose traffic changed.  Same-time wakeups keep a
fixed visiting order, so the trace stays byte-identical.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from typing import Any, Callable

from repro.errors import DeadlockError, SimulationError
from repro.obs.registry import registry
from repro.obs.spans import span
from repro.platform.model import Host, Link, Route
from repro.platform.topology import Platform
from repro.simulation.activities import (
    Activity,
    ComputeActivity,
    FlowActivity,
    Message,
)
from repro.simulation.cpu import CpuModel
from repro.simulation.network import NetworkModel
from repro.simulation.process import (
    Execute,
    Get,
    Process,
    ProcessContext,
    Put,
    Sleep,
    Wait,
)

__all__ = ["Simulator"]

# Event kinds stored on the heap.
_START = "start-process"
_DONE = "activity-done"
_FLOW_START = "flow-start"
_TIMER = "timer"
_CALLBACK = "callback"
_RECV_TIMEOUT = "recv-timeout"


class Simulator:
    """Discrete-event simulator over a :class:`Platform`.

    Parameters
    ----------
    platform:
        The simulated platform (routing, capacities).
    monitor:
        Optional :class:`~repro.simulation.monitors.UsageMonitor`; when
        given, every change of allocated rate on a host or link is
        recorded as a trace sample.
    tracer:
        Optional :class:`~repro.simulation.tracing.CausalTracer`; when
        given, every process gets a root span, every request a child
        span, and message deliveries record causal edges (contexts are
        injected by ``Put`` and extracted by ``Get``).  ``None`` (the
        default) keeps every hook down to one attribute check.
    """

    def __init__(self, platform: Platform, monitor=None, tracer=None) -> None:
        self.platform = platform
        self.monitor = monitor
        self.tracer = tracer
        self.now = 0.0
        self.cpu = CpuModel()
        self.network = NetworkModel()
        self._heap: list[tuple[float, int, str, Any, int]] = []
        self._seq = itertools.count()
        self._resume: deque[tuple[Process, Any]] = deque()
        self._mailboxes: dict[str, deque[Message]] = {}
        self._mail_waiting: dict[str, deque[Process]] = {}
        self._processes: list[Process] = []
        self._cpu_dirty: set[str] = set()
        self._net_dirty = False
        #: next scheduled availability wakeup per resource (dedup)
        self._availability_wakeups: dict[str, float] = {}
        #: the only resources a settle looks at for availability wakeups:
        #: hosts and links whose profile has a breakpoint (none on a
        #: platform without profiles, so settles then skip the scan)
        self._profiled_hosts = frozenset(
            h.name for h in platform.hosts if _has_breakpoints(h)
        )
        self._profiled_links = frozenset(
            l.name for l in platform.links if _has_breakpoints(l)
        )
        #: engine counters — a :class:`repro.obs.StatGroup` registered
        #: process-wide under ``sim``: ``events`` handled, ``turns``
        #: (distinct timestamps), ``settles`` (max-min solver runs),
        #: ``resumes`` (process continuations), ``messages`` delivered,
        #: ``spawns``.
        self.stats: dict[str, int] = registry.group(
            "sim",
            {
                "events": 0,
                "turns": 0,
                "settles": 0,
                "resumes": 0,
                "messages": 0,
                "spawns": 0,
            },
        )
        if monitor is not None:
            monitor.attach(self)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def spawn(
        self,
        fn: Callable,
        host: str | Host,
        name: str | None = None,
        *args,
        _parent: Process | None = None,
        **kwargs,
    ) -> Process:
        """Create a process running ``fn(ctx, *args, **kwargs)`` on *host*.

        The process starts at the current simulated time (the next time
        :meth:`run` executes a turn).  ``_parent`` is the spawning
        process when the spawn came through ``ctx.spawn`` — the causal
        tracer roots the child's span tree under it.
        """
        if isinstance(host, str):
            host = self.platform.host(host)
        if name is None:
            name = f"{fn.__name__}-{len(self._processes)}"
        process = Process(name, host, None)
        ctx = ProcessContext(self, process)
        process.generator = fn(ctx, *args, **kwargs)
        self._processes.append(process)
        self._push(self.now, _START, process, 0)
        self.stats["spawns"] += 1
        if self.tracer is not None:
            self.tracer.on_spawn(process, _parent, self.now)
        return process

    def run(self, until: float | None = None, on_blocked: str = "raise") -> float:
        """Run the simulation; return the final simulated time.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (events beyond it
            stay queued).  ``None`` runs until no event remains.
        on_blocked:
            When the event queue drains while processes are still
            blocked: ``"raise"`` raises :class:`DeadlockError`,
            ``"ignore"`` returns normally (useful when e.g. server
            processes wait forever for requests by design).
        """
        if on_blocked not in ("raise", "ignore"):
            raise SimulationError(f"bad on_blocked={on_blocked!r}")
        horizon = math.inf if until is None else float(until)
        while self._heap:
            time = self._heap[0][0]
            if time > horizon:
                self.now = horizon
                break
            if time < self.now:
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}"
                )
            self.now = time
            self.stats["turns"] += 1
            while self._heap and self._heap[0][0] == time:
                __, __, kind, obj, version = heapq.heappop(self._heap)
                self.stats["events"] += 1
                self._handle(kind, obj, version)
                self._drain_resume()
            self._settle()
        else:
            # Event queue drained completely.
            if until is not None:
                self.now = max(self.now, horizon) if math.isfinite(horizon) else self.now
            blocked = self.blocked_processes()
            if blocked and on_blocked == "raise":
                names = ", ".join(p.name for p in blocked[:10])
                raise DeadlockError(
                    f"no pending event but {len(blocked)} process(es) still "
                    f"blocked: {names}"
                )
        if self.monitor is not None:
            self.monitor.finalize(self.now)
        if self.tracer is not None:
            self.tracer.finalize(self.now)
        return self.now

    def blocked_processes(self) -> list[Process]:
        """Processes currently blocked on an activity or a mailbox."""
        return [p for p in self._processes if p.state == Process.BLOCKED]

    def alive_processes(self) -> list[Process]:
        """Processes that have not finished yet."""
        return [p for p in self._processes if p.state != Process.DONE]

    def cancel(self, activity: Activity) -> None:
        """Abort *activity*: it completes immediately as cancelled.

        A cancelled flow stops consuming bandwidth and its message is
        never delivered; a cancelled computation frees its CPU share.
        Processes blocked on the activity resume.  No-op when already
        done.
        """
        if activity.done:
            return
        activity.cancelled = True
        if isinstance(activity, FlowActivity):
            activity.message = None  # suppress delivery
            if not activity.started:
                # The latent _FLOW_START event will see done=True.
                activity.finish(self.now)
                for process in activity.waiters:
                    process.pending_waits.discard(activity)
                    if not process.pending_waits and process.state == Process.BLOCKED:
                        self._resume.append((process, None))
                activity.waiters.clear()
                return
        self._complete(activity)

    def schedule_callback(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` at simulated *time* (monitor sampling hooks...)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self.now}")
        self._push(time, _CALLBACK, fn, 0)

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, obj: Any, version: int) -> None:
        heapq.heappush(self._heap, (time, next(self._seq), kind, obj, version))

    def _handle(self, kind: str, obj: Any, version: int) -> None:
        if kind == _START:
            self._resume.append((obj, None))
        elif kind == _TIMER:
            self._resume.append((obj, None))
        elif kind == _CALLBACK:
            obj()
        elif kind == _RECV_TIMEOUT:
            process, mailbox = obj
            if (
                process.state == Process.BLOCKED
                and process.blocked_on_mailbox == mailbox
                and process.recv_version == version
            ):
                waiting = self._mail_waiting.get(mailbox)
                if waiting and process in waiting:
                    waiting.remove(process)
                process.blocked_on_mailbox = None
                process.recv_version += 1
                self._resume.append((process, None))
        elif kind == _FLOW_START:
            if obj.done:
                return  # cancelled while still latent
            if obj.remaining <= 0:
                # Zero-size (control) message: latency elapsed, deliver
                # without ever entering the bandwidth-sharing solver.
                self._complete(obj)
            else:
                self.network.add(obj)
                self._net_dirty = True
        elif kind == _DONE:
            activity: Activity = obj
            if activity.done or activity.version != version:
                return  # stale event, a re-rate superseded it
            self._complete(activity)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {kind!r}")

    def _complete(self, activity: Activity) -> None:
        activity.finish(self.now)
        if isinstance(activity, ComputeActivity):
            self.cpu.remove(activity)
            self._cpu_dirty.add(activity.host.name)
        elif isinstance(activity, FlowActivity):
            if activity.started:
                self.network.remove(activity)
                self._net_dirty = True
            if activity.message is not None:
                self._deliver(activity.message)
        for process in activity.waiters:
            process.pending_waits.discard(activity)
            if not process.pending_waits and process.state == Process.BLOCKED:
                self._resume.append((process, None))
        activity.waiters.clear()

    def _deliver(self, message: Message) -> None:
        message = Message(
            message.src_host,
            message.dst_host,
            message.size,
            message.mailbox,
            message.payload,
            message.sent_at,
            delivered_at=self.now,
            category=message.category,
            ctx=message.ctx,
        )
        self.stats["messages"] += 1
        if self.monitor is not None:
            self.monitor.on_message(message)
        waiting = self._mail_waiting.get(message.mailbox)
        if waiting:
            process = waiting.popleft()
            process.blocked_on_mailbox = None
            process.recv_version += 1  # invalidate any pending timeout
            self._resume.append((process, message))
        else:
            self._mailboxes.setdefault(message.mailbox, deque()).append(message)

    # ------------------------------------------------------------------
    # Process scheduling
    # ------------------------------------------------------------------
    def _drain_resume(self) -> None:
        while self._resume:
            process, value = self._resume.popleft()
            if process.state == Process.DONE:  # pragma: no cover - defensive
                continue
            self.stats["resumes"] += 1
            process.state = Process.READY
            if self.tracer is not None:
                self.tracer.on_resume(process, value, self.now)
            try:
                request = process.generator.send(value)
            except StopIteration:
                process.state = Process.DONE
                self._note_state(process, "end")
                if self.tracer is not None:
                    self.tracer.on_exit(process, self.now)
                continue
            self._dispatch(process, request)

    def _note_state(self, process: Process, state: str) -> None:
        if self.monitor is not None:
            self.monitor.on_process_state(process, state, self.now)

    #: process-state label shown on timelines, per request type
    _STATE_LABELS = {
        Execute: "compute",
        Put: "send",
        Get: "wait",
        Sleep: "sleep",
        Wait: "wait",
    }

    def _dispatch(self, process: Process, request: Any) -> None:
        label = self._STATE_LABELS.get(type(request))
        if label is not None:
            self._note_state(process, label)
            if self.tracer is not None:
                self.tracer.on_request(process, request, self.now)
        if isinstance(request, Execute):
            activity = ComputeActivity(process.host, request.amount, request.category)
            activity.last_update = self.now
            self.cpu.add(activity)
            self._cpu_dirty.add(process.host.name)
            self._block_on(process, activity)
        elif isinstance(request, Put):
            self._dispatch_put(process, request)
        elif isinstance(request, Get):
            queue = self._mailboxes.get(request.mailbox)
            if queue:
                message = queue.popleft()
                if not queue:
                    del self._mailboxes[request.mailbox]
                self._resume.append((process, message))
            else:
                process.state = Process.BLOCKED
                process.blocked_on_mailbox = request.mailbox
                self._mail_waiting.setdefault(request.mailbox, deque()).append(
                    process
                )
                if request.timeout is not None and math.isfinite(
                    request.timeout
                ):
                    self._push(
                        self.now + request.timeout,
                        _RECV_TIMEOUT,
                        (process, request.mailbox),
                        process.recv_version,
                    )
        elif isinstance(request, Sleep):
            process.state = Process.BLOCKED
            self._push(self.now + request.duration, _TIMER, process, 0)
        elif isinstance(request, Wait):
            pending = [a for a in request.activities if not a.done]
            if not pending:
                self._resume.append((process, None))
                return
            process.state = Process.BLOCKED
            process.pending_waits = set(pending)
            for activity in pending:
                activity.waiters.append(process)
        else:
            raise SimulationError(
                f"process {process.name!r} yielded a non-request: {request!r}"
            )

    def _dispatch_put(self, process: Process, request: Put) -> None:
        src = process.host.name
        route = self.platform.route(src, request.dst_host)
        message = Message(
            src,
            request.dst_host,
            request.size,
            request.mailbox,
            request.payload,
            sent_at=self.now,
            category=request.category,
            ctx=self.tracer.inject(process) if self.tracer is not None else None,
        )
        flow = FlowActivity(route, request.size, message, request.category)
        flow.last_update = self.now
        if len(route) == 0 or (request.size <= 0 and route.latency <= 0):
            # Same-host or zero-size/zero-latency: instantaneous delivery.
            flow.finish(self.now)
            self._deliver(message)
        elif route.latency > 0:
            self._push(self.now + route.latency, _FLOW_START, flow, 0)
        else:
            self.network.add(flow)
            self._net_dirty = True
        if request.blocking and not flow.done:
            self._block_on(process, flow)
        else:
            self._resume.append((process, flow))

    def _block_on(self, process: Process, activity: Activity) -> None:
        process.state = Process.BLOCKED
        process.pending_waits = {activity}
        activity.waiters.append(process)

    # ------------------------------------------------------------------
    # Resource settlement
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        """Re-rate dirty resources, reschedule completions, feed monitors."""
        self.stats["settles"] += 1
        with span("sim.step"):
            self._settle_inner()

    def _settle_inner(self) -> None:
        changed: list[Activity] = []
        if self._net_dirty:
            changed.extend(self.network.rerate(self.now))
        for host_name in sorted(self._cpu_dirty):
            host = self.platform.host(host_name)
            changed.extend(self.cpu.rerate(host, self.now))
        for activity in changed:
            eta = activity.eta(self.now)
            if math.isfinite(eta):
                self._push(eta, _DONE, activity, activity.version)
        self._schedule_availability_wakeups()
        if self.monitor is not None:
            if self._net_dirty:
                self.monitor.update_links(
                    self.now, self.network.link_rates_by_category()
                )
            for host_name in self._cpu_dirty:
                self.monitor.update_host(
                    self.now, host_name, self.cpu.rates_by_category(host_name)
                )
        self._net_dirty = False
        self._cpu_dirty.clear()

    def _schedule_availability_wakeups(self) -> None:
        """Re-rate resources with availability profiles at their next
        breakpoint, so rates track the profiles even between events.

        Only profiled resources are visited, in a fixed order — running
        hosts in ``cpu._running`` order, then flow links in
        ``network.flows`` order — so wakeups that fall at the same time
        always take the same heap sequence numbers.
        """
        if self._profiled_hosts:
            for host_name, running in list(self.cpu._running.items()):
                if not running or host_name not in self._profiled_hosts:
                    continue
                host = self.platform.host(host_name)
                when = host.next_availability_change(self.now)
                self._maybe_wake(f"h:{host_name}", when, host_name, None)
        if self._profiled_links:
            for flow in self.network.flows:
                for link in flow.shared_links + flow.fatpipe_links:
                    if link.name not in self._profiled_links:
                        continue
                    when = link.next_availability_change(self.now)
                    self._maybe_wake(f"l:{link.name}", when, None, link.name)

    def _maybe_wake(
        self,
        key: str,
        when: float | None,
        host_name: str | None,
        link_name: str | None,
    ) -> None:
        if when is None or when <= self.now:
            return
        already = self._availability_wakeups.get(key)
        if already is not None and already <= when and already > self.now:
            return
        self._availability_wakeups[key] = when

        def wake() -> None:
            if self._availability_wakeups.get(key) == self.now:
                del self._availability_wakeups[key]
            if host_name is not None and self.cpu._running.get(host_name):
                self._cpu_dirty.add(host_name)
            if link_name is not None:
                self._net_dirty = True

        self._push(when, _CALLBACK, wake, 0)


def _has_breakpoints(resource: Host | Link) -> bool:
    """Whether *resource*'s availability profile ever changes."""
    return resource.availability is not None and len(resource.availability) > 0
