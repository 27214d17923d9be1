"""Non-cooperative master-worker applications (Section 5.2).

Two (or more) independent master-worker applications compete for the
same grid.  Each master owns a bag of identical tasks; workers keep a
*prefetch buffer* of requests outstanding (three in the paper) so they
are never idle waiting for work, and masters serve pending requests
according to a scheduling policy:

* **bandwidth-centric** [Beaumont et al., IPDPS 2002] — "when several
  workers request some work, the one with the largest bandwidth is
  served in priority".  The master estimates each worker's effective
  bandwidth from the route characteristics and refines the estimate with
  the measured throughput of every completed transfer, so congested or
  distant workers naturally fall in priority — this is what produces the
  locality and diffusion phenomena of Figures 8 and 9;
* **fifo** — requests served in arrival order, the locality-blind
  baseline the paper contrasts against ("a simple FIFO mechanism would
  not exhibit such locality").

Task requests are zero-byte control messages (pure latency); task
inputs are real transfers that contend on the network.  All compute and
traffic is tagged with the application name, so the usage monitors can
attribute resource consumption per application.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.platform.topology import Platform
from repro.simulation.engine import Simulator
from repro.simulation.monitors import UsageMonitor

__all__ = [
    "AppSpec",
    "Policy",
    "AppResult",
    "MasterWorkerResult",
    "run_master_worker",
]


class Policy:
    """Master scheduling policies."""

    BANDWIDTH_CENTRIC = "bandwidth-centric"
    FIFO = "fifo"
    ALL = (BANDWIDTH_CENTRIC, FIFO)


@dataclass(frozen=True)
class AppSpec:
    """One master-worker application.

    Parameters
    ----------
    name:
        Application label; becomes the trace category (``usage_<name>``).
    master:
        Host name running the master.
    n_tasks:
        Bag-of-tasks size.
    input_bytes:
        Task input transferred from master to worker.
    task_flops:
        Computation per task on the worker.
    prefetch:
        Requests each worker keeps outstanding (3 in the paper).
    parallel_sends:
        Concurrent task transfers the master sustains.
    """

    name: str
    master: str
    n_tasks: int
    input_bytes: float
    task_flops: float
    prefetch: int = 3
    parallel_sends: int = 4

    def __post_init__(self) -> None:
        if self.n_tasks <= 0:
            raise SimulationError(f"app {self.name!r}: n_tasks must be > 0")
        if self.input_bytes <= 0:
            raise SimulationError(f"app {self.name!r}: input_bytes must be > 0")
        if self.task_flops < 0:
            raise SimulationError(f"app {self.name!r}: task_flops must be >= 0")
        if self.prefetch < 1:
            raise SimulationError(f"app {self.name!r}: prefetch must be >= 1")
        if self.parallel_sends < 1:
            raise SimulationError(
                f"app {self.name!r}: parallel_sends must be >= 1"
            )

    @property
    def comm_to_comp(self) -> float:
        """Bytes moved per flop computed — the ratio Section 5.2 varies."""
        return self.input_bytes / self.task_flops if self.task_flops else float("inf")


@dataclass
class AppResult:
    """Outcome of one application within a run."""

    spec: AppSpec
    tasks_served: int = 0
    tasks_completed: int = 0
    finished_at: float = 0.0
    #: tasks dispatched per worker host
    served_per_worker: Counter = field(default_factory=Counter)
    #: tasks computed per worker host
    completed_per_worker: Counter = field(default_factory=Counter)
    #: completion time of each task, in dispatch order (diffusion curves)
    completion_times: list[float] = field(default_factory=list)


@dataclass
class MasterWorkerResult:
    """Outcome of a full competing-applications run."""

    apps: dict[str, AppResult]
    makespan: float
    policy: str

    def app(self, name: str) -> AppResult:
        """The per-application result called *name*."""
        try:
            return self.apps[name]
        except KeyError:
            raise SimulationError(f"unknown app {name!r}") from None


def _master_mailbox(app: AppSpec) -> str:
    return f"mw:{app.name}:master"


def _worker_mailbox(app: AppSpec, worker: str) -> str:
    return f"mw:{app.name}:{worker}"


def _worker(ctx, app: AppSpec, result: AppResult):
    """Worker loop: keep `prefetch` requests outstanding, compute tasks."""
    me = ctx.host.name
    request = {"type": "request", "worker": me}
    for _ in range(app.prefetch):
        yield ctx.send(
            app.master, 0.0, _master_mailbox(app), request, category=app.name
        )
    while True:
        message = yield ctx.recv(_worker_mailbox(app, me))
        if message.payload["type"] == "pill":
            return
        with ctx.span("task", app=app.name):
            yield ctx.execute(app.task_flops, category=app.name)
            result.tasks_completed += 1
            result.completed_per_worker[me] += 1
            result.completion_times.append(ctx.now)
            yield ctx.send(
                app.master, 0.0, _master_mailbox(app), request, category=app.name
            )


def _sender(ctx, app: AppSpec, worker: str):
    """One task transfer, then report the measured duration back."""
    started = ctx.now
    yield ctx.send(
        worker,
        app.input_bytes,
        _worker_mailbox(app, worker),
        {"type": "task", "flops": app.task_flops},
        category=app.name,
    )
    yield ctx.send(
        ctx.host.name,
        0.0,
        _master_mailbox(app),
        {"type": "done", "worker": worker, "duration": ctx.now - started},
    )


def _static_bandwidth(platform: Platform, app: AppSpec, worker: str) -> float:
    """A priori effective bandwidth: one task over an idle route."""
    route = platform.route(app.master, worker)
    transfer = route.latency + app.input_bytes / route.bottleneck
    return app.input_bytes / transfer


class PendingRequests:
    """The master's queue of worker requests, served by policy.

    Every request is one entry for its worker, in arrival order.  Under
    :attr:`Policy.FIFO` :meth:`pop` returns the oldest request's worker.
    Under :attr:`Policy.BANDWIDTH_CENTRIC` it returns the worker with the
    largest bandwidth estimate, the oldest request winning a tie — the
    worker ``max(range(len(pending)), key=...)`` would pick from the
    arrival-ordered list — in O(log n) instead of O(n).

    The bandwidth-centric queue is a heap keyed on ``(-estimate, arrival
    sequence)``.  :meth:`set_estimate` pushes fresh entries for the
    worker's queued requests and stamps the worker with a new version;
    the superseded entries are dropped when they reach the top.
    """

    def __init__(self, policy: str, estimates: dict[str, float]) -> None:
        self._fifo = policy == Policy.FIFO
        self._estimates = estimates
        self._order: deque[str] = deque()
        # bandwidth-centric state
        self._heap: list[tuple[float, int, str, int]] = []
        self._seq = 0
        self._version: dict[str, int] = {}
        # worker -> arrival sequences of its queued requests, oldest first
        self._queued: dict[str, deque[int]] = {}
        self._size = 0

    def __len__(self) -> int:
        return len(self._order) if self._fifo else self._size

    def push(self, worker: str) -> None:
        """Queue one request from *worker*."""
        if self._fifo:
            self._order.append(worker)
            return
        seq = self._seq
        self._seq += 1
        self._queued.setdefault(worker, deque()).append(seq)
        version = self._version.setdefault(worker, 0)
        heapq.heappush(
            self._heap, (-self._estimates[worker], seq, worker, version)
        )
        self._size += 1

    def set_estimate(self, worker: str, estimate: float) -> None:
        """Record *worker*'s new bandwidth estimate."""
        self._estimates[worker] = estimate
        if self._fifo:
            return
        version = self._version.get(worker, 0) + 1
        self._version[worker] = version
        for seq in self._queued.get(worker, ()):
            heapq.heappush(self._heap, (-estimate, seq, worker, version))

    def pop(self) -> str:
        """Dequeue the request served next; return its worker."""
        if self._fifo:
            return self._order.popleft()
        heap = self._heap
        while True:
            __, seq, worker, version = heapq.heappop(heap)
            if version == self._version[worker]:
                break
        # A worker's queued entries share one key but for the sequence,
        # so the one served is its oldest.
        self._queued[worker].popleft()
        self._size -= 1
        return worker


def _master(ctx, app: AppSpec, workers: Sequence[str], policy: str, result: AppResult):
    """Master loop: queue requests, serve them by policy, then shut down."""
    platform = ctx.platform
    estimates = {
        worker: _static_bandwidth(platform, app, worker) for worker in workers
    }
    pending = PendingRequests(policy, estimates)
    in_flight = 0
    remaining = app.n_tasks
    while remaining > 0 or in_flight > 0:
        while pending and in_flight < app.parallel_sends and remaining > 0:
            worker = pending.pop()
            ctx.spawn(_sender, ctx.host, f"{app.name}-send", app, worker)
            in_flight += 1
            remaining -= 1
            result.tasks_served += 1
            result.served_per_worker[worker] += 1
        message = yield ctx.recv(_master_mailbox(app))
        payload = message.payload
        if payload["type"] == "request":
            pending.push(payload["worker"])
        elif payload["type"] == "done":
            in_flight -= 1
            pending.set_estimate(
                payload["worker"],
                app.input_bytes / max(payload["duration"], 1e-12),
            )
        else:  # pragma: no cover - defensive
            raise SimulationError(f"master got {payload!r}")
    result.finished_at = ctx.now
    for worker in workers:
        yield ctx.send(
            worker, 0.0, _worker_mailbox(app, worker), {"type": "pill"}
        )


def run_master_worker(
    platform: Platform,
    apps: Sequence[AppSpec],
    workers: Iterable[str] | None = None,
    policy: str = Policy.BANDWIDTH_CENTRIC,
    monitor: UsageMonitor | None = None,
    until: float | None = None,
    tracer=None,
) -> MasterWorkerResult:
    """Run competing master-worker applications on *platform*.

    Parameters
    ----------
    workers:
        Worker host names; defaults to every platform host except the
        masters.  All applications share all workers (which is what
        makes them interfere on computing resources — phenomenon 3 of
        Section 5.2).
    until:
        Optional simulated-time cutoff; when it fires, unfinished
        applications simply stop being measured (their workers stay
        blocked), which is fine for time-sliced visualization runs.
    tracer:
        Optional :class:`~repro.simulation.tracing.CausalTracer`: the
        run then records a cross-process span DAG (workers wrap each
        task in an explicit ``"task"`` phase span).
    """
    if policy not in Policy.ALL:
        raise SimulationError(f"unknown policy {policy!r}")
    apps = list(apps)
    if not apps:
        raise SimulationError("need at least one application")
    names = [a.name for a in apps]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate application names in {names}")
    masters = {a.master for a in apps}
    if workers is None:
        worker_list = [
            h.name for h in platform.hosts if h.name not in masters
        ]
    else:
        worker_list = list(workers)
    if not worker_list:
        raise SimulationError("no worker hosts")

    simulator = Simulator(platform, monitor, tracer=tracer)
    results = {app.name: AppResult(app) for app in apps}
    for app in apps:
        platform.host(app.master)  # validate early
        simulator.spawn(
            _master, app.master, f"{app.name}-master", app, worker_list, policy,
            results[app.name],
        )
        for worker in worker_list:
            simulator.spawn(
                _worker, worker, f"{app.name}-worker-{worker}", app,
                results[app.name],
            )
    makespan = simulator.run(until=until, on_blocked="ignore")
    return MasterWorkerResult(apps=results, makespan=makespan, policy=policy)
