"""Calibrated benchmark harness + the suites behind ``repro bench``.

This module is the repository's one timing system: every speedup floor
and latency ceiling the paper's scalability claims rest on is a gate
declared next to the suite that measures it, so one run prices the
workload and checks the claim on the same numbers.

* :func:`measure` — one calibrated measurement: warmup calls, an inner
  loop auto-sized so each sample is long enough to trust the clock, an
  auto-chosen repeat count, and *robust* statistics (median / IQR /
  MAD) that a single OS scheduling hiccup cannot drag around the way a
  mean can;
* :func:`machine_fingerprint` — the context that makes a number
  meaningful later (python, platform, CPU count, numpy version);
* named **suites** over the real hot paths — ``layout`` (Barnes-Hut
  steps at several *n*, array vs scalar vs sharded kernels),
  ``aggregation`` (slice-scrub, the paper's interactive loop, against
  scalar recomputation), ``signals`` (batch signal ops), ``render``
  (SVG generation), ``sim`` (discrete-event engine), ``store``
  (columnar trace-store convert / cold-open / mmap scrub), ``server``
  (multi-session scrub-storm round trips, solo vs 8-way concurrent,
  with p50/p95/p99 percentiles), ``causal`` (latency attribution,
  propagation-path extraction and communication-band aggregation on a
  causal DAG) — each serialized as one schema-versioned
  ``BENCH_<suite>.json``;
* :class:`Gate` — a suite's declared floor on the ratio of two of its
  cases' stats (``cold_view`` / ``scrub_move`` median >= 5) or ceiling
  on one case's stat (``bands`` median <= 1 s); :func:`run_suite`
  records every verdict in the payload and ``repro bench`` exits 3 on
  a violation;
* :func:`compare_results` — the noise-aware regression gate: a case
  fails only when its median exceeds the baseline median by more than
  ``max(rel_tol * baseline, iqr_k * IQR)``, so real slowdowns trip CI
  while timer jitter does not.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``repro bench --quick``) shrinks
sizes and repeats for smoke runs; the mode is recorded in the payload,
gates carry one bound per mode, and :func:`compare_results` refuses to
compare across modes.
"""

from __future__ import annotations

import functools
import json
import math
import os
import platform as platform_module
import random
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Callable, Mapping

__all__ = [
    "SCHEMA",
    "BenchCase",
    "Gate",
    "available_suites",
    "causal_run",
    "check_gates",
    "clustered_layout",
    "compare_results",
    "format_comparison",
    "format_result",
    "gates_failed",
    "has_regression",
    "load_result",
    "machine_fingerprint",
    "master_worker_sim",
    "measure",
    "quick_mode",
    "result_path",
    "robust_stats",
    "run_suite",
    "server_workload",
    "star_platform",
    "write_result",
]

#: Version tag stamped into every BENCH_<suite>.json payload; bump on
#: any incompatible change to the result shape.
SCHEMA = "repro-bench/1"


def quick_mode(flag: bool | None = None) -> bool:
    """Whether quick (smoke) mode is in effect.

    An explicit *flag* wins; otherwise the ``REPRO_BENCH_QUICK``
    environment switch decides, exactly as the pytest benches read it.
    """
    if flag is not None and flag:
        return True
    return bool(os.environ.get("REPRO_BENCH_QUICK"))


def machine_fingerprint() -> dict:
    """The environment context stamped into every result payload."""
    import numpy

    return {
        "python": platform_module.python_version(),
        "implementation": platform_module.python_implementation(),
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
        "cpu_count": os.cpu_count() or 0,
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def robust_stats(samples: list[float]) -> dict:
    """Median / IQR / MAD (plus mean, min, max) of per-call *samples*.

    Median and IQR come from linear-interpolated quantiles; MAD is the
    raw median absolute deviation (unscaled).  All values are seconds
    per call.
    """
    if not samples:
        raise ValueError("robust_stats needs at least one sample")
    ordered = sorted(samples)

    def quantile(q: float) -> float:
        """Linear-interpolated *q*-quantile of the ordered samples."""
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    median = quantile(0.5)
    deviations = sorted(abs(s - median) for s in ordered)
    mad_pos = 0.5 * (len(deviations) - 1)
    lo = int(math.floor(mad_pos))
    hi = min(lo + 1, len(deviations) - 1)
    mad = deviations[lo] * (1.0 - (mad_pos - lo)) + deviations[hi] * (
        mad_pos - lo
    )
    return {
        "median_s": median,
        "iqr_s": quantile(0.75) - quantile(0.25),
        "mad_s": mad,
        "mean_s": sum(ordered) / len(ordered),
        "min_s": ordered[0],
        "max_s": ordered[-1],
    }


def measure(
    fn: Callable[[], object],
    *,
    quick: bool = False,
    warmup: int | None = None,
    repeats: int | None = None,
    min_sample_s: float | None = None,
    max_total_s: float | None = None,
) -> dict:
    """One calibrated measurement of *fn* (a no-argument callable).

    The protocol: run ``warmup`` throwaway calls, double the inner-loop
    count until one sample takes at least ``min_sample_s`` (so the
    perf-counter quantization disappears), then collect samples.  The
    repeat count is auto-chosen to fit ``max_total_s`` but never drops
    below 5 (quick: 3) — robust statistics need a population.

    Returns the :func:`robust_stats` dict extended with ``repeats``,
    ``inner_loops``, ``warmup`` and the raw per-call ``samples_s``.
    """
    if warmup is None:
        warmup = 1 if quick else 2
    if min_sample_s is None:
        min_sample_s = 0.004 if quick else 0.01
    if max_total_s is None:
        max_total_s = 0.4 if quick else 2.0
    floor_repeats = 5 if quick else 7
    cap_repeats = 9 if quick else 30

    for _ in range(warmup):
        fn()

    # Calibrate the inner loop: one sample must outlast clock jitter.
    loops = 1
    while True:
        began = perf_counter()
        for _ in range(loops):
            fn()
        sample_s = perf_counter() - began
        if sample_s >= min_sample_s or loops >= 1 << 20:
            break
        loops *= 2

    if repeats is None:
        repeats = int(max_total_s / max(sample_s, 1e-9))
        repeats = max(floor_repeats, min(cap_repeats, repeats))

    samples = [sample_s / loops]  # the calibration run is sample 0
    for _ in range(repeats - 1):
        began = perf_counter()
        for _ in range(loops):
            fn()
        samples.append((perf_counter() - began) / loops)

    out = robust_stats(samples)
    out["repeats"] = repeats
    out["inner_loops"] = loops
    out["warmup"] = warmup
    out["samples_s"] = samples
    return out


class BenchCase:
    """One named, parameterized benchmark case inside a suite.

    ``make`` runs the (untimed) setup and returns the no-argument
    callable that :func:`measure` times; ``params`` documents the
    workload shape in the result payload so baselines are only ever
    compared like-for-like.

    Cases whose samples are not repeated calls of one closure — e.g.
    the ``server`` suite, where each sample is one request round trip
    inside a concurrent storm — pass ``runner`` instead: a callable
    taking the quick flag and returning a complete stats dict (at
    least the :func:`robust_stats` keys plus ``repeats`` /
    ``inner_loops`` / ``warmup`` / ``samples_s``, so the comparison
    gate and formatters treat both kinds identically).
    """

    __slots__ = ("name", "make", "params", "runner")

    def __init__(
        self,
        name: str,
        make: Callable[[], Callable[[], object]] | None = None,
        params: Mapping | None = None,
        runner: Callable[[bool], dict] | None = None,
    ) -> None:
        if (make is None) == (runner is None):
            raise ValueError(
                f"case {name!r} needs exactly one of make or runner"
            )
        self.name = name
        self.make = make
        self.params = dict(params or {})
        self.runner = runner


class Gate:
    """A floor or ceiling that :func:`run_suite` checks on every run.

    The gated value is ``stat`` of case ``case`` — divided by the same
    stat of case ``over`` when one is named, which makes the gate a
    bound on the ratio of the two (a speedup floor such as ``cold_view``
    / ``scrub_move`` median >= 5, or a contention ceiling such as
    ``scrub_c8`` / ``scrub_solo`` p95 <= 3).  ``floor`` or ``ceiling``
    (exactly one) is a ``(quick, full)`` pair of bounds; ``None`` leaves
    that mode ungated.  A gate that needs ``min_cpus`` cores is recorded
    as ``"skipped"`` on a machine with fewer.
    """

    __slots__ = ("case", "over", "stat", "floor", "ceiling", "min_cpus")

    def __init__(
        self,
        case: str,
        over: str | None = None,
        stat: str = "median_s",
        floor: tuple[float | None, float | None] | None = None,
        ceiling: tuple[float | None, float | None] | None = None,
        min_cpus: int = 0,
    ) -> None:
        if (floor is None) == (ceiling is None):
            raise ValueError(
                f"gate on {case!r} needs exactly one of floor or ceiling"
            )
        self.case = case
        self.over = over
        self.stat = stat
        self.floor = floor
        self.ceiling = ceiling
        self.min_cpus = min_cpus

    @property
    def label(self) -> str:
        """Human name of the gated quantity, e.g. ``a/b median_s``."""
        ratio = f"{self.case}/{self.over}" if self.over else self.case
        return f"{ratio} {self.stat}"

    @property
    def cases(self) -> tuple[str, ...]:
        """Every case name the gate reads."""
        return (self.case,) if self.over is None else (self.case, self.over)

    def bound(self, quick: bool) -> float | None:
        """The bound in effect for the given mode (``None``: ungated)."""
        pair = self.floor if self.floor is not None else self.ceiling
        return pair[0] if quick else pair[1]


# ----------------------------------------------------------------------
# Suites
# ----------------------------------------------------------------------
_SUITES: dict[str, Callable[[bool], list[BenchCase]]] = {}
_GATES: dict[str, tuple[Gate, ...]] = {}


def _suite(name: str, *gates: Gate):
    """Register a suite builder and its gates under *name* (decorator)."""

    def register(builder):
        _SUITES[name] = builder
        _GATES[name] = gates
        return builder

    return register


def available_suites() -> list[str]:
    """The registered suite names, in definition order."""
    return list(_SUITES)


def clustered_layout(
    n: int,
    seed: int = 2,
    kernel: str = "array",
    workers: int | None = None,
    settle_steps: int = 5,
):
    """A settled Barnes-Hut layout over the benches' clustered topology
    (sqrt(n) star clusters chained by bridges)."""
    from repro.core import LayoutParams, make_layout

    layout = make_layout(
        "barneshut", LayoutParams(), seed=seed, kernel=kernel, workers=workers
    )
    n_clusters = max(1, int(math.sqrt(n)))
    hubs = []
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    count = 0
    for c in range(n_clusters):
        hub = f"hub{c}"
        names.append(hub)
        hubs.append(hub)
        count += 1
        while count < (c + 1) * n // n_clusters:
            name = f"n{count}"
            names.append(name)
            edges.append((hub, name))
            count += 1
    # Bulk insertion (O(n), identical placement to per-node add_node
    # calls in the same order) keeps million-node construction linear.
    layout.add_nodes(names)
    for a, b in edges:
        layout.add_edge(a, b)
    for a, b in zip(hubs, hubs[1:]):
        layout.add_edge(a, b)
    layout.run(max_steps=settle_steps, tolerance=0.0)
    return layout


#: Worker processes of the sharded-kernel cases; its speedup floor only
#: means something with at least this many cores.
_SHARD_WORKERS = 4


@_suite(
    "layout",
    # Section 3.3: the vectorized array kernel vs the scalar quadtree
    # walk, per relaxation step on the same graph.
    Gate("kernel_scalar", over="kernel_array", floor=(2.5, 5.0)),
    # The fork-sharded kernel vs the single-process array kernel.
    Gate(
        "step_array_100k",
        over="step_sharded_100k",
        floor=(1.3, 2.0),
        min_cpus=_SHARD_WORKERS,
    ),
)
def _layout_suite(quick: bool) -> list[BenchCase]:
    """Barnes-Hut relaxation steps (build + traverse) at several *n*."""
    sizes = (128, 512) if quick else (256, 1024, 4096)

    def stepper(n: int, **kwargs):
        def make():
            """Build the layout once; time whole relaxation steps."""
            layout = clustered_layout(n, **kwargs)
            layout.step()  # warm tree/caches (and fork any pool) untimed
            return layout.step

        return make

    cases = [
        BenchCase(f"step_n{n}", stepper(n), {"n": n, "kernel": "array"})
        for n in sizes
    ]

    kernel_n = 500 if quick else 2000
    for kernel in ("array", "scalar"):
        cases.append(
            BenchCase(
                f"kernel_{kernel}",
                stepper(kernel_n, kernel=kernel),
                {"n": kernel_n, "kernel": kernel},
            )
        )

    # The sharded kernel's flagship pair: 100k bodies on 4 workers
    # against the array kernel on the same graph (quick mode shrinks
    # the graph, not the worker count).
    shard_n = 4096 if quick else 100_000
    for kernel, workers in (("array", None), ("sharded", _SHARD_WORKERS)):
        cases.append(
            BenchCase(
                f"step_{kernel}_100k",
                stepper(shard_n, kernel=kernel, workers=workers,
                        settle_steps=2),
                {"n": shard_n, "kernel": kernel, "workers": workers},
            )
        )
    return cases


@functools.lru_cache(maxsize=1)
def _grid5000_trace():
    """The Section 5.2 master-worker run on the full Grid'5000 model
    (simulated once per process: several full-mode suites share it)."""
    from repro.apps import paper_workload, run_master_worker
    from repro.platform import grid5000_platform
    from repro.simulation import UsageMonitor

    platform = grid5000_platform()
    app1, app2 = paper_workload(platform, tasks_per_worker=2.0)
    monitor = UsageMonitor(platform)
    run_master_worker(platform, [app1, app2], monitor=monitor)
    return monitor.build_trace()


@_suite(
    "aggregation",
    # Section 3.2.2: the incremental engine scrubs the slice faster
    # than the scalar oracle recomputes the same view.
    Gate("cold_view", over="scrub_move", floor=(2.5, 5.0)),
)
def _aggregation_suite(quick: bool) -> list[BenchCase]:
    """The paper's interactive loop: time-slice scrubbing and cold views.

    Both cases walk the same slide sequence at the site level of
    Fig. 8 — Grid'5000 when full, a small synthetic trace when quick.
    """
    from repro.core import AggregationEngine, TimeSlice
    from repro.core.aggregation import aggregate_view
    from repro.core.hierarchy import GroupingState, Hierarchy
    from repro.trace import CAPACITY, USAGE

    if quick:
        from repro.trace.synthetic import random_hierarchical_trace

        trace = random_hierarchical_trace(
            n_sites=4, clusters_per_site=3, hosts_per_cluster=6, seed=5
        )
    else:
        trace = _grid5000_trace()
    hierarchy = Hierarchy.from_trace(trace)
    start, end = trace.span()
    width = (end - start) / 10.0
    moves = 40 if quick else 200
    step = (end - start - width) / (moves - 1)
    slices = [
        TimeSlice(start + i * step, start + i * step + width)
        for i in range(moves)
    ]
    metrics = [CAPACITY, USAGE]
    # The analyst drags the slice across the trace and back, so every
    # move is one slide step; wrapping to the start instead would add a
    # jump across the whole trace that no drag makes.
    sweep = slices + slices[-2:0:-1]

    def slide(view_of):
        """Each call is one move to the next slice of the sweep."""
        grouping = GroupingState(hierarchy)
        grouping.collapse_depth(2)  # the site-level view of Fig. 8
        view_of(grouping, sweep[0])  # warm caches
        state = {"i": 0}

        def one_move():
            """Advance to the next slice of the sweep."""
            state["i"] = (state["i"] + 1) % len(sweep)
            return view_of(grouping, sweep[state["i"]])

        return one_move

    def make_scrub():
        """One incremental engine kept across moves."""
        engine = AggregationEngine(trace)
        return slide(lambda g, s: engine.view(g, s, metrics=metrics))

    def make_cold():
        """Scalar from-scratch recomputation on every move."""
        return slide(lambda g, s: aggregate_view(trace, g, s, metrics=metrics))

    shape = {"entities": len(trace), "moves": moves, "depth": 2}
    return [
        BenchCase("scrub_move", make_scrub, shape),
        BenchCase("cold_view", make_cold, shape),
    ]


@_suite("signals")
def _signals_suite(quick: bool) -> list[BenchCase]:
    """Batch operations over one long piecewise-constant signal."""
    import numpy as np

    from repro.trace.signal import SignalBuilder

    breakpoints = 2_000 if quick else 20_000
    windows = 256 if quick else 2_048
    builder = SignalBuilder()
    rng = random.Random(7)
    t = 0.0
    for _ in range(breakpoints):
        t += rng.random()
        builder.add(t, rng.choice((-1.0, 1.0)))
    signal = builder.build()
    end = t
    starts = np.linspace(0.0, end * 0.9, windows)
    ends = starts + end * 0.05
    at = np.linspace(0.0, end, windows)

    return [
        BenchCase(
            "integrate_many",
            lambda: (lambda: signal.integrate_many(starts, ends)),
            {"breakpoints": breakpoints, "windows": windows},
        ),
        BenchCase(
            "values_at_many",
            lambda: (lambda: signal.values_at_many(at)),
            {"breakpoints": breakpoints, "points": windows},
        ),
        BenchCase(
            "mean_many",
            lambda: (lambda: signal.mean_many(starts, ends)),
            {"breakpoints": breakpoints, "windows": windows},
        ),
    ]


#: The Grid'5000 views the full-mode ``render`` cases draw, by the
#: ``collapse_depth`` that produces them (0: every host and link).
_GRID_LEVELS = (("grid_hosts", 0), ("grid_clusters", 3), ("grid_sites", 2))


@_suite(
    "render",
    # Sections 1/6: even the ~4400-node host-level Grid'5000 view
    # renders interactively (full mode only: it needs the Grid'5000
    # simulation).
    *(Gate(name, ceiling=(None, 2.0)) for name, _ in _GRID_LEVELS),
)
def _render_suite(quick: bool) -> list[BenchCase]:
    """SVG generation time against view size."""
    from repro.core import AnalysisSession, SvgRenderer
    from repro.trace.synthetic import random_hierarchical_trace

    n_sites = 2 if quick else 8

    def make():
        """Settle one view, then time pure SVG markup generation."""
        trace = random_hierarchical_trace(
            n_sites=n_sites, clusters_per_site=4, hosts_per_cluster=16, seed=1
        )
        session = AnalysisSession(trace, seed=1)
        view = session.view(settle_steps=5)
        renderer = SvgRenderer(heat_fill=True)
        return lambda: renderer.render(view)

    def grid_renderer(depth: int):
        def make_grid():
            """One Grid'5000 level as the analyst first sees it."""
            session = AnalysisSession(_grid5000_trace(), seed=2)
            if depth:
                session.aggregate_depth(depth)
            view = session.view(settle_steps=2)
            renderer = SvgRenderer(heat_fill=True)
            return lambda: renderer.render(view)

        return make_grid

    cases = [BenchCase("svg_render", make, {"n_sites": n_sites})]
    if not quick:
        cases.extend(
            BenchCase(name, grid_renderer(depth),
                      {"trace": "grid5000", "depth": depth})
            for name, depth in _GRID_LEVELS
        )
    return cases


def star_platform(n_workers: int):
    """The ``sim`` suite's platform: a master and *n_workers* hosts
    behind one switch."""
    from repro.platform import Host, Link, Platform, Router

    p = Platform("bench")
    p.add_router(Router("switch"))
    p.add_host(Host("m", 1e9, path=("bench", "m")))
    p.add_link(Link("m-l", 1e9, path=("bench", "m-l")), "m", "switch")
    for i in range(n_workers):
        p.add_host(Host(f"w{i}", 1e9, path=("bench", f"w{i}")))
        p.add_link(
            Link(f"w{i}-l", 1e9, path=("bench", f"w{i}-l")),
            f"w{i}",
            "switch",
        )
    return p


def master_worker_sim(n_workers: int, tasks: int):
    """The ``sim`` suite's workload, spawned but not yet run: the master
    scatters *tasks* rounds of work to every worker of a
    :func:`star_platform`."""
    from repro.simulation import Simulator

    sim = Simulator(star_platform(n_workers))

    def worker(ctx):
        """Receive *tasks* messages, computing for each."""
        for _ in range(tasks):
            message = yield ctx.recv(f"in-{ctx.host.name}")
            yield ctx.execute(message.payload["flops"])

    def master(ctx):
        """Scatter *tasks* rounds of work to every worker."""
        for _ in range(tasks):
            for i in range(n_workers):
                yield ctx.send(f"w{i}", 1e5, f"in-w{i}", payload={"flops": 1e6})

    for i in range(n_workers):
        sim.spawn(worker, f"w{i}", f"worker-{i}")
    sim.spawn(master, "m", "master")
    return sim


@_suite("sim")
def _sim_suite(quick: bool) -> list[BenchCase]:
    """Discrete-event simulations, each built and run whole per call.

    ``master_worker`` is a small star with no monitor.
    ``grid_master_worker`` is the Section 5.2 pair on Grid'5000 (every
    cluster shrunk 8x when quick) under a
    :class:`~repro.simulation.UsageMonitor`: it pays the per-settle
    costs that grow with the platform — availability wakeups, link
    monitoring and the master's worker choice.
    """
    from repro.apps import paper_workload, run_master_worker
    from repro.platform import grid5000_platform, reduced_sites
    from repro.simulation import UsageMonitor

    n_workers = 4 if quick else 16
    tasks = 2 if quick else 4
    grid_tasks_per_worker = 0.5 if quick else 0.25

    def make():
        """Each call builds and runs the whole simulation."""
        return lambda: master_worker_sim(n_workers, tasks).run()

    def make_grid():
        """The platform is built once; each call runs a fresh monitor."""
        if quick:
            platform = grid5000_platform(sites=reduced_sites())
        else:
            platform = grid5000_platform()
        apps = paper_workload(platform, tasks_per_worker=grid_tasks_per_worker)

        def run():
            """One monitored simulation of both applications."""
            run_master_worker(platform, apps, monitor=UsageMonitor(platform))

        return run

    return [
        BenchCase(
            "master_worker",
            make,
            {"workers": n_workers, "tasks_per_worker": tasks},
        ),
        BenchCase(
            "grid_master_worker",
            make_grid,
            {
                "platform": "grid5000/8" if quick else "grid5000",
                "tasks_per_worker": grid_tasks_per_worker,
                "monitor": True,
            },
        ),
    ]


@_suite(
    "store",
    # Reopening a converted trace beats re-parsing its text form.
    Gate("text_reparse", over="cold_open", floor=(5.0, 5.0)),
)
def _store_suite(quick: bool) -> list[BenchCase]:
    """The columnar trace store: convert, cold-open, scrub via mmap.

    ``cold_open`` vs ``text_reparse`` is the headline pair — opening a
    converted ``.rtrace`` only validates the header, checksums the
    directory and maps the columns, while re-parsing the text form
    re-tokenizes every breakpoint.  The scrub pair prices the mmap
    bank's per-row bisection against the resident sweep on identical
    windows.
    """
    import tempfile

    from repro.trace.signalbank import SignalBank
    from repro.trace.store import open_store, write_store
    from repro.trace.synthetic import random_hierarchical_trace
    from repro.trace.writer import write_trace

    if quick:
        trace = random_hierarchical_trace(
            n_sites=3, clusters_per_site=3, hosts_per_cluster=6, seed=11
        )
    else:
        trace = random_hierarchical_trace(
            n_sites=6, clusters_per_site=4, hosts_per_cluster=10, seed=11
        )
    scratch = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
    root = Path(scratch.name)
    store_path = root / "bench.rtrace"
    text_path = root / "bench.trace"
    write_store(trace, store_path)
    write_trace(trace, text_path)
    metric = trace.metric_names()[0]
    start, end = trace.span()
    moves = 8 if quick else 32
    width = (end - start) / 10.0
    step = (end - start - width) / max(moves - 1, 1)
    windows = [
        (start + i * step, start + i * step + width) for i in range(moves)
    ]
    shape = {
        "entities": len(trace),
        "breakpoints": int(
            sum(len(s) for e in trace for s in e.metrics.values())
        ),
        "bytes": store_path.stat().st_size,
    }

    def make_convert():
        """Time a full streaming conversion (scratch holds the output)."""
        out = root / "rewrite.rtrace"
        return lambda: write_store(trace, out)

    def make_cold_open():
        """Header + CRC + directory decode + memmap, nothing else."""
        return lambda: open_store(store_path)

    def make_text_reparse():
        """The pre-store cold path: re-parse the text serialization."""
        from repro.trace.reader import read_trace

        return lambda: read_trace(text_path)

    def scrubber(bank):
        state = {"i": 0}

        def one_move():
            """One window query in the scripted slide loop."""
            state["i"] = (state["i"] + 1) % len(windows)
            a, b = windows[state["i"]]
            return bank.window_means(a, b)

        return one_move

    def make_mmap_scrub():
        """Window means straight off the stored columns."""
        keep = scratch  # noqa: F841 - pin the scratch dir's lifetime
        bank, _ = open_store(store_path).signal_bank(metric)
        return scrubber(bank)

    def make_resident_scrub():
        """The same windows on a fully resident bank."""
        rows = [e.metrics[metric] for e in trace if metric in e.metrics]
        return scrubber(SignalBank(rows))

    return [
        BenchCase("convert_write", make_convert, shape),
        BenchCase("cold_open", make_cold_open, shape),
        BenchCase("text_reparse", make_text_reparse, shape),
        BenchCase(
            "mmap_scrub", make_mmap_scrub, {**shape, "moves": moves}
        ),
        BenchCase(
            "resident_scrub", make_resident_scrub, {**shape, "moves": moves}
        ),
    ]


def server_workload(quick: bool):
    """The ``server`` suite's scrub storm: ``(trace, moves)``."""
    from repro.trace.synthetic import random_hierarchical_trace

    if quick:
        shape = dict(n_sites=6, clusters_per_site=4, hosts_per_cluster=12)
    else:
        shape = dict(n_sites=12, clusters_per_site=6, hosts_per_cluster=24)
    return random_hierarchical_trace(seed=13, **shape), 12 if quick else 24


@_suite(
    "server",
    # Concurrency is nearly free when sessions share their work.
    Gate("scrub_c8", over="scrub_solo", stat="p95_s", ceiling=(3.0, 3.0)),
)
def _server_suite(quick: bool) -> list[BenchCase]:
    """Multi-session server round trips: solo vs 8-way concurrency.

    Each case replays the same deterministic scrub storm through the
    full stack — WebSocket framing, canonical-JSON payloads, shared
    aggregation cache — and every *sample* is one request round trip,
    so the stats come straight from :func:`robust_stats` over the
    pooled latencies plus the p50/p95/p99 percentiles the gate reads:
    ``scrub_c8`` runs eight concurrent closed-loop sessions, and its
    p95 must stay within 3x the ``scrub_solo`` p95.
    """
    from repro.server.load import percentile, run_load

    trace, moves = server_workload(quick)
    # settle_steps=0: a scrub does not change the graph structure, so
    # the scrub-latency benchmark pins the layout at its radial seeds —
    # the measured work is aggregation + payload + transport, which is
    # what concurrency contends on (the differential tests exercise the
    # settling path separately).
    shape = {"entities": len(trace), "moves": moves, "settle_steps": 0}

    def storm_runner(sessions: int):
        def run(quick_flag: bool) -> dict:
            """One full load run; samples are request round trips."""
            report = run_load(
                trace=trace,
                sessions=sessions,
                moves=moves,
                settle_steps=0,
                keep_samples=True,
            )
            samples = report["latency"]["samples_s"]
            stats = robust_stats(samples)
            stats.update(
                repeats=len(samples),
                inner_loops=1,
                warmup=0,
                samples_s=samples,
                p50_s=percentile(samples, 50),
                p95_s=percentile(samples, 95),
                p99_s=percentile(samples, 99),
                throughput_rps=report["throughput_rps"],
                cache_cross_hits=report["cache"]["cross_hits"],
            )
            return stats

        return run

    return [
        BenchCase(
            "scrub_solo",
            runner=storm_runner(1),
            params={**shape, "sessions": 1},
        ),
        BenchCase(
            "scrub_c8",
            runner=storm_runner(8),
            params={**shape, "sessions": 8},
        ),
    ]


def causal_run(workers: int, tasks: int):
    """A master-worker run of *tasks* tasks on *workers* hosts under the
    causal tracer: the workload of the latency-analytics hot paths."""
    from repro.apps.masterworker import AppSpec, run_master_worker
    from repro.platform.cluster import add_cluster
    from repro.platform.topology import Platform
    from repro.simulation.tracing import CausalTracer

    tracer = CausalTracer()
    platform = Platform()
    add_cluster(platform, "c", workers + 1)
    hosts = [h.name for h in platform.hosts]
    spec = AppSpec(name="app", master=hosts[0], n_tasks=tasks,
                   input_bytes=1e6, task_flops=1e8)
    run_master_worker(platform, [spec], tracer=tracer)
    return tracer.build()


@_suite(
    "causal",
    # Interactive latency analytics on a large causal DAG.
    Gate("attribution", ceiling=(1.0, 1.0)),
    Gate("bands", ceiling=(1.0, 1.0)),
)
def _causal_suite(quick: bool) -> list[BenchCase]:
    """Latency analytics on the causal DAG (``repro latency``).

    Three hot paths over one master-worker causal trace: building the
    per-process / per-link :class:`~repro.obs.latency.LatencyAttribution`
    (a single pass over the edge list plus the critical-path walk),
    extracting the top-k propagation paths (the O(E log E) dynamic
    program), and aggregating the timeline's per-message arrows into
    communication bands (the rendering path that keeps the SVG element
    count bounded at any message count).  Full mode produces a >10k
    causal-edge DAG, the scale where per-message arrows stop being
    viable.
    """
    from repro.core.timeline import Timeline
    from repro.obs.latency import LatencyAttribution, propagation_paths

    workers, tasks = (4, 500) if quick else (16, 3400)
    causal = causal_run(workers, tasks)
    shape = {"workers": workers, "tasks": tasks, "edges": len(causal.edges)}
    timeline = Timeline.from_trace(causal.to_trace())

    return [
        BenchCase(
            "attribution",
            lambda: (lambda: LatencyAttribution(causal)),
            shape,
        ),
        BenchCase(
            "paths",
            lambda: (lambda: propagation_paths(causal, k=5)),
            {**shape, "k": 5},
        ),
        BenchCase(
            "bands",
            lambda: (lambda: timeline.bands(slices=64)),
            {**shape, "slices": 64, "arrows": len(timeline.arrows)},
        ),
    ]


# ----------------------------------------------------------------------
# Running and serializing
# ----------------------------------------------------------------------
def run_suite(name: str, quick: bool | None = None, **measure_kwargs) -> dict:
    """Run every case of suite *name*; return the result payload.

    The payload is the exact dict :func:`write_result` serializes:
    ``schema``/``suite``/``quick``/``created_unix``/``machine``, a
    ``cases`` mapping of case name to stats + params, and the
    :func:`check_gates` verdicts of the suite's gates under ``gates``.
    """
    if name not in _SUITES:
        raise KeyError(
            f"unknown bench suite {name!r} (have: {', '.join(_SUITES)})"
        )
    quick = quick_mode(quick)
    cases = {}
    for case in _SUITES[name](quick):
        if case.runner is not None:
            stats = case.runner(quick)
        else:
            fn = case.make()
            stats = measure(fn, quick=quick, **measure_kwargs)
        stats["params"] = case.params
        cases[case.name] = stats
    result = {
        "schema": SCHEMA,
        "suite": name,
        "quick": quick,
        "created_unix": time.time(),
        "argv": list(sys.argv),
        "machine": machine_fingerprint(),
        "cases": cases,
    }
    result["gates"] = check_gates(result, _GATES.get(name, ()))
    return result


def check_gates(result: dict, gates) -> list[dict]:
    """The verdict of every *gate* in effect for *result*'s mode.

    Each verdict names the gate, its kind, bound and measured value,
    and a status: ``"ok"``, ``"failed"``, ``"skipped"`` (the machine
    has fewer than ``min_cpus`` cores; the value is still recorded) or
    ``"missing"`` (a gated case is absent from the run — which fails,
    so renaming or dropping a case cannot silently drop its gate).
    """
    quick = bool(result["quick"])
    cases = result["cases"]
    cpus = result["machine"]["cpu_count"]
    verdicts = []
    for gate in gates:
        bound = gate.bound(quick)
        if bound is None:
            continue
        kind = "floor" if gate.floor is not None else "ceiling"
        verdict = {"gate": gate.label, "kind": kind, "bound": bound,
                   "value": None}
        if any(name not in cases for name in gate.cases):
            verdict.update(status="missing", failed=True)
            verdicts.append(verdict)
            continue
        value = cases[gate.case][gate.stat]
        if gate.over is not None:
            value /= max(cases[gate.over][gate.stat], 1e-12)
        verdict["value"] = value
        if cpus < gate.min_cpus:
            verdict.update(status="skipped", failed=False)
        else:
            held = value >= bound if kind == "floor" else value <= bound
            verdict.update(status="ok" if held else "failed", failed=not held)
        verdicts.append(verdict)
    return verdicts


def gates_failed(result: dict) -> bool:
    """Whether any gate verdict recorded in *result* failed."""
    return any(v["failed"] for v in result.get("gates", ()))


def result_path(out_dir: str | Path, suite: str) -> Path:
    """The canonical ``BENCH_<suite>.json`` path under *out_dir*."""
    return Path(out_dir) / f"BENCH_{suite}.json"


def write_result(result: dict, out_dir: str | Path) -> Path:
    """Serialize *result* to ``BENCH_<suite>.json`` under *out_dir*."""
    path = result_path(out_dir, result["suite"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_result(path: str | Path) -> dict:
    """Load one ``BENCH_<suite>.json``; validate the schema tag."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    schema = payload.get("schema", "")
    if not schema.startswith("repro-bench/"):
        raise ValueError(f"{path}: not a repro-bench result (schema={schema!r})")
    return payload


def format_result(result: dict) -> str:
    """The human table ``repro bench`` prints for one suite run."""
    lines = [
        f"{'case':<20} {'median ms':>10} {'iqr ms':>8} {'mad ms':>8} "
        f"{'reps':>5} {'loops':>6}"
    ]
    for name, stats in sorted(result["cases"].items()):
        lines.append(
            f"{name:<20} {stats['median_s'] * 1e3:>10.3f} "
            f"{stats['iqr_s'] * 1e3:>8.3f} {stats['mad_s'] * 1e3:>8.3f} "
            f"{stats['repeats']:>5} {stats['inner_loops']:>6}"
        )
    for v in result.get("gates", ()):
        op = ">=" if v["kind"] == "floor" else "<="
        value = "-" if v["value"] is None else f"{v['value']:.3g}"
        lines.append(
            f"gate {v['gate']:<34} {value:>8} {op} {v['bound']:<5g} "
            f"{v['status']}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Comparison (the regression gate)
# ----------------------------------------------------------------------
def compare_results(
    current: dict,
    baseline: dict,
    rel_tol: float = 0.5,
    iqr_k: float = 3.0,
) -> list[dict]:
    """Case-by-case comparison of *current* against *baseline*.

    A case **regresses** when its median exceeds the baseline median by
    more than the noise-aware threshold
    ``max(rel_tol * base_median, iqr_k * max(base_iqr, cur_iqr))`` —
    i.e. the slowdown must be both relatively large *and* outside the
    measured jitter band.  Cases present on only one side are reported
    with status ``"new"`` / ``"missing"`` but never fail the gate;
    comparing across quick modes raises :class:`ValueError` because the
    workloads differ by construction.
    """
    if current.get("quick") != baseline.get("quick"):
        raise ValueError(
            "refusing to compare across modes: current quick="
            f"{current.get('quick')!r} vs baseline quick="
            f"{baseline.get('quick')!r}"
        )
    out = []
    cur_cases = current["cases"]
    base_cases = baseline["cases"]
    for name in sorted(set(cur_cases) | set(base_cases)):
        cur = cur_cases.get(name)
        base = base_cases.get(name)
        if cur is None:
            out.append({"case": name, "status": "missing", "regressed": False})
            continue
        if base is None:
            out.append({"case": name, "status": "new", "regressed": False})
            continue
        threshold = max(
            rel_tol * base["median_s"],
            iqr_k * max(base["iqr_s"], cur["iqr_s"]),
        )
        excess = cur["median_s"] - base["median_s"]
        regressed = excess > threshold
        out.append(
            {
                "case": name,
                "status": "regressed" if regressed else "ok",
                "regressed": regressed,
                "base_median_s": base["median_s"],
                "cur_median_s": cur["median_s"],
                "ratio": cur["median_s"] / max(base["median_s"], 1e-12),
                "threshold_s": threshold,
            }
        )
    return out


def has_regression(comparisons: list[dict]) -> bool:
    """Whether any compared case regressed."""
    return any(c["regressed"] for c in comparisons)


def format_comparison(suite: str, comparisons: list[dict]) -> str:
    """The human table of one suite's regression-gate verdicts."""
    lines = [
        f"compare [{suite}]: {'case':<20} {'base ms':>9} {'cur ms':>9} "
        f"{'ratio':>6}  verdict"
    ]
    for comp in comparisons:
        if comp["status"] in ("new", "missing"):
            lines.append(
                f"compare [{suite}]: {comp['case']:<20} {'-':>9} {'-':>9} "
                f"{'-':>6}  {comp['status']}"
            )
            continue
        lines.append(
            f"compare [{suite}]: {comp['case']:<20} "
            f"{comp['base_median_s'] * 1e3:>9.3f} "
            f"{comp['cur_median_s'] * 1e3:>9.3f} "
            f"{comp['ratio']:>6.2f}  {comp['status']}"
        )
    return "\n".join(lines)
