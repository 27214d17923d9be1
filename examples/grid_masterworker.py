#!/usr/bin/env python
"""The grid case study of Section 5.2 (Figures 8 and 9).

Two non-cooperative master-worker applications compete on a Grid'5000
model: app1 is CPU-bound, app2 has a higher communication-to-computation
ratio; both masters use the bandwidth-centric strategy with a 3-task
prefetch buffer per worker.

The script reproduces:

* **Fig. 8** — the same time slice at four spatial aggregation levels
  (hosts, clusters, sites, grid), with host fill showing total
  utilization.  The per-application numbers are printed per site, where
  the paper's three phenomena are visible;
* **Fig. 9** — the animation through time at site level: workload
  diffusion (some sites fill before others), contrasted with a FIFO
  baseline that spreads work uniformly.

By default a reduced grid (~270 hosts) keeps the run under ~10 s; pass
``--full`` for the paper's 2170-host platform (its simulation takes a
few seconds).

Run:  python examples/grid_masterworker.py [--full]
"""

import argparse
import statistics
from collections import Counter
from pathlib import Path

from repro.apps import Policy, paper_workload, run_master_worker
from repro.core import AnalysisSession, VisualMapping, render_svg
from repro.platform import GRID5000_SITES, grid5000_platform, reduced_sites
from repro.simulation import UsageMonitor
from repro.trace import CAPACITY

OUT = Path(__file__).resolve().parent / "output"

LEVELS = {1: "grid", 2: "sites", 3: "clusters", 4: "hosts"}


def site_shares(platform, result, app):
    """Fraction of an app's tasks served per site."""
    served = result.app(app).served_per_worker
    total = sum(served.values()) or 1
    by_site = Counter()
    for worker, count in served.items():
        by_site[platform.host(worker).path[1]] += count
    return {site: count / total for site, count in by_site.most_common()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="use the full 2170-host platform")
    parser.add_argument("--tasks-per-worker", type=float, default=1.0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)

    sites = GRID5000_SITES if args.full else reduced_sites()
    platform = grid5000_platform(sites=sites)
    print(f"platform: {len(platform.hosts)} hosts, {len(platform.links)} links")

    app1, app2 = paper_workload(platform, tasks_per_worker=args.tasks_per_worker)
    print(f"app1 (CPU-bound):  master={app1.master}, {app1.n_tasks} tasks, "
          f"{app1.input_bytes / 1e6:.2f} MB in, {app1.task_flops / 1e9:.1f} GFlop")
    print(f"app2 (comm-heavy): master={app2.master}, {app2.n_tasks} tasks, "
          f"{app2.input_bytes / 1e6:.2f} MB in, {app2.task_flops / 1e9:.1f} GFlop")

    monitor = UsageMonitor(platform)
    result = run_master_worker(platform, [app1, app2], monitor=monitor)
    trace = monitor.build_trace()
    print(f"\nmakespan: {result.makespan:.1f}s simulated")

    # ------------------------------------------------------------------
    # Fig. 8: four levels of spatial aggregation, same time slice.
    # ------------------------------------------------------------------
    session = AnalysisSession(trace, seed=11)
    start, end = trace.span()
    session.set_time_slice(start, start + (end - start) / 3.0)
    for depth in (4, 3, 2, 1):
        if depth == 4:
            session.disaggregate_all()
        else:
            session.aggregate_depth(depth)
        view = session.view(settle_steps=150 if depth >= 3 else 300)
        print(f"Fig. 8 level '{LEVELS[depth]}': {len(view)} nodes")
        render_svg(
            view,
            OUT / f"fig8_level_{LEVELS[depth]}.svg",
            title=f"Grid'5000 at {LEVELS[depth]} level",
            heat_fill=True,
        )

    # The paper's phenomena, quantified per site:
    print("\nper-site share of served tasks (phenomenon 2: app2 locality):")
    for app in ("app1", "app2"):
        shares = site_shares(platform, result, app)
        top = ", ".join(f"{s}={v:.0%}" for s, v in list(shares.items())[:4])
        print(f"  {app}: {top}")

    # ------------------------------------------------------------------
    # Fig. 9: evolution across time at site level.
    # ------------------------------------------------------------------
    session.aggregate_depth(2)
    session.set_mapping(
        VisualMapping.paper_default().with_metrics(
            "host", CAPACITY, "usage_app1"
        )
    )
    frames = list(
        session.animate(width=(end - start) / 4.0, settle_steps=20)
    )
    print("\nFig. 9: app1 fill per site across four time slices:")
    site_keys = sorted(
        n.key for n in frames[0].nodes()
        if n.kind == "host" and n.is_aggregate
    )
    for key in site_keys[:10]:
        fills = [f.node(key).fill_fraction or 0.0 for f in frames]
        bar = " ".join(f"{fill:5.1%}" for fill in fills)
        print(f"  {key.split('::')[0]:>22}: {bar}")
    for index, frame in enumerate(frames):
        render_svg(
            frame,
            OUT / f"fig9_t{index}.svg",
            title=f"app1 usage, slice t{index} {frame.tslice}",
            heat_fill=True,
        )

    # ------------------------------------------------------------------
    # FIFO contrast (Fig. 9 discussion): "a simple FIFO mechanism would
    # not exhibit such locality and would exhibit an (inefficient)
    # uniform resource usage".  The contrast needs several serving
    # rounds, so it runs on a compact scenario where the task bag is a
    # few times the worker count.
    # ------------------------------------------------------------------
    contrast = grid5000_platform(sites=reduced_sites(24))
    c_app1, c_app2 = paper_workload(contrast, tasks_per_worker=1.0)
    from repro.apps import network_bound_app

    heavy = network_bound_app(
        c_app2.master, n_tasks=4 * (len(contrast.hosts) - 2), name="app2"
    )
    print("\nbandwidth-centric vs FIFO task concentration (comm-heavy app):")
    for policy in (Policy.BANDWIDTH_CENTRIC, Policy.FIFO):
        res = run_master_worker(contrast, [heavy], policy=policy)
        served = res.app("app2").served_per_worker
        counts = sorted(served.values())
        print(
            f"  {policy:>17}: {len(served)} workers touched, "
            f"gini = {gini(counts):.2f}, "
            f"top worker got {max(counts)} tasks"
        )
    print(f"\nSVGs written to {OUT}")


def gini(counts) -> float:
    """Gini coefficient of a task-count distribution (0 = uniform)."""
    if not counts or sum(counts) == 0:
        return 0.0
    ordered = sorted(counts)
    n = len(ordered)
    cumulative = sum((i + 1) * c for i, c in enumerate(ordered))
    return (2.0 * cumulative) / (n * sum(ordered)) - (n + 1.0) / n


if __name__ == "__main__":
    main()
