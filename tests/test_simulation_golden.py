"""Golden bytes of simulated traces.

The simulator's hot paths (availability wakeups, link monitoring, the
master's worker choice, route latency) may be restructured for speed,
but the trace a run produces must not move by a single bit.  Each case
below simulates a workload under a :class:`UsageMonitor`, writes the
built trace to a columnar ``.rtrace`` store and pins the sha256 of the
file:

* the Section 5.2 master-worker pair on the Grid'5000 inventory with
  every cluster shrunk 8x (the CI smoke platform), under both master
  policies and two worker deployment orders — workers of one cluster
  share a static bandwidth estimate, so the bandwidth-centric master
  breaks many ties;
* a 2D stencil on a 3x3 torus whose availability profiles cover some
  hosts (two of them stepping at the same instants) and one link, but
  not all — same-time availability wakeups must keep their order;
* NAS-DT (white hole, class A) on the two-cluster platform, with
  message and process-state point events recorded.

A digest mismatch means the simulation changed, not just its speed.
"""

import dataclasses
import hashlib
import random

import pytest

from repro.apps import Policy, paper_workload, run_master_worker
from repro.apps.stencil import run_stencil
from repro.mpi import run_nas_dt, sequential_deployment, white_hole
from repro.platform import (
    Platform,
    grid5000_platform,
    reduced_sites,
    torus_platform,
    two_cluster_platform,
)
from repro.simulation import UsageMonitor
from repro.trace import Signal
from repro.trace.store import write_store


def _digest(monitor: UsageMonitor, tmp_path) -> str:
    path = tmp_path / "golden.rtrace"
    write_store(monitor.build_trace(), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


MASTER_WORKER_GOLDEN = {
    (Policy.BANDWIDTH_CENTRIC, 0):
        "dc9f4011b08607f0aa6c4b954e33ba9a81cc6973ca078fea30f5760e1156a0e5",
    (Policy.BANDWIDTH_CENTRIC, 1):
        "884033cdb224631e05e09b3e6b2818bafe6c6ab79210231171ad95a1269f166c",
    (Policy.FIFO, 0):
        "7b98ae425cc408d3d1d6ba9c0c8c2f6e04aab730ad80944072249b27232ad207",
    (Policy.FIFO, 1):
        "75ccd7dc59c54324e7562af54b12ea9166cd43314a09c87bd42b3b4f3ed754b6",
}


@pytest.mark.parametrize(
    "policy,shuffle", sorted(MASTER_WORKER_GOLDEN), ids=lambda v: str(v)
)
def test_master_worker_trace_bytes(policy, shuffle, tmp_path):
    platform = grid5000_platform(sites=reduced_sites())
    apps = paper_workload(platform, tasks_per_worker=1.0)
    masters = {app.master for app in apps}
    workers = [h.name for h in platform.hosts if h.name not in masters]
    random.Random(shuffle).shuffle(workers)
    monitor = UsageMonitor(platform)
    run_master_worker(
        platform, apps, workers=workers, policy=policy, monitor=monitor
    )
    assert _digest(monitor, tmp_path) == MASTER_WORKER_GOLDEN[policy, shuffle]


def _profiled_torus() -> Platform:
    """A 3x3 torus where three hosts and one link follow availability
    profiles; the other six hosts and seventeen links run at nominal
    capacity."""
    base = torus_platform((3, 3))
    host_profiles = {
        # Two hosts step at the same instants: their wakeups tie.
        "torus-0-1": Signal(
            [0.15, 0.6, 1.2, 1.8, 2.4], [0.5, 1.0, 0.25, 0.75, 1.0]
        ),
        "torus-2-2": Signal(
            [0.15, 0.6, 1.2, 1.8, 2.4], [0.8, 0.3, 1.0, 0.5, 0.9]
        ),
        "torus-1-1": Signal([0.05, 0.33, 1.5], [0.0, 0.6, 1.0]),
    }
    link_profiles = {
        "torus-0-0~0": Signal([0.1, 0.6, 1.1, 2.0], [0.2, 0.0, 1.0, 0.4]),
    }
    platform = Platform(base.name)
    for router in base.routers:
        platform.add_router(router)
    for host in base.hosts:
        platform.add_host(
            dataclasses.replace(host, availability=host_profiles.get(host.name))
        )
    for a, b, link_name in base.topology_edges():
        link = base.link(link_name)
        platform.add_link(
            dataclasses.replace(link, availability=link_profiles.get(link_name)),
            a,
            b,
        )
    return platform


STENCIL_GOLDEN = (
    "67a2d8022cecef99a88ec8bc3d8d7f4d6a8bc6c5a328c300eb422c02f4f5febe"
)


def test_stencil_with_partial_availability_trace_bytes(tmp_path):
    platform = _profiled_torus()
    monitor = UsageMonitor(platform)
    run_stencil(
        platform, platform.host_names(), grid=(3, 3), iterations=8,
        halo_bytes=1e7, monitor=monitor,
    )
    assert _digest(monitor, tmp_path) == STENCIL_GOLDEN


NASDT_GOLDEN = (
    "c9f88b66d75581cb3900569c03400cf87629a08f278911909d05225a805766db"
)


def test_nas_dt_trace_bytes(tmp_path):
    platform = two_cluster_platform()
    hosts = sorted(
        (h.name for h in platform.hosts),
        key=lambda n: (not n.startswith("adonis"), int(n.rsplit("-", 1)[1])),
    )
    graph = white_hole("A")
    monitor = UsageMonitor(platform, record_messages=True, record_states=True)
    run_nas_dt(
        platform, sequential_deployment(hosts, graph.n_nodes), graph, monitor
    )
    assert _digest(monitor, tmp_path) == NASDT_GOLDEN
