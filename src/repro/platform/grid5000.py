"""A Grid'5000-like platform model (Section 5.2).

The paper's grid case study runs on "a realistic model of Grid5000 [7]
(with 2170 computing hosts)".  This module builds a synthetic platform
with the same scale and structure: ten sites spread over France (plus
Luxembourg), each hosting one to five clusters of heterogeneous nodes,
cluster switches uplinked to a site router, and site routers joined by a
Renater-like 10 Gbit/s backbone star.

Cluster names and the per-site layout follow the historical testbed;
node counts are tuned so the total is exactly **2170 hosts**, matching
the paper.  Host powers differ across clusters (older clusters are
slower), which is what makes per-host capacity visible in Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platform.model import (
    GBPS,
    GFLOPS,
    Link,
    LinkSharing,
    Router,
)
from repro.platform.cluster import add_cluster
from repro.platform.topology import Platform

__all__ = [
    "ClusterSpec",
    "SiteSpec",
    "GRID5000_SITES",
    "grid5000_platform",
    "reduced_sites",
]


@dataclass(frozen=True)
class ClusterSpec:
    """One cluster: name, number of hosts, per-host power (flops/s)."""

    name: str
    n_hosts: int
    host_power: float


@dataclass(frozen=True)
class SiteSpec:
    """One site: name and its clusters."""

    name: str
    clusters: tuple[ClusterSpec, ...]


#: The synthetic Grid'5000 inventory: 10 sites, 28 clusters, 2170 hosts.
GRID5000_SITES: tuple[SiteSpec, ...] = (
    SiteSpec(
        "bordeaux",
        (
            ClusterSpec("bordemer", 48, 2.0 * GFLOPS),
            ClusterSpec("bordeplage", 51, 2.2 * GFLOPS),
            ClusterSpec("bordereau", 93, 2.5 * GFLOPS),
        ),
    ),
    SiteSpec(
        "grenoble",
        (
            ClusterSpec("adonis", 34, 4.0 * GFLOPS),
            ClusterSpec("edel", 72, 3.8 * GFLOPS),
            ClusterSpec("genepi", 34, 3.2 * GFLOPS),
        ),
    ),
    SiteSpec(
        "lille",
        (
            ClusterSpec("chicon", 26, 2.1 * GFLOPS),
            ClusterSpec("chti", 20, 2.1 * GFLOPS),
            ClusterSpec("chuque", 53, 2.3 * GFLOPS),
            ClusterSpec("chinqchint", 46, 3.0 * GFLOPS),
        ),
    ),
    SiteSpec(
        "lyon",
        (
            ClusterSpec("capricorne", 56, 1.8 * GFLOPS),
            ClusterSpec("sagittaire", 79, 2.0 * GFLOPS),
            ClusterSpec("taurus", 16, 4.5 * GFLOPS),
        ),
    ),
    SiteSpec(
        "nancy",
        (
            ClusterSpec("grelon", 180, 2.4 * GFLOPS),
            ClusterSpec("griffon", 92, 3.6 * GFLOPS),
            ClusterSpec("graphene", 144, 3.4 * GFLOPS),
        ),
    ),
    SiteSpec(
        "orsay",
        (
            ClusterSpec("gdx", 402, 1.6 * GFLOPS),
            ClusterSpec("netgdx", 30, 1.6 * GFLOPS),
        ),
    ),
    SiteSpec(
        "rennes",
        (
            ClusterSpec("paradent", 64, 3.0 * GFLOPS),
            ClusterSpec("paramount", 33, 2.8 * GFLOPS),
            ClusterSpec("parapide", 25, 4.2 * GFLOPS),
            ClusterSpec("parapluie", 40, 3.9 * GFLOPS),
        ),
    ),
    SiteSpec(
        "sophia",
        (
            ClusterSpec("azur", 132, 1.7 * GFLOPS),
            ClusterSpec("helios", 56, 2.2 * GFLOPS),
            ClusterSpec("sol", 50, 2.6 * GFLOPS),
            ClusterSpec("suno", 45, 3.5 * GFLOPS),
            ClusterSpec("uvb", 44, 4.1 * GFLOPS),
        ),
    ),
    SiteSpec(
        "toulouse",
        (
            ClusterSpec("pastel", 110, 2.7 * GFLOPS),
            ClusterSpec("violette", 57, 1.9 * GFLOPS),
        ),
    ),
    SiteSpec(
        "luxembourg",
        (
            ClusterSpec("granduc", 22, 3.3 * GFLOPS),
            ClusterSpec("petitprince", 16, 3.7 * GFLOPS),
        ),
    ),
)

#: Total host count — must match the paper's "2170 computing hosts".
TOTAL_HOSTS = sum(c.n_hosts for s in GRID5000_SITES for c in s.clusters)


def reduced_sites(factor: int = 8) -> tuple[SiteSpec, ...]:
    """The Grid'5000 inventory with every cluster shrunk by *factor*
    (at least two hosts each): about 270 hosts at the default 8, the
    size the smoke runs and the quick benchmarks simulate."""
    return tuple(
        SiteSpec(
            site.name,
            tuple(
                ClusterSpec(c.name, max(2, c.n_hosts // factor), c.host_power)
                for c in site.clusters
            ),
        )
        for site in GRID5000_SITES
    )


def grid5000_platform(
    sites: tuple[SiteSpec, ...] = GRID5000_SITES,
    host_link_bandwidth: float = 1.0 * GBPS,
    cluster_uplink_bandwidth: float = 10.0 * GBPS,
    backbone_bandwidth: float = 10.0 * GBPS,
    backbone_latency: float = 5e-3,
    grid_name: str = "grid5000",
) -> Platform:
    """Build the Grid'5000-like platform.

    Topology per site: every host has a private 1 Gbit/s link to its
    cluster switch; every cluster switch has a 10 Gbit/s uplink to the
    site router; every site router has a 10 Gbit/s Renater link to a
    central backbone core.  All links are shared (contended), so both
    cluster uplinks and site backbone links can saturate — the locality
    effects of Fig. 8/9 depend on it.
    """
    platform = Platform(grid_name)
    core = platform.add_router(Router("renater", (grid_name, "renater")))
    for site in sites:
        site_path = (grid_name, site.name)
        router = platform.add_router(
            Router(f"{site.name}-rtr", site_path + (f"{site.name}-rtr",))
        )
        backbone_link = Link(
            f"bb-{site.name}",
            backbone_bandwidth,
            backbone_latency,
            (grid_name, f"bb-{site.name}"),
            LinkSharing.SHARED,
        )
        platform.add_link(backbone_link, router.name, core.name)
        for cluster in site.clusters:
            switch = add_cluster(
                platform,
                cluster.name,
                cluster.n_hosts,
                cluster.host_power,
                host_link_bandwidth,
                path_prefix=site_path,
            )
            uplink = Link(
                f"{cluster.name}-up",
                cluster_uplink_bandwidth,
                1e-4,
                site_path + (cluster.name, f"{cluster.name}-up"),
                LinkSharing.SHARED,
            )
            platform.add_link(uplink, switch.name, router.name)
    return platform
