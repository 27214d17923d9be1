"""Platform descriptions: hosts, links, routes and testbed builders."""

from repro.platform.cluster import (
    NAS_DT_CLUSTERS,
    add_cluster,
    two_cluster_platform,
)
from repro.platform.grid5000 import (
    GRID5000_SITES,
    TOTAL_HOSTS,
    ClusterSpec,
    SiteSpec,
    grid5000_platform,
    reduced_sites,
)
from repro.platform.model import (
    GBPS,
    GFLOPS,
    MBPS,
    MFLOPS,
    Host,
    Link,
    LinkSharing,
    Route,
    Router,
)
from repro.platform.regular import fattree_platform, torus_platform
from repro.platform.topology import Platform

__all__ = [
    "GBPS",
    "GFLOPS",
    "GRID5000_SITES",
    "MBPS",
    "MFLOPS",
    "NAS_DT_CLUSTERS",
    "TOTAL_HOSTS",
    "ClusterSpec",
    "Host",
    "Link",
    "LinkSharing",
    "Platform",
    "Route",
    "Router",
    "SiteSpec",
    "add_cluster",
    "fattree_platform",
    "grid5000_platform",
    "reduced_sites",
    "torus_platform",
    "two_cluster_platform",
]
