"""Platform primitives: hosts, routers, links and routes.

A platform is the *execution environment* the paper correlates traces
with: processing nodes with a computing power, interconnected by network
links with a bandwidth, arranged in a hierarchical topology
(host → cluster → site → grid).

Units are SI throughout: computing power in **flops/s**, bandwidth in
**bytes/s**, latency in **seconds**.  Helper constants (:data:`MFLOPS`,
:data:`GBPS`...) make descriptions readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from repro.errors import PlatformError
from repro.trace.signal import Signal

__all__ = [
    "Host",
    "Router",
    "Link",
    "Route",
    "LinkSharing",
    "MFLOPS",
    "GFLOPS",
    "MBPS",
    "GBPS",
]

#: One megaflop per second, in flops/s.
MFLOPS = 1e6
#: One gigaflop per second, in flops/s.
GFLOPS = 1e9
#: One megabit per second, in bytes/s.
MBPS = 1e6 / 8.0
#: One gigabit per second, in bytes/s.
GBPS = 1e9 / 8.0


class LinkSharing:
    """How concurrent flows share a link's bandwidth.

    * ``SHARED`` — all flows crossing the link (either direction) share
      its capacity under max-min fairness; the common case.
    * ``FATPIPE`` — every flow gets the full capacity (models an
      overprovisioned backbone that is never the bottleneck).
    """

    SHARED = "shared"
    FATPIPE = "fatpipe"
    ALL = (SHARED, FATPIPE)


def _check_availability(owner: str, availability: Signal | None) -> None:
    if availability is None:
        return
    samples = list(availability.values) + [availability.initial]
    if any(v < 0 for v in samples):
        raise PlatformError(f"{owner}: availability must be >= 0 everywhere")


@dataclass(frozen=True)
class Host:
    """A processing node.

    Parameters
    ----------
    name:
        Unique identifier.
    power:
        Nominal computing power in flops/s, shared fairly among
        concurrent compute activities.
    path:
        Hierarchy path ending with *name* (grid/site/cluster/host).
    availability:
        Optional step function multiplying the nominal power over time —
        the "available computing power" of Fig. 1 (external load,
        dynamic frequency...).  ``None`` means constant full power.
    """

    name: str
    power: float
    path: tuple[str, ...] = ()
    availability: Signal | None = None

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise PlatformError(f"host {self.name!r}: power must be > 0")
        if self.path and self.path[-1] != self.name:
            raise PlatformError(
                f"host {self.name!r}: path must end with the host name"
            )
        if not self.path:
            object.__setattr__(self, "path", (self.name,))
        _check_availability(f"host {self.name!r}", self.availability)

    def power_at(self, time: float) -> float:
        """Available computing power at *time* (flops/s)."""
        if self.availability is None:
            return self.power
        return self.power * self.availability(time)

    def next_availability_change(self, time: float) -> float | None:
        """The first availability breakpoint strictly after *time*."""
        return _next_breakpoint(self.availability, time)


@dataclass(frozen=True)
class Router:
    """A routing node (cluster switch, site router, backbone core).

    Routers forward traffic but run no computation and are not
    themselves monitored entities.
    """

    name: str
    path: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.path and self.path[-1] != self.name:
            raise PlatformError(
                f"router {self.name!r}: path must end with the router name"
            )
        if not self.path:
            object.__setattr__(self, "path", (self.name,))


@dataclass(frozen=True)
class Link:
    """A network link.

    Parameters
    ----------
    name:
        Unique identifier.
    bandwidth:
        Nominal capacity in bytes/s.
    latency:
        Traversal latency in seconds (added once per link on a route).
    path:
        Hierarchy path ending with *name*.
    sharing:
        One of :class:`LinkSharing` — ``shared`` (contended) or
        ``fatpipe`` (never a bottleneck).
    availability:
        Optional step function multiplying the nominal bandwidth over
        time — the "available bandwidth" of Fig. 1 (cross traffic,
        failures).  ``None`` means constant full bandwidth.
    """

    name: str
    bandwidth: float
    latency: float = 0.0
    path: tuple[str, ...] = ()
    sharing: str = LinkSharing.SHARED
    availability: Signal | None = None

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise PlatformError(f"link {self.name!r}: bandwidth must be > 0")
        if self.latency < 0:
            raise PlatformError(f"link {self.name!r}: latency must be >= 0")
        if self.sharing not in LinkSharing.ALL:
            raise PlatformError(
                f"link {self.name!r}: unknown sharing {self.sharing!r}"
            )
        if self.path and self.path[-1] != self.name:
            raise PlatformError(
                f"link {self.name!r}: path must end with the link name"
            )
        if not self.path:
            object.__setattr__(self, "path", (self.name,))
        _check_availability(f"link {self.name!r}", self.availability)

    def bandwidth_at(self, time: float) -> float:
        """Available bandwidth at *time* (bytes/s)."""
        if self.availability is None:
            return self.bandwidth
        return self.bandwidth * self.availability(time)

    def next_availability_change(self, time: float) -> float | None:
        """The first availability breakpoint strictly after *time*."""
        return _next_breakpoint(self.availability, time)


def _next_breakpoint(availability: Signal | None, time: float) -> float | None:
    if availability is None:
        return None
    return availability.next_breakpoint(time)


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between two hosts.

    ``latency`` and ``bottleneck`` are computed once per route, on first
    use: the links of a frozen route never change.
    """

    src: str
    dst: str
    links: tuple[Link, ...] = field(default_factory=tuple)

    @cached_property
    def latency(self) -> float:
        """Total latency of the route (sum of link latencies)."""
        return sum(link.latency for link in self.links)

    @cached_property
    def bottleneck(self) -> float:
        """Bandwidth of the narrowest shared link (inf if none)."""
        shared = [
            l.bandwidth for l in self.links if l.sharing == LinkSharing.SHARED
        ]
        return min(shared) if shared else float("inf")

    def __len__(self) -> int:
        return len(self.links)

    def __iter__(self) -> Iterable[Link]:
        return iter(self.links)
