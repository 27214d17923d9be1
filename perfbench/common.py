"""Helpers shared by the three stages: statistics, memory, digests."""

from __future__ import annotations

import hashlib
import resource
import statistics
import sys

#: Layout seed every analysis session gets (the server's default, so the
#: standalone session, the server sessions and the oracle agree).
LAYOUT_SEED = 0
#: Layout relaxation steps per view (the server's default, Fig. 8 posture).
SETTLE_STEPS = 2


def p50(samples: list[float]) -> float:
    """Median of *samples*."""
    return statistics.median(samples)


def mean(samples: list[float]) -> float:
    """Arithmetic mean of *samples*.

    The central figure of the timings.  On a host whose speed switches
    between a fast and a slow level, the median of pooled samples jumps
    between the two levels as their shares of the run change, while
    the mean moves in proportion to the shares.
    """
    return statistics.fmean(samples)


def p90(samples: list[float]) -> float:
    """90th percentile of *samples* (inclusive method)."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """High-water resident set size of this process, in MB (1e6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def sha256(data: str | bytes) -> str:
    """Hex sha256 of *data* (text is encoded as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


class Digest:
    """A running sha256 over a stream of text or bytes items.

    Each item is length-prefixed, so the digest depends on where items
    begin and end, not only on their concatenation.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, item: str | bytes) -> None:
        data = item.encode("utf-8") if isinstance(item, str) else item
        self._hash.update(len(data).to_bytes(8, "little"))
        self._hash.update(data)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
