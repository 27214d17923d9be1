"""Claim — concurrency is nearly free when sessions share their work.

The multi-session server's whole premise is that N analysts scrubbing
the same trace should not cost N times one analyst: the trace
structures are loaded once (``SharedTraceData``) and combined unit
values flow between sessions through the shared result cache.  The
latency half of the claim — 8-way-concurrent p95 round trips within 3x
the solo p95 — is the ceiling of the ``server`` suite of ``repro
bench``; this bench pins the cache accounting that explains it, on the
suite's own scrub-storm workload.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller trace,
same assertions).
"""

from repro.obs import bench
from repro.server.load import run_load


def test_shared_cache_carries_the_wave():
    """Within one concurrent wave, exactly one session computes each
    (slice, grouping, metric) triple; the rest hit the cache."""
    trace, moves = bench.server_workload(bench.quick_mode())
    sessions = 4
    result = run_load(
        trace=trace, sessions=sessions, moves=moves, settle_steps=0,
    )
    cache = result["cache"]
    # Every lookup resolves: hits + misses == lookups.
    assert cache["hits"] + cache["misses"] == cache["lookups"]
    # Each distinct triple is computed once (a put), and consumed by
    # the other sessions as hits: with S sessions replaying the same
    # storm, hits ≈ (S - 1) * puts.
    assert cache["puts"] > 0
    assert cache["hits"] >= (sessions - 2) * cache["puts"]
