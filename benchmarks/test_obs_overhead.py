"""Acceptance bound — the repro.obs layer is free when disabled.

PR 3 threads ``span(...)`` context managers through every pipeline hot
path (trace read, slice/spatial aggregation, layout build/traverse, SVG
render, simulator settle).  The contract: with ``REPRO_OBS`` unset each
span call is a single flag check returning a shared no-op object, so the
recorded interactivity baselines must not regress by more than 5%.

Measured by projection rather than by re-running the (noise-prone)
end-to-end suites: time the disabled ``span()`` call itself with
:func:`repro.obs.bench.measure`, count how many span crossings the
baseline workloads perform per operation, and bound the projected
overhead against the committed per-operation medians: the ``layout``
suite's ``step_n512`` and the ``aggregation`` suite's ``scrub_move``.
"""

import json
from pathlib import Path

import pytest

from repro.obs import disable, enable, enabled
from repro.obs.bench import measure
from repro.obs.spans import span

ROOT = Path(__file__).parent.parent

#: Acceptance bound from ISSUE: <5% regression with REPRO_OBS unset.
MAX_OVERHEAD = 0.05

#: Span crossings per benchmark operation, counted from the span
#: placement: one layout step = 1 build + 1 traverse span; one scrub
#: move = 1 slice + 1 spatial span per metric (2 metrics in the bench).
SPANS_PER_LAYOUT_STEP = 2
SPANS_PER_SCRUB_MOVE = 4


def committed_median_s(suite: str, case: str) -> float:
    """The committed quick-mode median of one bench case."""
    payload = json.loads((ROOT / f"BENCH_{suite}.json").read_text())
    return payload["cases"][case]["median_s"]


def per_call_s(fn) -> float:
    """Median wall cost of one call of *fn*."""
    return measure(fn, quick=True)["median_s"]


def disabled_span():
    """Enter and exit one disabled span."""
    with span("bench.noop", key=1):
        pass


@pytest.fixture()
def obs_disabled():
    """Force the disabled (production default) state for the timing."""
    was = enabled()
    disable()
    yield
    if was:
        enable()


def test_disabled_span_overhead_within_bounds(obs_disabled, report):
    per_call = per_call_s(disabled_span)
    rows = [f"{'workload':<28} {'base s/op':>12} {'proj ovh':>9}"]
    checks = []
    for label, suite, case, spans in (
        ("layout step (array)", "layout", "step_n512", SPANS_PER_LAYOUT_STEP),
        ("aggregation scrub move", "aggregation", "scrub_move",
         SPANS_PER_SCRUB_MOVE),
    ):
        base = committed_median_s(suite, case)
        overhead = per_call * spans / base
        rows.append(f"{label:<28} {base:>12.6f} {overhead:>8.3%}")
        checks.append((label, overhead))
    rows.append(f"disabled span cost: {per_call * 1e9:.0f} ns/call")
    report("obs_overhead", rows)

    # An absolute sanity bound too: a flag check + constant return must
    # not cost microseconds.
    assert per_call < 5e-6, f"disabled span costs {per_call * 1e6:.2f} us"
    for name, overhead in checks:
        assert overhead < MAX_OVERHEAD, (
            f"projected obs overhead on {name} is {overhead:.2%} "
            f"(bound {MAX_OVERHEAD:.0%})"
        )


def test_disabled_span_records_nothing(obs_disabled):
    from repro.obs import registry

    registry.timer("bench.silent").reset()
    with span("bench.silent"):
        pass
    assert registry.timer("bench.silent").count == 0


# ----------------------------------------------------------------------
# Request-accounting overhead (the observability tentpole)
# ----------------------------------------------------------------------
def test_request_accounting_overhead_within_bounds(report):
    """The always-on per-request accounting (histogram + stat-group
    counters + self-trace ring; no access log, which is opt-in) stays
    under the 5% bound against the committed solo-scrub server
    baseline: one ``ServerTelemetry.observe`` per request."""
    from repro.obs import Histogram, registry
    from repro.server.telemetry import RequestRecord, ServerTelemetry

    histogram = Histogram("bench.hist")
    hist_cost = per_call_s(lambda: histogram.observe(0.002))
    telemetry = ServerTelemetry({})
    record = RequestRecord(
        session="bench", op="scrub", began_s=0.0, wall_s=0.002,
        bytes_in=64, bytes_out=1024, tier="shared", ok=True,
    )
    funnel_cost = per_call_s(lambda: telemetry.observe(record))
    registry.reset()

    payload = json.loads((ROOT / "BENCH_server.json").read_text())
    scrub_p50 = payload["cases"]["scrub_solo"]["p50_s"]
    overhead = funnel_cost / scrub_p50
    report("request_accounting_overhead", [
        f"histogram observe:  {hist_cost * 1e9:8.0f} ns/call",
        f"telemetry funnel:   {funnel_cost * 1e9:8.0f} ns/request",
        f"{'scrub_solo request':<28} {scrub_p50:>12.6f} {overhead:>8.3%}",
    ])
    # Absolute sanity: bucket bisect + locked increments are sub-µs,
    # the whole funnel low single-digit µs.
    assert hist_cost < 5e-6, f"histogram observe costs {hist_cost * 1e6:.2f} us"
    assert funnel_cost < 50e-6, (
        f"telemetry funnel costs {funnel_cost * 1e6:.2f} us"
    )
    assert overhead < MAX_OVERHEAD, (
        f"request accounting is {overhead:.2%} of the scrub_solo "
        f"p50 baseline (bound {MAX_OVERHEAD:.0%})"
    )


def test_disabled_span_parity_with_histogram_timer(obs_disabled):
    """Attaching a histogram to a timer must not change the disabled
    fast path: the span call never touches the timer at all."""
    from repro.obs import registry

    timer = registry.timer("bench.hist_parity", histogram=True)
    timer.reset()
    plain = per_call_s(disabled_span)
    with span("bench.hist_parity"):
        pass
    backed = per_call_s(disabled_span)
    assert timer.count == 0
    assert timer.histogram is not None and timer.histogram.count == 0
    # Same no-op singleton both ways: generous 3x guard against timing
    # noise, the contract being "no new code on the disabled path".
    assert backed < max(plain * 3, 1e-6)
    registry.reset()
