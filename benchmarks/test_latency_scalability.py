"""Claim — communication bands keep the timeline renderable at scale.

Per-message Gantt arrows are O(messages): a 10k-message run means 10k
``<line>`` elements and an SVG no browser pans smoothly.  The band
representation (*Scalable Representations of Communication in Gantt
Charts*) caps the communication layer at ``2 x groups x slices``
elements whatever the message count.  This bench runs the traced
master-worker app at two message scales, renders both modes, and pins
the acceptance bound: the arrow layer must grow with the messages while
the band layer stays within its bound — **independent** of message
count.  That band aggregation and attribution stay interactive (well
under a second at the 10k-message scale) is a ceiling of the ``causal``
suite of ``repro bench``, on the same large run.

Set ``REPRO_BENCH_QUICK=1`` for the CI smoke variant (smaller runs,
same assertions).
"""

from repro.core.timeline import Timeline
from repro.obs import bench
from repro.obs.latency import LatencyAttribution

QUICK = bench.quick_mode()

#: (workers, tasks) of the small and large runs.  The large run is the
#: ``causal`` suite's workload; in full mode it produces a >10k-edge
#: causal DAG — the scale the paper's related work says per-message
#: arrows stop being viable at.
SMALL = (4, 60)
LARGE = (4, 500) if QUICK else (16, 3400)

SLICES = 64


def test_band_element_count_independent_of_messages(report):
    small = bench.causal_run(*SMALL)
    large = bench.causal_run(*LARGE)
    if not QUICK:
        assert len(large.edges) > 10_000
    results = {}
    for name, causal in (("small", small), ("large", large)):
        timeline = Timeline.from_trace(causal.to_trace())
        bands = timeline.bands(slices=SLICES)
        band_markup = timeline.render_svg(mode="bands", slices=SLICES)
        arrow_markup = timeline.render_svg(mode="arrows")
        groups = len(set(timeline.groups.values()))
        results[name] = {
            "messages": len(timeline.arrows),
            "band_lines": band_markup.count("<line"),
            "arrow_lines": arrow_markup.count("<line"),
            "band_bound": 2 * groups * SLICES,
        }
        # The communication layer: arrows are O(messages), bands are
        # bounded by the slice grid however many messages there are.
        assert results[name]["arrow_lines"] == len(timeline.arrows)
        assert results[name]["band_lines"] <= results[name]["band_bound"]
        assert results[name]["band_lines"] == len(bands)

    # The headline: messages grew by >4x, the band layer did not.
    growth = results["large"]["messages"] / results["small"]["messages"]
    assert growth > 4.0
    assert (
        results["large"]["band_lines"] <= results["large"]["band_bound"]
        < results["large"]["messages"]
    )
    report("latency_bands", [
        "run     messages  band lines  bound  arrow lines",
        *(
            f"{name:<7} {r['messages']:8d}  {r['band_lines']:10d}  "
            f"{r['band_bound']:5d}  {r['arrow_lines']:11d}"
            for name, r in results.items()
        ),
    ])


def test_attribution_conserved_at_scale():
    """Attribution stays exact at the large message scale (the
    analytics half of the latency pipeline)."""
    attribution = LatencyAttribution(bench.causal_run(*LARGE))
    assert attribution.conserved(tol=1e-9)
