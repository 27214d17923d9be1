"""Claim (Section 3.2.2) — spatial aggregation keeps the view tractable.

"Spatial aggregation also plays a major role in the scalability of the
topological-based representation": the Grid'5000 trace shrinks from
thousands of drawable units at host level to a handful at grid level,
while the aggregated totals stay exact.

The temporal half of the claim — sliding the time slice across the
trace fast enough to animate, which the incremental
:class:`~repro.core.AggregationEngine` achieves by integrating only the
delta windows each move uncovers — is the speedup floor of the
``aggregation`` suite of ``repro bench``.
"""

from repro.core import TimeSlice
from repro.core.aggregation import aggregate_view
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.trace import CAPACITY

LEVEL_NAMES = {0: "hosts", 3: "clusters", 2: "sites", 1: "grid"}


def test_view_size_per_level(grid_run, report):
    trace = grid_run["trace"]
    hierarchy = Hierarchy.from_trace(trace)
    start, end = trace.span()
    tslice = TimeSlice(start, end)
    lines = ["level     units   edges"]
    sizes = {}
    for depth in (0, 3, 2, 1):
        grouping = GroupingState(hierarchy)
        if depth:
            grouping.collapse_depth(depth)
        view = aggregate_view(
            trace, grouping, tslice, metrics=[CAPACITY]
        )
        sizes[depth] = len(view)
        lines.append(
            f"{LEVEL_NAMES[depth]:>8}  {len(view):6d}  {len(view.edges):6d}"
        )
    report("aggregation_scalability", lines)
    assert sizes[0] > 4000  # hosts + links + routers of 2170-host grid
    assert sizes[3] < sizes[0] / 10
    assert sizes[2] < 60
    assert sizes[1] <= 5
