"""The paper's contribution: scalable topology-based visualization.

Multi-scale space/time data aggregation (Section 3.2) combined with a
dynamic, interactive force-directed graph layout (Sections 3.3/4.2),
driven through :class:`AnalysisSession`.
"""

from repro.core.aggengine import (
    AggregationEngine,
    SharedTraceData,
    SliceCache,
)
from repro.core.aggregation import (
    AggregatedEdge,
    AggregatedUnit,
    AggregatedView,
    aggregate_view,
)
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.layout import (
    LAYOUT_KERNELS,
    ArrayQuadTree,
    BarnesHutLayout,
    DynamicLayout,
    ForceLayout,
    LayoutParams,
    NaiveLayout,
    QuadTree,
    ShardedBarnesHutLayout,
    make_layout,
    multilevel_seeds,
)
from repro.core.matrix import CommMatrix
from repro.core.mapping import SHAPES, NodeStyle, ShapeRule, VisualMapping
from repro.core.render import (
    AsciiRenderer,
    SvgRenderer,
    export_animation_html,
    render_ascii,
    render_svg,
)
from repro.core.scaling import ScaleSet
from repro.core.session import SEEDING_MODES, AnalysisSession
from repro.core.timeline import CommArrow, CommBand, StateSpan, Timeline
from repro.core.timeslice import TimeSlice, animation_frames
from repro.core.treemap import Treemap, TreemapCell, squarify
from repro.core.view import TopologyView
from repro.core.visgraph import VisEdge, VisGraph, VisNode, build_visgraph

__all__ = [
    "SEEDING_MODES",
    "SHAPES",
    "AggregatedEdge",
    "AggregatedUnit",
    "AggregationEngine",
    "SharedTraceData",
    "ArrayQuadTree",
    "AggregatedView",
    "AnalysisSession",
    "AsciiRenderer",
    "BarnesHutLayout",
    "DynamicLayout",
    "ForceLayout",
    "GroupingState",
    "Hierarchy",
    "LayoutParams",
    "NaiveLayout",
    "NodeStyle",
    "QuadTree",
    "ScaleSet",
    "ShapeRule",
    "SliceCache",
    "SvgRenderer",
    "CommArrow",
    "CommBand",
    "CommMatrix",
    "StateSpan",
    "TimeSlice",
    "Timeline",
    "Treemap",
    "TreemapCell",
    "TopologyView",
    "VisEdge",
    "VisGraph",
    "VisNode",
    "VisualMapping",
    "aggregate_view",
    "animation_frames",
    "build_visgraph",
    "export_animation_html",
    "LAYOUT_KERNELS",
    "ShardedBarnesHutLayout",
    "make_layout",
    "multilevel_seeds",
    "render_ascii",
    "render_svg",
    "squarify",
]
