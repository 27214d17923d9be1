"""Stage ``explore``: one analyst in a closed loop on the stored trace.

A standalone :class:`~repro.core.AnalysisSession` (array layout kernel,
radial seeding) runs over the memory-mapped ``.rtrace`` file.  Nothing
is shared or memoised across views, so every view re-seeds, reads the
signal banks through the mmap ``SignalBank.locate`` path, and at full
detail puts the layout and the SVG renderer on the blocking path.

The seeded gesture script has three parts:

1. scrubs of a random time slice at aggregated depths 1 and 2, each
   view relaxed for two layout steps (the Fig. 8 posture);
2. every eighth gesture a regroup, cycling through: expand the
   middle-sized site, collapse it again, then flip to depth 1 and
   back to 2, twice;
3. full detail: expand everything (4423 nodes), then scrubs.

An SVG frame is rendered every ``SVG_EVERY``-th aggregated gesture and
on every full-detail frame.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import sys
import time
from pathlib import Path

from repro.core import AggregationEngine, AnalysisSession, TimeSlice
from repro.core.hierarchy import GroupingState, Hierarchy
from repro.core.render.svg import SvgRenderer
from repro.errors import ReproError
from repro.server.protocol import canonical_json, view_payload
from repro.trace import reader
from repro.trace import store as store_mod

from common import LAYOUT_SEED, SETTLE_STEPS, Digest, mean, p90, sha256
from spans import Target

#: Aggregated gestures per round (one in eight is a regroup).
AGG_GESTURES = 48
REGROUP_EVERY = 8
#: Scrubs at full detail per round.
DETAIL_GESTURES = 3
#: Render every SVG_EVERY-th aggregated gesture (and every detail frame).
#: Few aggregated frames keep full-detail frames the bulk of the SVG time.
SVG_EVERY = 24
#: Steps of the R2 sequence (Roberts 2018): 1/g and 1/g**2 for the
#: plastic number g.
R2 = (0.7548776662466927, 0.5698402909980532)
#: Regroups cycle through: expand a site, collapse it, then two depth
#: flips to 1 and back to 2.  One cycle per site.
REGROUP_CYCLE = ("expand", "collapse", 1, 2, 1, 2)
SITES_PER_ROUND = AGG_GESTURES // REGROUP_EVERY // len(REGROUP_CYCLE)

#: Layers under ``AnalysisSession.view``, wrapped in both session stages.
#: ``radial_seeds`` is wrapped where the session module calls it, so the
#: call inside ``SharedTraceData.layout_seeds`` is not counted twice.
SESSION_TARGETS = [
    Target("repro.core.session:AnalysisSession", "view", "session.view"),
    Target("repro.core.aggengine:AggregationEngine", "view", "agg.view",
           keep_self=True),
    Target("repro.trace.signalbank:SignalBank", "locate", "bank.locate"),
    Target("repro.trace.signalbank:SignalBank", "advance", "bank.advance"),
    Target("repro.core.session", "build_visgraph", "visgraph.build"),
    Target("repro.core.session", "radial_seeds", "seed"),
    Target("repro.core.aggengine:SharedTraceData", "layout_seeds", "seed",
           keep_self=True),
    Target("repro.core.layout.engine:DynamicLayout", "sync", "layout.sync"),
    Target("repro.core.layout.engine:DynamicLayout", "settle",
           "layout.settle", keep_self=True, tally=float),
    Target("repro.core.layout.engine:DynamicLayout", "positions",
           "layout.positions"),
]

TARGETS = [
    Target("repro.trace.store", "open_store", "store.open"),
    Target("repro.trace.store:TraceStore", "open_trace", "store.open"),
    Target("repro.core.render.svg:SvgRenderer", "render", "render.svg",
           tally=len),
] + SESSION_TARGETS
#: Spans whose self time is reported; ``session.view``'s self time is
#: reported as ``session.unattributed_s``.
SELF_TIMED = {"agg.view"}


def expandable_sites(hierarchy: Hierarchy) -> list[tuple[str, ...]]:
    """The ``SITES_PER_ROUND`` sites closest in size to the median site.

    Every round expands each of them once, so the share of gestures at
    partial detail, and its size, is the same for every seed.  Letting
    the seed draw among all ten sites (38 to 432 hosts) made the scrub
    tail depend on which sites it drew.
    """
    sites = hierarchy.groups_at_depth(2)
    sizes = {site: len(hierarchy.leaves(site)) for site in sites}
    middle = statistics.median(sizes.values())
    return sorted(sites, key=lambda s: (abs(sizes[s] - middle), s))[
        :SITES_PER_ROUND
    ]


def make_script(
    seed: int, span: tuple[float, float], sites: list[tuple[str, ...]]
) -> list[tuple[str, object]]:
    """The gesture list of one round: ``(kind, argument)`` pairs.

    Kinds: ``scrub`` and ``detail`` take a ``(start, end)`` slice,
    ``expand``/``collapse`` a site path, ``depth`` a depth, and
    ``expand_all`` nothing.
    """
    rng = random.Random(seed)
    start, end = span
    # Slice ends follow the R2 low-discrepancy sequence from a seeded
    # offset: each seed gets its own slices, but every seed's slices
    # cover the span as evenly, so rounds of different seeds do the
    # same amount of work.
    offset = (rng.random(), rng.random())
    count = 0

    def slice_() -> tuple[float, float]:
        nonlocal count
        count += 1
        a = start + ((offset[0] + count * R2[0]) % 1.0) * (end - start)
        b = start + ((offset[1] + count * R2[1]) % 1.0) * (end - start)
        return (a, b) if a <= b else (b, a)

    order = list(sites)
    rng.shuffle(order)
    script: list[tuple[str, object]] = []
    for index in range(AGG_GESTURES):
        if index % REGROUP_EVERY != REGROUP_EVERY - 1:
            script.append(("scrub", slice_()))
            continue
        cycle, step = divmod(index // REGROUP_EVERY, len(REGROUP_CYCLE))
        kind = REGROUP_CYCLE[step]
        if isinstance(kind, int):
            script.append(("depth", kind))
        else:
            script.append((kind, order[cycle % len(order)]))
    script.append(("expand_all", None))
    script.extend(("detail", slice_()) for _ in range(DETAIL_GESTURES))
    return script


def rendered(index: int, kind: str) -> bool:
    """Whether gesture *index* of the script gets an SVG frame."""
    return kind in ("detail", "expand_all") or index % SVG_EVERY == 0


def metric_of(kind: str) -> str:
    """The latency sample list a gesture kind feeds."""
    if kind == "scrub":
        return "scrub_ms"
    if kind == "detail":
        return "detail_ms"
    return "regroup_ms"


def values_digest(aggregated) -> str:
    """Digest of every unit's values, independent of unit order."""
    return sha256(json.dumps(
        sorted((key, unit.values) for key, unit in aggregated.units.items()),
        sort_keys=True,
    ))


def apply_to_session(session: AnalysisSession, kind: str, arg) -> None:
    if kind in ("scrub", "detail"):
        session.set_time_slice(*arg)
    elif kind == "expand":
        session.disaggregate(arg)
    elif kind == "collapse":
        session.aggregate(arg)
    elif kind == "depth":
        session.aggregate_depth(arg)
    else:
        session.disaggregate_all()


def apply_to_grouping(grouping: GroupingState, kind: str, arg) -> None:
    """What :func:`apply_to_session` does to the session's grouping."""
    if kind == "expand":
        grouping.expand(arg)
    elif kind == "collapse":
        grouping.collapse(arg)
    elif kind == "depth":
        grouping.expand_all()
        grouping.collapse_depth(arg)
    elif kind == "expand_all":
        grouping.expand_all()


class Explore:
    """Explore rounds for one seed over the files *workdir* holds."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.store_path = workdir / "grid.rtrace"
        self.text_path = workdir / "grid.trace"
        self.seed = seed
        self.span: tuple[float, float] | None = None
        self.script: list[tuple[str, object]] = []
        #: gesture index -> values digest, from the first round
        self._compared: dict[int, str] = {}

    def _setup(self) -> AnalysisSession:
        trace = store_mod.open_store(self.store_path).open_trace()
        session = AnalysisSession(trace, seed=LAYOUT_SEED)
        session.aggregate_depth(2)
        session.view(settle_steps=SETTLE_STEPS)
        return session

    def setup_once(self) -> float:
        began = time.perf_counter()
        self._setup().close()
        return time.perf_counter() - began

    def round(self) -> dict:
        began = time.perf_counter()
        session = self._setup()
        setup_s = time.perf_counter() - began
        if not self.script:
            self.span = session.trace.span()
            self.script = make_script(
                self.seed, self.span, expandable_sites(session.hierarchy)
            )
        samples: dict[str, list[float]] = {
            "scrub_ms": [], "regroup_ms": [], "detail_ms": [], "svg_ms": [],
        }
        payloads, frames = Digest(), Digest()
        renderer = SvgRenderer()
        compared: dict[int, str] = {}
        failed = 0
        for index, (kind, arg) in enumerate(self.script):
            start = time.perf_counter()
            try:
                apply_to_session(session, kind, arg)
                view = session.view(settle_steps=SETTLE_STEPS)
            except ReproError as error:
                failed += 1
                print(f"explore gesture {index} {kind}: {error}", file=sys.stderr)
                continue
            samples[metric_of(kind)].append((time.perf_counter() - start) * 1e3)
            finite = all(
                math.isfinite(x) and math.isfinite(y)
                for x, y in view.positions.values()
            )
            try:
                payload = canonical_json(view_payload(view))
            except ValueError:  # canonical JSON refuses NaN and infinities
                payload, finite = "", False
            payloads.add(payload)
            if not finite:
                failed += 1
            if rendered(index, kind):
                start = time.perf_counter()
                svg = renderer.render(view)
                samples["svg_ms"].append((time.perf_counter() - start) * 1e3)
                frames.add(svg)
                compared[index] = values_digest(view.aggregated)
        session.close()
        if not self._compared:
            self._compared = compared
        return {
            "setup_s": setup_s,
            "wall_s": time.perf_counter() - began,
            "samples": samples,
            "digests": {"payloads": payloads.hexdigest(),
                        "svg": frames.hexdigest()},
            "attempted": len(self.script),
            "failed": failed,
        }

    @staticmethod
    def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
        return {
            "scrub_mean_ms": mean(samples["scrub_ms"]),
            "scrub_p90_ms": p90(samples["scrub_ms"]),
            "regroup_mean_ms": mean(samples["regroup_ms"]),
            "detail_mean_ms": mean(samples["detail_ms"]),
            "svg_mean_ms": mean(samples["svg_ms"]),
        }

    def check(self) -> tuple[int, int, list[str]]:
        """Replay the script through an isolated engine on the resident
        trace; every rendered frame must match value for value."""
        resident = reader.read_trace(self.text_path)
        engine = AggregationEngine(resident)
        grouping = GroupingState(Hierarchy.from_trace(resident))
        grouping.collapse_depth(2)
        tslice = TimeSlice(*self.span)
        engine.view(grouping, tslice)
        failed, problems = 0, []
        for index, (kind, arg) in enumerate(self.script):
            apply_to_grouping(grouping, kind, arg)
            if kind in ("scrub", "detail"):
                tslice = TimeSlice(*arg)
            aggregated = engine.view(grouping, tslice)
            want = self._compared.get(index)
            if want is not None and values_digest(aggregated) != want:
                failed += 1
                if len(problems) < 5:
                    problems.append(
                        f"explore frame {index} ({kind}) differs from the "
                        "resident-trace engine"
                    )
        return len(self._compared), failed, problems

    @staticmethod
    def layers(tracer, plain: dict, traced: dict) -> dict[str, float]:
        out = session_layers(tracer)
        out["render.svg_bytes"] = tracer.tallies.get("render.svg", 0.0)
        return out


def session_layers(tracer) -> dict[str, float]:
    """Counters of the session path, read from the instances the traced
    round touched; shared by the explore and serve stages."""
    engines = list(tracer.instances.get("agg.view", {}).values())

    def agg(key: str) -> float:
        return float(sum(engine.stats.get(key, 0) for engine in engines))

    delta, full = agg("slice_delta"), agg("slice_full")
    shared = list(tracer.instances.get("seed", {}).values())
    builds = sum(s.stats["seed_builds"] for s in shared)
    hits = sum(s.stats["seed_shared_hits"] for s in shared)
    layouts = list(tracer.instances.get("layout.settle", {}).values())
    summary = tracer.summary()
    view = summary.get("session.view", {"total_s": 0.0, "self_s": 0.0})
    return {
        "agg.slice_delta": delta,
        "agg.slice_full": full,
        "agg.delta_ratio": delta / (delta + full) if delta + full else 0.0,
        "agg.struct_rebuilds": agg("struct_rebuilds"),
        "seed.memo_hit_ratio": hits / (builds + hits) if builds + hits else 0.0,
        "layout.steps": tracer.tallies.get("layout.settle", 0.0),
        "layout.traverse_s": float(
            sum(d.stats["total_traverse_s"] for d in layouts)
        ),
        "layout.build_s": float(sum(d.stats["total_build_s"] for d in layouts)),
        "session.unattributed_s": view["self_s"],
        "session.unattributed_share": (
            view["self_s"] / view["total_s"] if view["total_s"] else 0.0
        ),
    }
