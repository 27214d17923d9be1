"""Tests for the layout seed memo of :class:`SharedTraceData`.

Every :class:`AnalysisSession` seeds new nodes through
``SharedTraceData.layout_seeds``, standalone sessions included (they own
a private instance).  The memo must therefore serve exactly what a
fresh seeding call would return, key on every input the seeding reads,
and stay bounded like the grouping structures next to it.
"""

from repro.core import AnalysisSession, SharedTraceData, multilevel_seeds
from repro.core.layout.forces import LayoutParams
from repro.core.layout.seeding import radial_seeds
from repro.trace.synthetic import random_hierarchical_trace


def expanded_view(trace):
    """A standalone session's fully detailed first view of *trace*."""
    session = AnalysisSession(trace, seed=3)
    return session, session.view(settle=False)


class TestMemoKey:
    def test_multilevel_seeds_follow_every_layout_param(self):
        """Two calls that differ only in ``charge`` must not share an
        entry: multilevel relaxation reads every LayoutParams field."""
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        session, view = expanded_view(trace)
        shared = SharedTraceData(trace)
        key = session.grouping.state_key
        first_params = LayoutParams()
        second_params = first_params.with_(charge=first_params.charge * 4)
        first = shared.layout_seeds(
            key, view.graph, first_params, mode="multilevel"
        )
        second = shared.layout_seeds(
            key, view.graph, second_params, mode="multilevel"
        )
        fresh, _levels = multilevel_seeds(
            shared.hierarchy, view.graph, params=second_params
        )
        assert second == fresh
        assert second != first
        assert shared.stats["seed_builds"] == 2

    def test_radial_seeds_use_params_spring_length(self):
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        session, view = expanded_view(trace)
        params = LayoutParams(spring_length=75.0)
        seeds = SharedTraceData(trace).layout_seeds(
            session.grouping.state_key, view.graph, params
        )
        assert seeds == radial_seeds(
            session.hierarchy, view.graph, spring_length=75.0
        )


class TestMemoBound:
    def test_memo_stays_under_the_structure_cap(self, monkeypatch):
        monkeypatch.setattr(SharedTraceData, "MAX_STRUCTURES", 3)
        trace = random_hierarchical_trace(n_sites=2, seed=4)
        session = AnalysisSession(trace, seed=3)
        shared = session._shared
        groups = session.hierarchy.groups()
        assert len(groups) > SharedTraceData.MAX_STRUCTURES
        for group in groups:
            session.disaggregate_all()
            session.aggregate(group)
            session.view(settle=False)
            assert len(shared._seeds) <= SharedTraceData.MAX_STRUCTURES
            assert len(shared._structures) <= SharedTraceData.MAX_STRUCTURES
        assert shared.stats["seed_builds"] == len(groups)
        assert shared.stats["seed_evictions"] == (
            len(groups) - SharedTraceData.MAX_STRUCTURES
        )


class TestStandaloneStorm:
    def test_memo_serves_fresh_seeds_once_per_grouping(self, monkeypatch):
        """Scrubs and regroups on a standalone session: every view's
        seeds equal a fresh ``radial_seeds`` call, and each distinct
        grouping state is seeded exactly once."""
        trace = random_hierarchical_trace(n_sites=3, seed=8)
        session = AnalysisSession(trace, seed=2)
        shared = session._shared
        served = []
        original = shared.layout_seeds

        def spy(*args, **kwargs):
            seeds = original(*args, **kwargs)
            served.append(seeds)
            return seeds

        monkeypatch.setattr(shared, "layout_seeds", spy)
        sites = session.hierarchy.groups_at_depth(2)
        start, end = trace.span()
        width = (end - start) / 5
        states = set()
        for step in range(36):
            kind = step % 6
            if kind == 2:
                session.aggregate_depth(1 + step % 3)
            elif kind == 4:
                session.disaggregate(sites[step % len(sites)])
            elif kind == 5:
                session.aggregate(sites[step % len(sites)])
            else:
                offset = (step * 0.37) % 1.0 * (end - start - width)
                session.set_time_slice(start + offset, start + offset + width)
            view = session.view(settle_steps=1)
            states.add(session.grouping.state_key)
            assert served[-1] == radial_seeds(
                session.hierarchy,
                view.graph,
                spring_length=session.dynamic.params.spring_length,
            )
        assert len(served) == 36
        assert len(states) > 1
        assert shared.stats["seed_builds"] == len(states)
        assert shared.stats["seed_shared_hits"] == 36 - len(states)
