"""Tests for analysis-session save/restore."""

import json

import pytest

from repro.core import AnalysisSession
from repro.errors import AggregationError
from repro.trace.synthetic import figure3_trace, random_hierarchical_trace


def configured_session(trace=None):
    session = AnalysisSession(trace or figure3_trace(), seed=5)
    session.set_time_slice(0.2, 0.8)
    session.aggregate(("GroupB", "GroupA"))
    session.set_size_slider("host", 0.7)
    session.set_layout_params(charge=1234.0, spring=0.11)
    session.view()
    return session


class TestSaveLoad:
    def test_roundtrip_restores_everything(self, tmp_path):
        session = configured_session()
        before = session.view(settle_steps=0)
        path = session.save_state(tmp_path / "state.json")

        fresh = AnalysisSession(figure3_trace(), seed=99)
        fresh.load_state(path)
        assert fresh.time_slice == session.time_slice
        assert fresh.grouping.collapsed == session.grouping.collapsed
        assert fresh.scales.slider("host") == pytest.approx(0.7)
        assert fresh.dynamic.params.charge == 1234.0
        assert fresh.dynamic.params.spring == 0.11
        after = fresh.view(settle_steps=0)
        assert {n.key for n in after.nodes()} == {n.key for n in before.nodes()}
        for key in after.positions:
            assert after.position(key) == pytest.approx(before.position(key))

    def test_state_file_is_json(self, tmp_path):
        session = configured_session()
        path = session.save_state(tmp_path / "state.json")
        state = json.loads(path.read_text())
        assert state["version"] == 1
        assert state["time_slice"] == [0.2, 0.8]
        assert ["GroupB", "GroupA"] in state["collapsed"]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 99}))
        session = AnalysisSession(figure3_trace())
        with pytest.raises(AggregationError):
            session.load_state(path)

    def test_stale_groups_skipped(self, tmp_path):
        session = configured_session()
        path = session.save_state(tmp_path / "state.json")
        state = json.loads(path.read_text())
        state["collapsed"].append(["no", "such", "group"])
        state["positions"]["ghost-node"] = [1.0, 2.0]
        path.write_text(json.dumps(state))
        fresh = AnalysisSession(figure3_trace())
        fresh.load_state(path)  # must not raise
        assert ("GroupB", "GroupA") in fresh.grouping.collapsed

    def test_state_transfers_between_compatible_traces(self, tmp_path):
        """Typical flow: same platform, a new run's trace."""
        trace = random_hierarchical_trace(seed=1)
        session = AnalysisSession(trace, seed=1)
        session.aggregate_depth(2)
        session.view(settle_steps=30)
        path = session.save_state(tmp_path / "s.json")

        other = AnalysisSession(random_hierarchical_trace(seed=2), seed=7)
        other.load_state(path)
        view = other.view(settle_steps=0)
        assert any(n.is_aggregate for n in view.nodes())


def valid_state():
    """A well-formed state document for :func:`figure3_trace`."""
    return {
        "version": 1,
        "time_slice": [0.1, 0.9],
        "collapsed": [["GroupB", "GroupA"]],
        "sliders": {"host": 0.3},
        "layout_params": {"charge": 500.0},
        "positions": {},
    }


def without(field):
    state = valid_state()
    del state[field]
    return state


def with_(**fields):
    state = valid_state()
    state.update(fields)
    return state


MALFORMED = {
    "not_json": "{not json",
    "not_an_object": [1, 2],
    "no_time_slice": without("time_slice"),
    "time_slice_not_pair": with_(time_slice=[0.1]),
    "time_slice_text": with_(time_slice=["a", 0.9]),
    "time_slice_reversed": with_(time_slice=[0.9, 0.1]),
    "collapsed_not_paths": with_(collapsed=[5]),
    "collapsed_not_list": with_(collapsed="GroupB"),
    "slider_text": with_(sliders={"host": "high"}),
    "slider_out_of_range": with_(sliders={"host": 3.0}),
    "sliders_not_object": with_(sliders=[0.3]),
    "unknown_layout_param": with_(layout_params={"gravity": 1.0}),
    "bad_layout_param": with_(layout_params={"damping": 5.0}),
    "position_not_pair": with_(positions={"A1": 3.0}),
}


class TestMalformedState:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_rejected_before_anything_changes(self, tmp_path, name):
        session = configured_session()
        before = (
            session.time_slice,
            set(session.grouping.collapsed),
            session.scales.slider("host"),
            session.dynamic.params,
        )
        document = MALFORMED[name]
        path = tmp_path / "bad.json"
        path.write_text(
            document if isinstance(document, str) else json.dumps(document)
        )
        with pytest.raises(AggregationError):
            session.load_state(path)
        assert (
            session.time_slice,
            set(session.grouping.collapsed),
            session.scales.slider("host"),
            session.dynamic.params,
        ) == before

    def test_valid_document_applies(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(valid_state()))
        session = AnalysisSession(figure3_trace())
        session.load_state(path)
        assert session.time_slice.as_tuple() == (0.1, 0.9)
        assert ("GroupB", "GroupA") in session.grouping.collapsed
        assert session.scales.slider("host") == 0.3
        assert session.dynamic.params.charge == 500.0
