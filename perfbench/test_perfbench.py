"""Tests of the benchmark itself.

The stage runs use the Grid'5000 inventory with every cluster shrunk
eightfold and shortened scripts, so they take seconds, not minutes.
Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.platform import GRID5000_SITES, ClusterSpec, SiteSpec, grid5000_platform

import explore
import produce
import run
import serve
import stage
from spans import Target, Tracer

STAGES = ("produce", "explore", "serve")
SEED = 5


def small_platform():
    """The Grid'5000 inventory with every cluster shrunk eightfold."""
    sites = tuple(
        SiteSpec(
            site.name,
            tuple(
                ClusterSpec(c.name, max(2, c.n_hosts // 8), c.host_power)
                for c in site.clusters
            ),
        )
        for site in GRID5000_SITES
    )
    return grid5000_platform(sites=sites)


def run_all(workdir: Path, seed: int, trace: bool) -> dict[str, dict]:
    """Every stage of one ``explore`` run, in this process: traced one
    after another, untraced interleaved as ``run.py`` schedules them."""
    if trace:
        return {name: stage.run_traced(name, workdir, seed) for name in STAGES}
    runners = {name: stage.Runner(name, workdir, seed) for name in STAGES}

    def do(name: str, command: str) -> float:
        runners[name].command(command)
        return 1.0  # two cycles of one explore and one serve round each

    run.drive("explore", 3.0, do)
    return {name: runners[name].command("finish") for name in STAGES}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two traced runs and one untraced run of the same seed."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(produce.grid5000, "grid5000_platform", small_platform)
        patch.setattr(explore, "AGG_GESTURES", 32)
        patch.setattr(explore, "DETAIL_GESTURES", 3)
        patch.setattr(serve, "OPEN_MOVES", 20)
        patch.setattr(serve, "CLOSED_MOVES", 20)
        patch.setattr(serve, "OPEN_RATE", 200.0)
        return {
            key: run_all(tmp_path_factory.mktemp(key), SEED, trace)
            for key, trace in (("a", True), ("b", True), ("plain", False))
        }


def counts(stage_name: str, layers: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics that count work rather than time it.

    Left out: the open-loop accounting, whose backlog depends on timing,
    and on ``serve`` the engine and signal-bank counters.  Two sessions
    ask for the same views; which one computes a view and which one
    finds it in the shared cache depends on how their frames interleave
    on the event loop, and a cache hit skips the engine's own work.
    """
    timing_dependent = ("load.",)
    if stage_name == "serve":
        timing_dependent += ("agg.", "bank.")
    return {
        name: value for name, value in layers.items()
        if not name.endswith(("_s", "_ratio", "_share", "_growing"))
        and not name.startswith(timing_dependent)
    }


def test_every_run_passes_its_output_checks(runs):
    for key, results in runs.items():
        for name, result in results.items():
            assert result["failed"] == 0, (key, name, result["problems"])
            assert result["attempted"] > 0


def test_same_seed_gives_same_digests_and_counts(runs):
    for name in STAGES:
        a, b = runs["a"][name], runs["b"][name]
        assert a["digests"] == b["digests"]
        assert counts(name, a["layers"]) == counts(name, b["layers"])
        assert counts(name, a["layers"])  # something was counted


def test_traced_and_untraced_runs_give_same_digests(runs):
    for name in STAGES:
        assert runs["a"][name]["digests"] == runs["plain"][name]["digests"]


def test_wrapped_children_tile_the_session_view(runs):
    layers = runs["a"]["explore"]["layers"]
    assert layers["session.view_calls"] > 0
    assert layers["session.unattributed_share"] < 0.05


def test_a_different_seed_gives_a_different_script(tmp_path):
    span, sites = (0.0, 100.0), [("grid5000", "a"), ("grid5000", "b")]
    assert explore.make_script(1, span, sites) != explore.make_script(2, span, sites)
    assert explore.make_script(1, span, sites) == explore.make_script(1, span, sites)
    orders = [produce.Produce(tmp_path, seed)._setup()[2] for seed in (1, 2)]
    assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])


class _Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return sum(range(n))


def test_tracer_records_nested_spans_and_restores_callables():
    original = _Toy.__dict__["outer"]
    targets = [
        Target(f"{__name__}:_Toy", "outer", "toy.outer", keep_self=True),
        Target(f"{__name__}:_Toy", "inner", "toy.inner", tally=float),
    ]
    toy = _Toy()
    with Tracer(targets) as tracer:
        assert toy.outer(1000) == sum(range(1000)) + 1
        toy.inner(10)
    assert _Toy.__dict__["outer"] is original
    summary = tracer.summary()
    assert summary["toy.outer"]["calls"] == 1
    assert summary["toy.inner"]["calls"] == 2
    outer, inner_nested = tracer.spans[0], tracer.spans[1]
    assert inner_nested[3] == 0 and tracer.spans[2][3] == -1
    assert summary["toy.outer"]["self_s"] == pytest.approx(
        (outer[2] - outer[1]) - (inner_nested[2] - inner_nested[1])
    )
    assert tracer.tallies["toy.inner"] == sum(range(1000)) + sum(range(10))
    assert list(tracer.instances["toy.outer"].values()) == [toy]


def test_run_fails_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
