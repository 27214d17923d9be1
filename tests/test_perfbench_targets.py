"""Every callable the end-to-end benchmark wraps still exists.

``perfbench/`` times the program from outside: its stage modules list
:class:`Target` entries (a module, optionally ``:Class``, and an
attribute) that its tracer replaces with timing wrappers.  A refactor
that renames or moves one of them only breaks a traced benchmark run,
so this test resolves every target of every stage in the regular suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STAGES = ("explore", "serve", "produce")


@pytest.fixture
def perfbench_path(monkeypatch):
    """Put ``perfbench/`` on ``sys.path``; drop the modules imported
    from it when the test ends."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield
    for name in set(sys.modules) - before:
        if str(PERFBENCH) in str(getattr(sys.modules[name], "__file__", None)):
            del sys.modules[name]


def test_every_span_target_resolves(perfbench_path):
    spans = importlib.import_module("spans")
    missing = []
    count = 0
    for stage in STAGES:
        for target in importlib.import_module(stage).TARGETS:
            count += 1
            try:
                getattr(spans._resolve(target.owner), target.attr)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{stage}: {target.owner} {target.attr} ({exc})")
    assert count > 0
    assert not missing, "perfbench wraps names that no longer exist:\n" + (
        "\n".join(missing)
    )
