"""Ablation — the Barnes-Hut opening angle theta.

DESIGN.md's layout section exposes ``theta`` as the accuracy/cost knob:
``theta = 0`` reproduces the exact O(n^2) forces, larger values
approximate more aggressively.  This bench quantifies the trade-off on
a clustered 1024-node graph: per-node interaction count (cost) and
relative force error versus exact (quality).
"""

import math
import random

import pytest

from repro.core import QuadTree

N = 1024
THETAS = (0.0, 0.3, 0.5, 0.7, 1.0, 1.5)


@pytest.fixture(scope="module")
def tree():
    rng = random.Random(3)
    # Clustered points: what aggregated platform views look like.
    points = []
    for __ in range(32):
        cx, cy = rng.uniform(-500, 500), rng.uniform(-500, 500)
        for __ in range(N // 32):
            points.append((cx + rng.gauss(0, 20), cy + rng.gauss(0, 20)))
    return QuadTree(points)


def measurements(tree, theta, sample):
    errors = []
    interactions = []
    for i in sample:
        exact = tree.force_on(i, charge=100.0, theta=0.0)
        approx = tree.force_on(i, charge=100.0, theta=theta)
        norm = math.hypot(*exact)
        if norm > 0:
            errors.append(
                math.hypot(approx[0] - exact[0], approx[1] - exact[1]) / norm
            )
        interactions.append(tree.interactions(i, theta))
    return (
        sum(errors) / len(errors),
        sum(interactions) / len(interactions),
    )


def test_theta_tradeoff(tree, report):
    sample = range(0, N, 16)
    rows = ["theta   mean force error   interactions/node"]
    series = {}
    for theta in THETAS:
        error, work = measurements(tree, theta, sample)
        series[theta] = (error, work)
        rows.append(f"{theta:5.1f}   {error:16.4%}   {work:17.1f}")
    report("ablation_theta", rows)
    # theta = 0 is exact.
    assert series[0.0][0] == pytest.approx(0.0, abs=1e-12)
    # Cost decreases monotonically with theta...
    works = [series[t][1] for t in THETAS]
    assert works == sorted(works, reverse=True)
    # ...error grows with theta but stays small at the default 0.7.
    assert series[0.7][0] < 0.05
    assert series[1.5][0] > series[0.3][0]
    # The default setting is a real win: >5x fewer interactions.
    assert series[0.7][1] < series[0.0][1] / 5
