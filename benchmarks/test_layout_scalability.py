"""Claim (Section 3.3) — Barnes-Hut makes the layout scale.

"The basic force-directed algorithm has severe performance problems on
scale — O(n^2) ... we adopt the scalable Barnes-hut algorithm —
O(n log n)."  Reproduced here by **interaction counts**: the naive pass
evaluates exactly ``n - 1`` pairwise interactions per node; Barnes-Hut
evaluates one per accepted cell, growing ~logarithmically with *n*.

The wall-time half of the claim (array vs scalar kernel, sharded vs
array) is a speedup floor of the ``layout`` suite of ``repro bench``.

Set ``REPRO_BENCH_QUICK=1`` to shrink sizes for CI smoke runs.
"""

import math
import random

from repro.core import QuadTree
from repro.obs import bench

QUICK = bench.quick_mode()

SIZES = (64, 256) if QUICK else (64, 256, 1024, 4096)


def test_interaction_counts_scale_n_log_n(report):
    rng = random.Random(1)
    lines = ["n      naive/node   barnes-hut/node   ratio"]
    per_node = {}
    for n in SIZES:
        points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]
        tree = QuadTree(points)
        sample = range(0, n, max(1, n // 64))
        bh = sum(tree.interactions(i, theta=0.7) for i in sample) / len(
            list(sample)
        )
        naive = n - 1
        per_node[n] = bh
        lines.append(
            f"{n:<6} {naive:11.0f}   {bh:15.1f}   {naive / bh:5.1f}x"
        )
    report("layout_scalability_interactions", lines)
    # Barnes-Hut per-node work grows far slower than n: quadrupling n
    # must not even double the per-node interaction count.
    for small, large in zip(SIZES, SIZES[1:]):
        assert per_node[large] < per_node[small] * 2.0
    # And the advantage over naive widens with n.
    assert (SIZES[-1] - 1) / per_node[SIZES[-1]] > (SIZES[0] - 1) / per_node[
        SIZES[0]
    ]


def test_barneshut_handles_grid_scale():
    """A 4000+-node layout converges in bounded time (the paper's
    host-level Grid'5000 view)."""
    n = 1024 if QUICK else 4096
    layout = bench.clustered_layout(n, seed=3)
    moved = layout.step()
    assert math.isfinite(moved)
    assert len(layout) == n
    # The timing counters attribute the step's cost.
    stats = layout.stats
    assert stats["cells"] > n
    assert stats["p2p_pairs"] > 0
    assert stats["build_s"] + stats["traverse_s"] > 0.0
