"""Differential test of the master's worker choice.

:class:`~repro.apps.masterworker.PendingRequests` serves requests from a
heap with lazily dropped entries.  It must pick, at every step, the
worker that a linear ``max`` over the arrival-ordered pending list
picks — the first-queued worker on a tied estimate — and keep arrival
order under FIFO.  The oracle below is that list scan, kept verbatim.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.masterworker import PendingRequests, Policy

WORKERS = [f"w{i}" for i in range(6)]
# Few distinct values, so estimates tie often.
ESTIMATES = st.sampled_from([1.0, 2.0, 2.0 + 2**-50, 3.0, 1e-3])


class ListOracle:
    """The pending list and ``max(range(len(pending)), key=...)`` scan."""

    def __init__(self, policy, estimates):
        self.policy = policy
        self.estimates = estimates
        self.pending = []

    def push(self, worker):
        self.pending.append(worker)

    def set_estimate(self, worker, estimate):
        self.estimates[worker] = estimate

    def pop(self):
        if self.policy == Policy.BANDWIDTH_CENTRIC:
            index = max(
                range(len(self.pending)),
                key=lambda i: self.estimates[self.pending[i]],
            )
        else:
            index = 0
        return self.pending.pop(index)


# One op: ("request", worker), ("done", worker, estimate) or ("pick",).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.sampled_from(WORKERS)),
        st.tuples(st.just("done"), st.sampled_from(WORKERS), ESTIMATES),
        st.tuples(st.just("pick")),
    ),
    max_size=120,
)


@settings(max_examples=400, deadline=None)
@given(
    policy=st.sampled_from(Policy.ALL),
    initial=st.lists(ESTIMATES, min_size=len(WORKERS), max_size=len(WORKERS)),
    ops=OPS,
)
def test_same_worker_as_list_scan(policy, initial, ops):
    selector = PendingRequests(policy, dict(zip(WORKERS, initial)))
    oracle = ListOracle(policy, dict(zip(WORKERS, initial)))
    for op in ops:
        if op[0] == "request":
            selector.push(op[1])
            oracle.push(op[1])
        elif op[0] == "done":
            selector.set_estimate(op[1], op[2])
            oracle.set_estimate(op[1], op[2])
        elif oracle.pending:
            assert selector.pop() == oracle.pop()
        assert len(selector) == len(oracle.pending)
        assert bool(selector) == bool(oracle.pending)
    while oracle.pending:
        assert selector.pop() == oracle.pop()
    assert not selector


def test_tie_goes_to_first_queued():
    selector = PendingRequests(
        Policy.BANDWIDTH_CENTRIC, {"a": 1.0, "b": 2.0, "c": 2.0}
    )
    for worker in ["a", "c", "b", "c"]:
        selector.push(worker)
    assert [selector.pop() for _ in range(2)] == ["c", "b"]
    # A raised estimate overtakes; a lowered one falls behind.
    selector.set_estimate("a", 5.0)
    selector.set_estimate("c", 0.5)
    assert [selector.pop() for _ in range(2)] == ["a", "c"]


def test_fifo_keeps_arrival_order():
    selector = PendingRequests(Policy.FIFO, {"a": 1.0, "b": 9.0})
    for worker in ["a", "b", "a"]:
        selector.push(worker)
    selector.set_estimate("a", 100.0)
    assert [selector.pop() for _ in range(3)] == ["a", "b", "a"]
