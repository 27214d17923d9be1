"""Property-based tests for piecewise-constant signals.

Seeded random step functions are checked against an independent
brute-force Riemann integration (summing ``value * width`` over the
exact partition induced by the breakpoints) for ``integrate`` / ``mean``
/ ``combine``, in both scalar and batch (NumPy) form.  The strategies
deliberately generate zero-width slices, slices entirely before the
first breakpoint, and ``initial != 0``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SignalError
from repro.trace.signal import Signal, combine, constant
from repro.trace.signalbank import SignalBank

finite_values = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


@st.composite
def signals(draw, max_steps: int = 12):
    """A random step function; may be constant, may have initial != 0."""
    n = draw(st.integers(min_value=0, max_value=max_steps))
    start = draw(st.floats(min_value=-50.0, max_value=50.0))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=10.0),
            min_size=n,
            max_size=n,
        )
    )
    times = []
    t = start
    for gap in gaps:
        times.append(t)
        t += gap
    values = draw(st.lists(finite_values, min_size=n, max_size=n))
    initial = draw(finite_values)
    return Signal(times[:n], values, initial=initial)


@st.composite
def signals_and_window(draw):
    """A signal plus a window that may be degenerate or out of range."""
    signal = draw(signals())
    a = draw(st.floats(min_value=-80.0, max_value=200.0))
    width = draw(
        st.one_of(
            st.just(0.0),  # zero-width slice
            st.floats(min_value=0.0, max_value=150.0),
        )
    )
    return signal, a, a + width


def brute_integrate(signal: Signal, a: float, b: float) -> float:
    """Independent oracle: Riemann sum over the exact step partition."""
    points = sorted({a, b, *(t for t in signal.times if a < t < b)})
    return sum(
        signal.value_at(lo) * (hi - lo) for lo, hi in zip(points, points[1:])
    )


def assert_close(got, want, rtol=1e-9, atol=1e-9):
    assert got == pytest.approx(want, rel=rtol, abs=atol), (got, want)


@given(signals_and_window())
@settings(max_examples=200, deadline=None)
def test_integrate_matches_brute_force(case):
    signal, a, b = case
    assert_close(signal.integrate(a, b), brute_integrate(signal, a, b))


@given(signals_and_window())
@settings(max_examples=200, deadline=None)
def test_mean_is_integral_over_width_or_instantaneous(case):
    signal, a, b = case
    if a == b:
        assert signal.mean(a, b) == signal.value_at(a)
    else:
        assert_close(signal.mean(a, b), brute_integrate(signal, a, b) / (b - a))


@given(signals(), st.floats(min_value=-200.0, max_value=-100.5))
@settings(max_examples=60, deadline=None)
def test_window_before_first_breakpoint_uses_initial(signal, a):
    # Strategy times start at >= -50, so [a, a+0.25] lies strictly
    # before any breakpoint: the integral is initial * width.
    assert_close(signal.integrate(a, a + 0.25), signal.initial * 0.25)
    assert_close(signal.mean(a, a + 0.25), signal.initial)


@given(signals_and_window())
@settings(max_examples=120, deadline=None)
def test_batch_form_matches_scalar(case):
    """integrate_many/mean_many/values_at_many == their scalar loops."""
    signal, a, b = case
    starts = np.array([a, a, b, (a + b) / 2.0])
    ends = np.array([b, a, b, max(b, (a + b) / 2.0 + 1.0)])
    got = signal.integrate_many(starts, ends)
    want = [signal.integrate(lo, hi) for lo, hi in zip(starts, ends)]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)
    got_means = signal.mean_many(starts, ends)
    want_means = [signal.mean(lo, hi) for lo, hi in zip(starts, ends)]
    np.testing.assert_allclose(got_means, want_means, rtol=1e-9, atol=1e-9)
    at = np.array([a, b, a - 100.0, b + 100.0])
    np.testing.assert_array_equal(
        signal.values_at_many(at), [signal.value_at(t) for t in at]
    )


@given(st.lists(signals(max_steps=6), min_size=0, max_size=4), signals_and_window())
@settings(max_examples=80, deadline=None)
def test_combine_integral_is_sum_of_integrals(parts, case):
    _, a, b = case
    combined = combine(parts)
    assert_close(
        combined.integrate(a, b),
        sum(s.integrate(a, b) for s in parts),
        rtol=1e-9,
        atol=1e-6,
    )


@given(st.lists(signals(max_steps=6), min_size=1, max_size=4), finite_values)
@settings(max_examples=80, deadline=None)
def test_combine_pointwise_matches_value_at(parts, t):
    combined = combine(parts)
    assert_close(combined.value_at(t), sum(s.value_at(t) for s in parts))


@given(signals_and_window())
@settings(max_examples=80, deadline=None)
def test_signalbank_matches_per_signal_evaluation(case):
    """The flat bank agrees with per-signal scalar evaluation."""
    signal, a, b = case
    pool = [signal, constant(signal.initial), signal.scale(-2.0), constant(0.0)]
    bank = SignalBank(pool)
    np.testing.assert_allclose(
        bank.window_integrals(a, b),
        [s.integrate(a, b) for s in pool],
        rtol=1e-9,
        atol=1e-9,
    )
    np.testing.assert_allclose(
        bank.window_means(a, b),
        [s.mean(a, b) for s in pool],
        rtol=1e-9,
        atol=1e-9,
    )
    np.testing.assert_array_equal(
        bank.values_at(a), [s.value_at(a) for s in pool]
    )


@given(signals_and_window(), st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_signalbank_advance_equals_locate(case, delta):
    """Incremental cursor moves land exactly where a full bisect does."""
    signal, a, b = case
    pool = [signal, signal.shift(delta), constant(1.0)]
    bank = SignalBank(pool)
    idx = bank.locate(a)
    for t in (b, a + delta, a, b + delta, a - 50.0, b + 50.0):
        rounds = bank.advance(idx, t, max_rounds=10_000)
        assert rounds is not None
        np.testing.assert_array_equal(idx, bank.locate(t))


@given(signals())
@settings(max_examples=60, deadline=None)
def test_reversed_and_non_finite_windows_raise(signal):
    with pytest.raises(SignalError):
        signal.integrate(1.0, 0.0)
    with pytest.raises(SignalError):
        signal.mean(1.0, 0.0)
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SignalError):
            signal.integrate(bad, 2.0)
        with pytest.raises(SignalError):
            signal.mean(0.0, bad)


def linear_next_breakpoint(signal: Signal, t: float):
    """Oracle: the first breakpoint strictly after *t*, by a scan."""
    for breakpoint_time in signal.times:
        if breakpoint_time > t:
            return breakpoint_time
    return None


@st.composite
def signals_and_query(draw):
    """A signal plus a query time that may sit exactly on a breakpoint,
    before the first one or after the last one."""
    signal = draw(signals())
    candidates = [st.floats(min_value=-80.0, max_value=200.0)]
    if len(signal):
        first, last = signal.span()
        candidates += [
            st.sampled_from(signal.times),
            st.floats(min_value=first - 10.0, max_value=first, exclude_max=True),
            st.floats(min_value=last, max_value=last + 10.0),
        ]
    return signal, draw(st.one_of(*candidates))


@settings(max_examples=300, deadline=None)
@given(signals_and_query())
def test_next_breakpoint_matches_linear_scan(case):
    signal, t = case
    assert signal.next_breakpoint(t) == linear_next_breakpoint(signal, t)


def test_next_breakpoint_edges():
    signal = Signal([1.0, 2.0, 4.0], [5.0, 6.0, 7.0])
    assert signal.next_breakpoint(0.0) == 1.0
    assert signal.next_breakpoint(1.0) == 2.0  # strictly after
    assert signal.next_breakpoint(3.0) == 4.0
    assert signal.next_breakpoint(4.0) is None
    assert signal.next_breakpoint(9.0) is None
    assert constant(3.0).next_breakpoint(0.0) is None
