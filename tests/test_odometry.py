"""Yaw-rate/velocity preintegration and the distance-scaled uncertainty."""

import re

import numpy as np
import pytest

from helpers import checked_windows, integrate_fine, knot_information, \
    knot_preintegrate, window_pose
from se2fusion.errors import InsufficientCoverageError, \
    NonMonotonicTimestampsError
from se2fusion.odometry import OdometryStream, WindowEnds, \
    ZERO_ARC_INFORMATION, arc_information
from se2fusion.se2 import compose


def _stream(t_end=1.0, v=10.0, w=0.0, hz=25.0):
    t = np.arange(0.0, t_end, 1.0 / hz)
    return OdometryStream(t, np.full_like(t, w), np.full_like(t, v))


def _window(stream, t_start, t_end):
    # (dx, dy, heading_change, arc_length) of one window
    return np.concatenate(checked_windows(stream, t_start, t_end))


def test_straight_line_window():
    dx, dy, heading, arc = _window(_stream(), 0.0, 1.0)
    assert (dx, dy, heading) == pytest.approx((10.0, 0.0, 0.0), abs=1e-12)
    assert heading == pytest.approx(0.0, abs=1e-15)
    assert arc == pytest.approx(10.0, abs=1e-12)


def test_zero_velocity_gives_identity_and_lock():
    dx, dy, heading, arc = _window(_stream(v=0.0), 0.0, 1.0)
    assert (dx, dy, heading) == pytest.approx((0.0, 0.0, 0.0))
    assert arc == 0.0
    info = arc_information(arc)
    assert np.allclose(info, np.diag([ZERO_ARC_INFORMATION] * 3))
    assert ZERO_ARC_INFORMATION == 1e5


def test_constant_turn_matches_fine_integrator():
    stream = _stream(v=10.0, w=0.1)
    got = _window(stream, 0.0, 1.0)
    dx, dy, dth, arc = integrate_fine(stream.timestamps, stream.yaw_rates,
                                      stream.velocities, 0.0, 1.0)
    assert got[0] == pytest.approx(dx, abs=1e-4)
    assert got[1] == pytest.approx(dy, abs=1e-4)
    assert got[2] == pytest.approx(dth, abs=1e-6)
    assert got[3] == pytest.approx(arc, abs=1e-6)


def _wavy_stream():
    t = np.arange(0.0, 2.0 + 1e-9, 0.04)
    return OdometryStream(t, 0.3 * np.sin(t), 5.0 + np.sin(2.0 * t))


def test_varying_rates_match_fine_integrator():
    stream = _wavy_stream()
    got = _window(stream, 0.1, 1.9)
    dx, dy, dth, arc = integrate_fine(stream.timestamps, stream.yaw_rates,
                                      stream.velocities, 0.1, 1.9)
    # the 25 Hz midpoint rule carries its own O(dt^2) discretization error
    assert got[0] == pytest.approx(dx, abs=1e-3)
    assert got[1] == pytest.approx(dy, abs=1e-3)
    assert got[2] == pytest.approx(dth, abs=1e-6)


def test_chaining_at_interior_sample_timestamps():
    stream = _wavy_stream()
    for t_mid in (0.4, 1.0, 1.52):
        full = window_pose(stream, 0.2, 1.8)
        chained = compose(window_pose(stream, 0.2, t_mid),
                          window_pose(stream, t_mid, 1.8))
        assert np.allclose(chained.as_array(), full.as_array(), atol=1e-9)
        arcs = checked_windows(stream, [0.2, t_mid, 0.2],
                               [t_mid, 1.8, 1.8])[3]
        assert arcs[0] + arcs[1] == pytest.approx(arcs[2], abs=1e-9)


def test_velocity_reversal_negates_displacement():
    stream = _wavy_stream()
    flipped = OdometryStream(stream.timestamps, stream.yaw_rates,
                             -stream.velocities)
    fwd = _window(stream, 0.2, 1.8)
    rev = _window(flipped, 0.2, 1.8)
    assert rev[0] == pytest.approx(-fwd[0], abs=1e-12)
    assert rev[1] == pytest.approx(-fwd[1], abs=1e-12)
    assert rev[2] == pytest.approx(fwd[2], abs=1e-12)
    assert rev[3] == pytest.approx(fwd[3], abs=1e-12)


def test_information_scales_with_arc_length():
    arc = _window(_stream(t_end=10.0), 0.0, 10.0)[3]
    assert arc == pytest.approx(100.0, abs=1e-9)
    info = arc_information(arc)
    sig = 0.011 * 100.0
    assert info[0, 0] == pytest.approx(sig ** -2, rel=1e-9)
    assert info[0, 0] == pytest.approx(0.826, abs=5e-4)
    assert info[1, 1] == info[0, 0]
    assert info[2, 2] == pytest.approx((sig / 2.7) ** -2, rel=1e-9)


def test_covariance_symmetric_psd_for_random_windows():
    rng = np.random.default_rng(50)
    t = np.arange(0.0, 30.0, 0.04)
    stream = OdometryStream(t, 0.2 * np.sin(0.3 * t),
                            8.0 + 3.0 * np.sin(0.11 * t))
    a = rng.uniform(0.0, 25.0, 50)
    b = a + rng.uniform(0.1, 4.0, 50)
    for info in arc_information(checked_windows(stream, a, b)[3]):
        cov = np.linalg.inv(info)
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= 0.0
        assert np.min(np.diag(info)) > 0.0


def test_window_outside_recording_raises():
    stream = _stream()
    with pytest.raises(InsufficientCoverageError):
        checked_windows(stream, -1.0, 0.5)
    with pytest.raises(InsufficientCoverageError):
        checked_windows(stream, 0.5, 3.0)
    # sticking out by less than two sample periods is tolerated
    assert _window(stream, 0.0, 1.0)[3] == pytest.approx(10.0, abs=1e-12)


def test_internal_gap_raises():
    t = np.concatenate([np.arange(0.0, 1.0, 0.04),
                        np.arange(2.0, 3.0, 0.04)])
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 5.0))
    with pytest.raises(InsufficientCoverageError):
        checked_windows(stream, 0.5, 2.5)
    # windows that stay clear of the gap are fine
    checked_windows(stream, [0.1, 2.1], [0.9, 2.9])


def test_endpoints_interpolated_between_samples():
    stream = _wavy_stream()
    chained = compose(window_pose(stream, 0.25, 0.61),
                      window_pose(stream, 0.61, 1.03))
    full = window_pose(stream, 0.25, 1.03)
    # interior split points are not sample timestamps, so only near
    # agreement is expected from the interpolated knots
    assert np.allclose(chained.as_array(), full.as_array(), atol=1e-5)


def test_empty_or_reversed_window_rejected():
    stream = _stream()
    with pytest.raises(ValueError):
        checked_windows(stream, 0.5, 0.5)
    with pytest.raises(ValueError):
        checked_windows(stream, 0.8, 0.2)


def test_stream_validation():
    with pytest.raises(NonMonotonicTimestampsError):
        OdometryStream([0.0, 0.1, 0.1], [0.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):
        OdometryStream([], [], [])
    with pytest.raises(ValueError):
        OdometryStream([0.0, 0.1], [0.0], [1.0, 1.0])
    for t, w, v in (([0.0, np.nan, 2.0], [0.0] * 3, [1.0] * 3),
                    ([0.0, 1.0, np.inf], [0.0] * 3, [1.0] * 3),
                    ([0.0, 1.0, 2.0], [0.0, np.nan, 0.0], [1.0] * 3),
                    ([0.0, 1.0, 2.0], [0.0] * 3, [1.0, 1.0, -np.inf])):
        with pytest.raises(ValueError, match="must be finite"):
            OdometryStream(t, w, v)


def test_covariance_follows_drift_model():
    arc = _window(_stream(t_end=4.0, v=7.5), 0.0, 4.0)[3]
    sig = 0.011 * arc
    want = np.diag([sig ** 2, sig ** 2, (sig / 2.7) ** 2])
    assert np.allclose(np.linalg.inv(arc_information(arc)), want,
                       rtol=1e-12)


def test_gap_check_names_the_first_gap_overlapping_the_window():
    t = np.concatenate([np.arange(0.0, 1.0, 0.04),
                        np.arange(2.0, 3.0, 0.04),
                        np.arange(5.0, 6.0, 0.04)])
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 5.0))
    first = "gap of 1.04 s at t=0.96 overlaps"
    second = "gap of 2.04 s at t=2.96 overlaps"
    with pytest.raises(InsufficientCoverageError, match=first):
        checked_windows(stream, 0.5, 5.5)
    with pytest.raises(InsufficientCoverageError, match=first):
        checked_windows(stream, 1.5, 1.7)
    with pytest.raises(InsufficientCoverageError, match=second):
        checked_windows(stream, 2.5, 5.5)
    with pytest.raises(InsufficientCoverageError, match=second):
        checked_windows(stream, 2.96, 3.5)
    # windows clear of both gaps are covered
    checked_windows(stream, [2.0, 5.0, 0.0], [2.9, 5.9, 0.9])


# ---------------------------------------------------------------------------
# the running-integral window query against the per-window knot integrator

def _assert_matches_knots(stream, windows):
    """checked_windows and WindowEnds both equal the knot oracle to
    1e-12 on every window, and arc_information weighs each window as the
    oracle does."""
    starts = np.array([a for a, _ in windows])
    ends = np.array([b for _, b in windows])
    batch = np.stack(checked_windows(stream, starts, ends), axis=1)
    times = np.concatenate((starts, ends))
    table = WindowEnds(stream, times)
    k = np.arange(len(windows))
    paired = np.stack(table.windows(k, k + len(windows)), axis=1)
    info = arc_information(batch[:, 3])
    for n, (a, b) in enumerate(windows):
        want = np.array(knot_preintegrate(stream, a, b))
        assert np.max(np.abs(batch[n] - want)) <= 1e-12, (a, b)
        assert np.max(np.abs(paired[n] - want)) <= 1e-12, (a, b)
        np.testing.assert_allclose(info[n], knot_information(want[3]),
                                   rtol=1e-10)


def _turning_stream(t_end=40.0, hz=25.0):
    # a long curved drive, so the running integrals are far from zero
    t = np.arange(0.0, t_end, 1.0 / hz)
    return OdometryStream(t, 0.4 * np.sin(0.7 * t) + 0.05,
                          6.0 + 2.0 * np.cos(0.3 * t))


def test_window_query_matches_knots_on_random_windows():
    stream = _turning_stream()
    rng = np.random.default_rng(11)
    starts = rng.uniform(0.0, 35.0, size=40)
    windows = [(a, a + rng.uniform(0.01, 4.0)) for a in starts]
    _assert_matches_knots(stream, windows)


def test_window_query_without_raw_sample_inside():
    stream = _turning_stream()
    t = stream.timestamps
    _assert_matches_knots(stream, [
        (t[100] + 0.005, t[100] + 0.03),   # strictly between two samples
        (t[100], t[100] + 0.02),           # from a sample to mid-interval
        (t[100] + 0.02, t[101]),           # from mid-interval to a sample
        (t[100], t[101]),                  # exactly one raw interval
    ])


def test_window_query_ends_on_raw_timestamps():
    stream = _turning_stream()
    t = stream.timestamps
    _assert_matches_knots(stream, [(t[0], t[-1]), (t[3], t[4]),
                                   (t[10], t[250]), (t[10], t[250] + 0.013),
                                   (t[10] - 0.013, t[250])])


def test_window_query_inside_the_margin_beyond_the_span():
    stream = _turning_stream()
    t = stream.timestamps
    margin = stream.max_gap
    _assert_matches_knots(stream, [
        (t[0] - 0.9 * margin, t[30]), (t[-30], t[-1] + 0.9 * margin),
        (t[0] - margin, t[-1] + margin), (t[-1], t[-1] + margin),
        (t[-1] + 0.2 * margin, t[-1] + 0.7 * margin),
        (t[0] - margin, t[0] - 0.1 * margin)])


def test_window_query_with_velocity_changing_sign_at_the_ends():
    t = np.arange(0.0, 4.0, 0.04)
    v = 3.0 * np.cos(2.0 * t + 0.3)
    stream = OdometryStream(t, 0.3 * np.sin(2.0 * t), v)
    # the raw intervals the velocity crosses zero in, and where it does
    k = np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))
    zero = t[k] + v[k] / (v[k] - v[k + 1]) * 0.04
    before = t[k] + 0.3 * (zero - t[k])
    after = zero + 0.6 * (t[k + 1] - zero)
    windows = [(before[0], after[1]), (before[1], after[2]),
               (before[0], t[k[2]]), (t[k[0]], after[1]),
               (before[1], after[1]), (before[2], zero[2] + 1e-4)]
    for a, b in windows:
        # a head [a, first sample after a] or a tail [last sample before b,
        # b] over which the interpolated velocity changes sign, or both
        lo = np.searchsorted(t, a, side="right")
        hi = np.searchsorted(t, b, side="left")
        ends = np.interp([a, b], t, v)
        if lo < hi:
            straddles = ends[0] * v[lo] < 0.0 or v[hi - 1] * ends[1] < 0.0
        else:
            straddles = ends[0] * ends[1] < 0.0
        assert straddles, (a, b)
    _assert_matches_knots(stream, windows)


def test_window_query_through_a_standstill_locks_the_pose():
    t = np.arange(0.0, 12.0, 0.04)
    v = np.where((t > 4.0) & (t < 8.0), 0.0, 5.0 + np.sin(t))
    stream = OdometryStream(t, 0.2 * np.cos(t), v)
    _assert_matches_knots(stream, [(4.5, 7.5), (4.52, 4.53), (3.0, 9.0)])
    arc = _window(stream, 4.5, 7.5)[3]
    assert arc == 0.0
    np.testing.assert_allclose(arc_information(arc),
                               np.diag([ZERO_ARC_INFORMATION] * 3),
                               rtol=1e-12)


def test_window_query_raises_the_knot_integrators_coverage_errors():
    t = np.concatenate([np.arange(0.0, 1.0, 0.04),
                        np.arange(2.0, 3.0, 0.04),
                        np.arange(5.0, 6.0, 0.04)])
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 5.0))
    bad = [(0.5, 5.5), (1.5, 1.7), (2.5, 5.5), (2.96, 3.5), (-1.0, 0.5),
           (5.5, 7.0), (0.5, 0.5), (0.8, 0.2)]
    for a, b in bad:
        with pytest.raises((InsufficientCoverageError, ValueError)) as want:
            knot_preintegrate(stream, a, b)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            checked_windows(stream, a, b)
        # a batch raises for its first bad window
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            checked_windows(stream, [0.1, a, 5.1], [0.9, b, 0.2])
    _assert_matches_knots(stream, [(0.0, 0.9), (2.0, 2.96), (5.0, 5.9)])


def test_information_is_capped_at_the_standstill_value():
    arcs = np.concatenate(([0.0, 1e-12, 1e-6, 1e-3], np.linspace(0.01, 3.0,
                                                                 300)))
    info = np.diagonal(arc_information(arcs), axis1=1, axis2=2)
    standstill = info[0]
    np.testing.assert_allclose(standstill, ZERO_ARC_INFORMATION, rtol=1e-15)
    assert np.all(info <= standstill)
    # longer windows never get more information, on any axis
    assert np.all(np.diff(info, axis=0) <= 0.0)
    # the cap only binds below about 0.29 m (position) and 0.78 m (heading)
    long_arc = arcs > 0.78
    sig = 0.011 * arcs[long_arc]
    np.testing.assert_array_equal(info[long_arc, 0], 1.0 / sig ** 2)
    np.testing.assert_array_equal(info[long_arc, 2], 1.0 / (sig / 2.7) ** 2)
    assert np.all(info[arcs < 0.28] == standstill)
    # a creeping window gets no more than a standstill
    t = np.arange(0.0, 4.0, 0.04)
    creep = OdometryStream(t, np.zeros_like(t), np.full_like(t, 1e-6))
    arc = _window(creep, 1.0, 2.0)[3]
    assert 0.0 < arc < 1e-5
    np.testing.assert_array_equal(arc_information(arc), np.diag(standstill))


def test_arc_information_is_the_factor_information():
    stream = _turning_stream()
    arcs = np.array([0.0, 1e-3, 2.5, 40.0])
    info = arc_information(arcs)
    for k, arc in enumerate(arcs):
        np.testing.assert_allclose(info[k], knot_information(arc),
                                   rtol=1e-12)
    # and the weight of an integrated window is the oracle's for its arc
    arc = _window(stream, 3.0, 7.0)[3]
    np.testing.assert_allclose(
        arc_information(arc),
        knot_information(knot_preintegrate(stream, 3.0, 7.0)[3]),
        rtol=1e-12)
