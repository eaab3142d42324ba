"""Yaw-rate/velocity preintegration and the distance-scaled uncertainty."""

import math

import numpy as np
import pytest

from helpers import integrate_fine
from se2fusion.errors import InsufficientCoverageError, \
    NonMonotonicTimestampsError
from se2fusion.odometry import OdometryStream, \
    ZERO_ARC_INFORMATION, odometry_information, preintegrate
from se2fusion.se2 import compose


def _stream(t_end=1.0, v=10.0, w=0.0, hz=25.0):
    t = np.arange(0.0, t_end, 1.0 / hz)
    return OdometryStream(t, np.full_like(t, w), np.full_like(t, v))


def test_straight_line_window():
    pre = preintegrate(_stream(), 0.0, 1.0)
    assert pre.delta.as_array() == pytest.approx((10.0, 0.0, 0.0), abs=1e-12)
    assert pre.heading_change == pytest.approx(0.0, abs=1e-15)
    assert pre.arc_length == pytest.approx(10.0, abs=1e-12)


def test_zero_velocity_gives_identity_and_lock():
    pre = preintegrate(_stream(v=0.0), 0.0, 1.0)
    assert pre.delta.as_array() == pytest.approx((0.0, 0.0, 0.0))
    assert pre.arc_length == 0.0
    info = odometry_information(pre)
    assert np.allclose(info, np.diag([ZERO_ARC_INFORMATION] * 3))
    assert ZERO_ARC_INFORMATION == 1e5


def test_constant_turn_matches_fine_integrator():
    stream = _stream(v=10.0, w=0.1)
    pre = preintegrate(stream, 0.0, 1.0)
    dx, dy, dth, arc = integrate_fine(stream.timestamps, stream.yaw_rates,
                                      stream.velocities, 0.0, 1.0)
    assert pre.delta.x == pytest.approx(dx, abs=1e-4)
    assert pre.delta.y == pytest.approx(dy, abs=1e-4)
    assert pre.delta.theta == pytest.approx(dth, abs=1e-6)
    assert pre.arc_length == pytest.approx(arc, abs=1e-6)


def _wavy_stream():
    t = np.arange(0.0, 2.0 + 1e-9, 0.04)
    return OdometryStream(t, 0.3 * np.sin(t), 5.0 + np.sin(2.0 * t))


def test_varying_rates_match_fine_integrator():
    stream = _wavy_stream()
    pre = preintegrate(stream, 0.1, 1.9)
    dx, dy, dth, arc = integrate_fine(stream.timestamps, stream.yaw_rates,
                                      stream.velocities, 0.1, 1.9)
    # the 25 Hz midpoint rule carries its own O(dt^2) discretization error
    assert pre.delta.x == pytest.approx(dx, abs=1e-3)
    assert pre.delta.y == pytest.approx(dy, abs=1e-3)
    assert pre.delta.theta == pytest.approx(dth, abs=1e-6)


def test_chaining_at_interior_sample_timestamps():
    stream = _wavy_stream()
    for t_mid in (0.4, 1.0, 1.52):
        full = preintegrate(stream, 0.2, 1.8)
        left = preintegrate(stream, 0.2, t_mid)
        right = preintegrate(stream, t_mid, 1.8)
        chained = compose(left.delta, right.delta)
        assert np.allclose(chained.as_array(), full.delta.as_array(),
                           atol=1e-9)
        assert left.arc_length + right.arc_length == pytest.approx(
            full.arc_length, abs=1e-9)


def test_velocity_reversal_negates_displacement():
    stream = _wavy_stream()
    flipped = OdometryStream(stream.timestamps, stream.yaw_rates,
                             -stream.velocities)
    fwd = preintegrate(stream, 0.2, 1.8)
    rev = preintegrate(flipped, 0.2, 1.8)
    assert rev.delta.x == pytest.approx(-fwd.delta.x, abs=1e-12)
    assert rev.delta.y == pytest.approx(-fwd.delta.y, abs=1e-12)
    assert rev.delta.theta == pytest.approx(fwd.delta.theta, abs=1e-12)
    assert rev.arc_length == pytest.approx(fwd.arc_length, abs=1e-12)


def test_information_scales_with_arc_length():
    pre = preintegrate(_stream(t_end=10.0), 0.0, 10.0)
    assert pre.arc_length == pytest.approx(100.0, abs=1e-9)
    info = odometry_information(pre)
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
    for _ in range(50):
        a = rng.uniform(0.0, 25.0)
        b = a + rng.uniform(0.1, 4.0)
        pre = preintegrate(stream, a, b)
        cov = pre.covariance
        assert np.allclose(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= 0.0
        info = odometry_information(pre)
        assert np.min(np.diag(info)) > 0.0


def test_window_outside_recording_raises():
    stream = _stream()
    with pytest.raises(InsufficientCoverageError):
        preintegrate(stream, -1.0, 0.5)
    with pytest.raises(InsufficientCoverageError):
        preintegrate(stream, 0.5, 3.0)
    # sticking out by less than two sample periods is tolerated
    pre = preintegrate(stream, 0.0, 1.0)
    assert pre.t_end == 1.0


def test_internal_gap_raises():
    t = np.concatenate([np.arange(0.0, 1.0, 0.04),
                        np.arange(2.0, 3.0, 0.04)])
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 5.0))
    with pytest.raises(InsufficientCoverageError):
        preintegrate(stream, 0.5, 2.5)
    # a window that stays clear of the gap is fine
    preintegrate(stream, 0.1, 0.9)
    preintegrate(stream, 2.1, 2.9)


def test_endpoints_interpolated_between_samples():
    stream = _wavy_stream()
    a = preintegrate(stream, 0.25, 0.61)
    b = preintegrate(stream, 0.61, 1.03)
    full = preintegrate(stream, 0.25, 1.03)
    chained = compose(a.delta, b.delta)
    # interior split points are not sample timestamps, so only near
    # agreement is expected from the interpolated knots
    assert np.allclose(chained.as_array(), full.delta.as_array(), atol=1e-5)


def test_empty_or_reversed_window_rejected():
    stream = _stream()
    with pytest.raises(ValueError):
        preintegrate(stream, 0.5, 0.5)
    with pytest.raises(ValueError):
        preintegrate(stream, 0.8, 0.2)


def test_stream_validation():
    with pytest.raises(NonMonotonicTimestampsError):
        OdometryStream([0.0, 0.1, 0.1], [0.0] * 3, [1.0] * 3)
    with pytest.raises(ValueError):
        OdometryStream([], [], [])
    with pytest.raises(ValueError):
        OdometryStream([0.0, 0.1], [0.0], [1.0, 1.0])


def test_covariance_follows_drift_model():
    pre = preintegrate(_stream(t_end=4.0, v=7.5), 0.0, 4.0)
    sig = 0.011 * pre.arc_length
    want = np.diag([sig ** 2, sig ** 2, (sig / 2.7) ** 2])
    assert np.allclose(pre.covariance, want, rtol=1e-12)


def test_gap_check_names_the_first_gap_overlapping_the_window():
    t = np.concatenate([np.arange(0.0, 1.0, 0.04),
                        np.arange(2.0, 3.0, 0.04),
                        np.arange(5.0, 6.0, 0.04)])
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 5.0))
    first = "gap of 1.04 s at t=0.96 overlaps"
    second = "gap of 2.04 s at t=2.96 overlaps"
    with pytest.raises(InsufficientCoverageError, match=first):
        preintegrate(stream, 0.5, 5.5)
    with pytest.raises(InsufficientCoverageError, match=first):
        preintegrate(stream, 1.5, 1.7)
    with pytest.raises(InsufficientCoverageError, match=second):
        preintegrate(stream, 2.5, 5.5)
    with pytest.raises(InsufficientCoverageError, match=second):
        preintegrate(stream, 2.96, 3.5)
    # windows clear of both gaps are covered
    preintegrate(stream, 2.0, 2.9)
    preintegrate(stream, 5.0, 5.9)
    preintegrate(stream, 0.0, 0.9)
