"""Preintegration of yaw-rate / velocity readings into relative pose factors.

A window [t_start, t_end] of wheel-odometry readings is compressed into a
single relative SE(2) transform plus a diagonal covariance that scales
with traveled arc length.  Integration rule: rates are linearly
interpolated onto the window knots (window ends plus every raw sample
inside); each inter-knot interval advances heading by half its increment,
translates along that midpoint heading, then advances the rest.  Splitting
a window at a raw sample timestamp and composing the two halves therefore
reproduces the full-window transform, and the running sums of one
window's interval terms (`window_increments`) give the transform up to
each raw sample inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCoverageError, NonMonotonicTimestampsError
from .se2 import Pose2, wrap_angle

# endpoints may stick out past the raw samples by at most this many
# nominal sample periods before the window is considered uncovered
_MAX_GAP_PERIODS = 2.0
# information put on all three axes when no distance was traveled
ZERO_ARC_INFORMATION = 1e5
# positional standard deviation per meter traveled, per axis
DRIFT_FRACTION = 0.011
# wheelbase-like length turning the positional into a heading deviation
LENGTH_SCALE = 2.7


class OdometryStream:
    """Time-ordered yaw-rate and velocity readings with window lookup."""

    def __init__(self, timestamps, yaw_rates, velocities):
        t = np.asarray(timestamps, dtype=float)
        w = np.asarray(yaw_rates, dtype=float)
        v = np.asarray(velocities, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.shape != v.shape:
            raise ValueError("timestamps, yaw_rates and velocities must be "
                             "1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("odometry stream is empty")
        dt = np.diff(t)
        if np.any(dt <= 0.0):
            raise NonMonotonicTimestampsError(
                "odometry timestamps must be strictly increasing")
        self.timestamps = t
        self.yaw_rates = w
        self.velocities = v
        self.nominal_period = float(np.median(dt)) if t.size > 1 else 0.0
        self.max_gap = _MAX_GAP_PERIODS * self.nominal_period
        # recording gaps (t[k], t[k+1]) with t[k+1] - t[k] > max_gap
        gaps = np.flatnonzero(dt > self.max_gap)
        self._gap_starts = t[gaps]
        self._gap_ends = t[gaps + 1]

    def __len__(self) -> int:
        return int(self.timestamps.size)


@dataclass(frozen=True)
class PreintegratedOdometry:
    t_start: float
    t_end: float
    delta: Pose2
    heading_change: float
    arc_length: float
    covariance: np.ndarray


def window_increments(stream: OdometryStream, t_start: float, t_end: float):
    """Per-interval terms (seg, theta_mid, theta_end) of [t_start, t_end].

    One entry per inter-knot interval: the distance traveled, the heading
    it is traveled along and the heading at its end, relative to t_start.
    Interval i ends at the i-th raw sample inside the window, the last at
    t_end.  Raises InsufficientCoverageError when an endpoint lies more
    than two nominal sample periods outside the recorded span, or a
    recording gap longer than that overlaps the window.
    """
    if not t_end > t_start:
        raise ValueError("need t_start < t_end")
    t = stream.timestamps
    margin = stream.max_gap
    if t_start < t[0] - margin or t_end > t[-1] + margin:
        raise InsufficientCoverageError(
            f"window [{t_start:g}, {t_end:g}] extends past recorded "
            f"odometry [{t[0]:g}, {t[-1]:g}] by more than {margin:g} s")
    # the first gap ending after t_start is the first one that can overlap
    g = int(np.searchsorted(stream._gap_ends, t_start, side="right"))
    if g < stream._gap_ends.size and stream._gap_starts[g] < t_end:
        a, b = stream._gap_starts[g], stream._gap_ends[g]
        raise InsufficientCoverageError(
            f"odometry gap of {b - a:g} s at t={a:g} overlaps the requested "
            "window")

    lo = int(np.searchsorted(t, t_start, side="right"))
    hi = int(np.searchsorted(t, t_end, side="left"))
    knots = np.concatenate(([t_start], t[lo:hi], [t_end]))
    w = np.interp(knots, t, stream.yaw_rates)
    v = np.interp(knots, t, stream.velocities)

    dt = np.diff(knots)
    dtheta = 0.5 * (w[:-1] + w[1:]) * dt
    theta_end = np.cumsum(dtheta)
    return 0.5 * (v[:-1] + v[1:]) * dt, theta_end - 0.5 * dtheta, theta_end


def preintegrate(stream: OdometryStream, t_start: float,
                 t_end: float) -> PreintegratedOdometry:
    """Integrate the stream over [t_start, t_end] into one relative pose.

    The positional standard deviation is DRIFT_FRACTION * arc_length per
    axis and the heading standard deviation is that divided by
    LENGTH_SCALE.  Zero traveled distance gets a covariance floor whose
    inverse is 1e5 on all axes, locking the pose down during standstill.
    Coverage is checked as in `window_increments`.
    """
    seg, theta_mid, theta_end = window_increments(stream, t_start, t_end)
    dx = float(np.sum(seg * np.cos(theta_mid)))
    dy = float(np.sum(seg * np.sin(theta_mid)))
    heading_change = float(theta_end[-1])
    arc = float(np.sum(np.abs(seg)))

    if arc > 0.0:
        sig_pos = DRIFT_FRACTION * arc
        cov = np.diag([sig_pos ** 2, sig_pos ** 2,
                       (sig_pos / LENGTH_SCALE) ** 2])
    else:
        cov = np.diag([1.0 / ZERO_ARC_INFORMATION] * 3)
    return PreintegratedOdometry(
        t_start=float(t_start), t_end=float(t_end),
        delta=Pose2(dx, dy, wrap_angle(heading_change)),
        heading_change=heading_change, arc_length=arc, covariance=cov)


def odometry_information(pre: PreintegratedOdometry) -> np.ndarray:
    """Information matrix of a preintegrated factor (inverse covariance)."""
    return np.diag(1.0 / np.diag(pre.covariance))
