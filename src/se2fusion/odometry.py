"""Preintegration of yaw-rate / velocity readings into relative pose factors.

A window [t_start, t_end] of wheel-odometry readings is compressed into a
single relative SE(2) transform plus a diagonal covariance that scales
with traveled arc length.  Integration rule: rates are linearly
interpolated onto the window knots (window ends plus every raw sample
inside); each inter-knot interval advances heading by half its increment,
translates along that midpoint heading, then advances the rest.  Splitting
a window at a raw sample timestamp and composing the two halves therefore
reproduces the full-window transform.
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


@dataclass(frozen=True)
class OdometrySample:
    timestamp: float
    yaw_rate: float
    velocity: float


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
        # sample k starts a recording gap when t[k+1] - t[k] > max_gap
        self._gaps = np.flatnonzero(dt > self.max_gap)
        self._gap_ends = t[self._gaps + 1]

    @classmethod
    def from_samples(cls, samples) -> "OdometryStream":
        samples = list(samples)
        return cls([s.timestamp for s in samples],
                   [s.yaw_rate for s in samples],
                   [s.velocity for s in samples])

    @classmethod
    def coerce(cls, odo) -> "OdometryStream":
        """`odo` itself when it is a stream, else a stream of its samples."""
        return odo if isinstance(odo, cls) else cls.from_samples(odo)

    def first_gap(self, t_start: float, t_end: float) -> int | None:
        """Sample index k of the first gap (t[k], t[k+1]) that overlaps
        the window (t_start, t_end), or None."""
        g = int(np.searchsorted(self._gap_ends, t_start, side="right"))
        if g < self._gaps.size and self.timestamps[self._gaps[g]] < t_end:
            return int(self._gaps[g])
        return None

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


def preintegrate(samples, t_start: float, t_end: float,
                 drift_fraction: float = 0.011,
                 length_scale: float = 2.7) -> PreintegratedOdometry:
    """Integrate the stream over [t_start, t_end] into one relative pose.

    The positional standard deviation is drift_fraction * arc_length per
    axis and the heading standard deviation is that divided by
    length_scale (a wheelbase-like length).  Zero traveled distance gets a
    covariance floor whose inverse is 1e5 on all axes, locking the pose
    down during standstill.  Windows not covered by the stream raise
    InsufficientCoverageError: endpoints further than two nominal sample
    periods outside the recorded span, or any recording gap longer than
    two nominal periods overlapping the window.
    """
    stream = OdometryStream.coerce(samples)
    if not t_end > t_start:
        raise ValueError("need t_start < t_end")
    t = stream.timestamps
    margin = stream.max_gap
    if t_start < t[0] - margin or t_end > t[-1] + margin:
        raise InsufficientCoverageError(
            f"window [{t_start:g}, {t_end:g}] extends past recorded "
            f"odometry [{t[0]:g}, {t[-1]:g}] by more than {margin:g} s")
    k = stream.first_gap(t_start, t_end)
    if k is not None:
        raise InsufficientCoverageError(
            f"odometry gap of {t[k + 1] - t[k]:g} s at t={t[k]:g} overlaps "
            "the requested window")

    lo = int(np.searchsorted(t, t_start, side="right"))
    hi = int(np.searchsorted(t, t_end, side="left"))
    knots = np.concatenate(([t_start], t[lo:hi], [t_end]))
    w = np.interp(knots, t, stream.yaw_rates)
    v = np.interp(knots, t, stream.velocities)

    dt = np.diff(knots)
    vbar = 0.5 * (v[:-1] + v[1:])
    wbar = 0.5 * (w[:-1] + w[1:])
    dtheta = wbar * dt
    theta_end = np.cumsum(dtheta)
    theta_mid = theta_end - 0.5 * dtheta
    seg = vbar * dt
    dx = float(np.sum(seg * np.cos(theta_mid)))
    dy = float(np.sum(seg * np.sin(theta_mid)))
    heading_change = float(theta_end[-1]) if dtheta.size else 0.0
    arc = float(np.sum(np.abs(seg)))

    if arc > 0.0:
        sig_pos = drift_fraction * arc
        sig_theta = sig_pos / length_scale
        cov = np.diag([sig_pos ** 2, sig_pos ** 2, sig_theta ** 2])
    else:
        cov = np.diag([1.0 / ZERO_ARC_INFORMATION] * 3)
    return PreintegratedOdometry(
        t_start=float(t_start), t_end=float(t_end),
        delta=Pose2(dx, dy, wrap_angle(heading_change)),
        heading_change=heading_change, arc_length=arc, covariance=cov)


def odometry_information(pre: PreintegratedOdometry) -> np.ndarray:
    """Information matrix of a preintegrated factor (inverse covariance)."""
    return np.diag(1.0 / np.diag(pre.covariance))
