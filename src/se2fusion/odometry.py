"""Preintegration of yaw-rate / velocity readings into relative pose factors.

A window [t_start, t_end] of wheel-odometry readings is compressed into a
single relative SE(2) transform plus a diagonal covariance that scales
with traveled arc length.  Integration rule: rates are linearly
interpolated onto the window knots (window ends plus every raw sample
inside); each inter-knot interval advances heading by half its increment,
translates along that midpoint heading, then advances the rest.

A stream integrates itself once, when it is built: heading, arc length
and dead-reckoned position running from its first sample to every raw
sample, in the stream's own frame.  A window with raw samples inside is
then its two partial end intervals, integrated directly, plus the
difference of the running integrals between its first and last inside
sample, rotated into the frame of the window's start heading; a window
with no raw sample inside is one interval.  Every window costs two
binary searches and a fixed number of operations whatever its length,
and `WindowEnds` prices any window between two of a set of times with
no search at all, and checks no coverage: `check_windows` does, over
the windows or the fix gaps that hold them.  Splitting a window at a
raw sample timestamp and composing the two halves reproduces the
full-window transform.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientCoverageError, NonMonotonicTimestampsError

# endpoints may stick out past the raw samples by at most this many
# nominal sample periods before the window is considered uncovered
_MAX_GAP_PERIODS = 2.0
# information on each axis when no distance was traveled, and its cap
ZERO_ARC_INFORMATION = 1e5
# positional standard deviation per meter traveled, per axis
DRIFT_FRACTION = 0.011
# wheelbase-like length turning the positional into a heading deviation
LENGTH_SCALE = 2.7


def _interval(w0, v0, w1, v1, dt):
    """Distance and heading change over dt, with the rates linear across it."""
    return 0.5 * (v0 + v1) * dt, 0.5 * (w0 + w1) * dt


def _running(terms: np.ndarray) -> np.ndarray:
    """Running sum with a leading zero: entry k sums terms[:k]."""
    out = np.zeros(terms.size + 1)
    np.cumsum(terms, out=out[1:])
    return out


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
        if not (np.isfinite(t).all() and np.isfinite(w).all()
                and np.isfinite(v).all()):
            raise ValueError("odometry timestamps and rates must be finite")
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
        # heading, arc length and position at every raw sample, integrated
        # from the first one in the stream's own frame
        seg, dtheta = _interval(w[:-1], v[:-1], w[1:], v[1:], dt)
        self._theta = _running(dtheta)
        self._arc = _running(np.abs(seg))
        mid = self._theta[:-1] + 0.5 * dtheta
        self._x = _running(seg * np.cos(mid))
        self._y = _running(seg * np.sin(mid))

    def reach(self, t_start) -> np.ndarray:
        """Latest covered window end for each window start.

        A window [a, b] is covered when b <= reach(a): neither end lies
        more than two nominal sample periods outside the recorded span and
        no recording gap longer than that overlaps it.  A start outside
        the span reaches -inf.
        """
        a = np.asarray(t_start, dtype=float)
        t = self.timestamps
        # the first gap ending after a is the first one a window can overlap
        g = np.searchsorted(self._gap_ends, a, side="right")
        first_gap = np.append(self._gap_starts, np.inf)[g]
        reach = np.minimum(first_gap, t[-1] + self.max_gap)
        return np.where(a < t[0] - self.max_gap, -np.inf, reach)

    def check_windows(self, t_start, t_end) -> None:
        """Raise for the first window [t_start[k], t_end[k]] that is empty
        (ValueError) or not covered (InsufficientCoverageError)."""
        a = np.atleast_1d(np.asarray(t_start, dtype=float))
        b = np.atleast_1d(np.asarray(t_end, dtype=float))
        bad = ~(b > a) | (b > self.reach(a))
        if not bad.any():
            return
        k = int(np.argmax(bad))
        a, b = float(a[k]), float(b[k])
        if not b > a:
            raise ValueError("need t_start < t_end")
        t = self.timestamps
        margin = self.max_gap
        if a < t[0] - margin or b > t[-1] + margin:
            raise InsufficientCoverageError(
                f"window [{a:g}, {b:g}] extends past recorded "
                f"odometry [{t[0]:g}, {t[-1]:g}] by more than {margin:g} s")
        g = int(np.searchsorted(self._gap_ends, a, side="right"))
        gap_start, gap_end = self._gap_starts[g], self._gap_ends[g]
        raise InsufficientCoverageError(
            f"odometry gap of {gap_end - gap_start:g} s at t={gap_start:g} "
            "overlaps the requested window")


class WindowEnds:
    """A set of times as window ends; any window between two costs O(1).

    For every time the stream's running integrals are carried to it
    twice, as rows (heading, arc, x, y) in the stream's frame: back from
    the first raw sample after it, for a window that starts there
    (`start`), and on from the last raw sample before it, for a window
    that ends there (`end`).  Coverage is not checked here.
    """

    def __init__(self, stream: OdometryStream, times):
        t = stream.timestamps
        w, v = stream.yaw_rates, stream.velocities
        tau = self.times = np.asarray(times, dtype=float)
        # first raw sample after each time, and first one at or after it
        self.lo = np.searchsorted(t, tau, side="right")
        self.hi = np.searchsorted(t, tau, side="left")
        self.w = np.interp(tau, t, w)
        self.v = np.interp(tau, t, v)
        # head interval [tau, t[lo]]
        k = np.minimum(self.lo, t.size - 1)
        seg, dth = _interval(self.w, self.v, w[k], v[k], t[k] - tau)
        theta = stream._theta[k] - dth
        mid = theta + 0.5 * dth
        self.start = np.stack((theta, stream._arc[k] - np.abs(seg),
                               stream._x[k] - seg * np.cos(mid),
                               stream._y[k] - seg * np.sin(mid)))
        # tail interval [t[hi - 1], tau]
        k = np.maximum(self.hi - 1, 0)
        seg, dth = _interval(w[k], v[k], self.w, self.v, tau - t[k])
        mid = stream._theta[k] + 0.5 * dth
        self.end = np.stack((stream._theta[k] + dth,
                             stream._arc[k] + np.abs(seg),
                             stream._x[k] + seg * np.cos(mid),
                             stream._y[k] + seg * np.sin(mid)))

    def windows(self, i, j):
        """(dx, dy, heading_change, arc_length) from times[i] to times[j].

        Elementwise over index arrays i and j; each window as the
        integration rule above gives it on its own knots.
        """
        heading, arc, px, py = self.end[:, j] - self.start[:, i]
        c = np.cos(self.start[0, i])
        s = np.sin(self.start[0, i])
        dx = c * px + s * py
        dy = c * py - s * px
        # no raw sample inside: the window is one interval
        single = self.lo[i] >= self.hi[j]
        seg, dth = _interval(self.w[i], self.v[i], self.w[j], self.v[j],
                             self.times[j] - self.times[i])
        return (np.where(single, seg * np.cos(0.5 * dth), dx),
                np.where(single, seg * np.sin(0.5 * dth), dy),
                np.where(single, dth, heading),
                np.where(single, np.abs(seg), arc))


def arc_information(arc) -> np.ndarray:
    """Information matrices (m, 3, 3) of windows with these arc lengths.

    The positional standard deviation is DRIFT_FRACTION * arc per axis
    and the heading standard deviation is that divided by LENGTH_SCALE.
    Each variance is floored at 1 / ZERO_ARC_INFORMATION: a standstill
    gets information 1e5 on all axes, locking the pose down, and no
    window gets more (the floor binds below about 0.78 m of arc).
    """
    sig = DRIFT_FRACTION * np.asarray(arc, dtype=float)
    var = np.stack((sig ** 2, sig ** 2, (sig / LENGTH_SCALE) ** 2), axis=-1)
    # row r of the identity over variance r: 1 / variance on the diagonal
    return np.eye(3) / np.maximum(var, 1.0 / ZERO_ARC_INFORMATION)[..., None]
