"""Trajectory quality metrics against RTK ground truth.

All metrics take a sequence of PPS-aligned pairs, each a row [t, est_x,
est_y, truth_x, truth_y] as match_pps makes them. Offsets are estimate
minus truth. Three scalar metrics (METRIC_NAMES):

* max_offset: largest Euclidean offset over the set.
* accuracy: Euclidean norm of the signed mean offset (the bias).
* precision: dispersion of the offsets about the mean offset, with the
  1/(n-1) sample normalization.

precision() has a second, literal reading in which the mean offset is
subtracted from the estimate coordinates themselves rather than from the
offsets; it is exposed behind literal=True and the --metrics-literal CLI
flag. The default follows the dispersion-about-mean-offset reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivisionByZeroMetricError, EmptyInputError, \
    NeedTwoPosesError

PPS_MATCH_TOLERANCE_S = 0.05
METRIC_NAMES = ("max_offset", "accuracy", "precision")


@dataclass
class MetricsReport:
    max_offset: float
    accuracy: float
    precision: float
    mean_offset: tuple
    n: int
    rejection_rate: float | None = None
    improvement_vs_gnss: tuple | None = None
    # (n, 3) rows of t and the estimate-minus-truth offset that
    # compute_metrics reduced; None on a report built without them
    offsets: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)


def _estimates_and_offsets(pairs):
    # timestamps, (n, 2) estimate coordinates, estimate-minus-truth offsets
    rows = np.array(pairs, dtype=float)
    return rows[:, 0], rows[:, 1:3], rows[:, 1:3] - rows[:, 3:5]


def _max_offset(off: np.ndarray) -> float:
    return float(np.max(np.hypot(off[:, 0], off[:, 1])))


def _accuracy(mu: np.ndarray):
    return float(np.hypot(mu[0], mu[1])), (float(mu[0]), float(mu[1]))


def _precision(est: np.ndarray, off: np.ndarray, mu: np.ndarray,
               literal: bool) -> float:
    d = (est if literal else off) - mu
    return float(math.sqrt(np.sum(d * d) / (len(off) - 1)))


def max_offset(pairs) -> float:
    """Largest Euclidean estimate-truth distance over the set."""
    if len(pairs) == 0:
        raise EmptyInputError("no poses to evaluate")
    return _max_offset(_estimates_and_offsets(pairs)[2])


def accuracy(pairs):
    """Norm of the signed mean offset; returns (value, (mu_x, mu_y))."""
    if len(pairs) == 0:
        raise EmptyInputError("no poses to evaluate")
    return _accuracy(_estimates_and_offsets(pairs)[2].mean(axis=0))


def precision(pairs, literal: bool = False) -> float:
    """Sample dispersion sqrt(sum(D_i^2) / (n-1)).

    D_i defaults to the distance of each offset from the mean offset.
    With literal=True, D_i is instead the distance of each estimate
    coordinate from the mean offset (no truth subtraction), which is the
    alternative printed-formula reading.
    """
    if len(pairs) < 2:
        raise NeedTwoPosesError("precision needs at least two poses")
    _, est, off = _estimates_and_offsets(pairs)
    return _precision(est, off, off.mean(axis=0), literal)


def improvements(fused: MetricsReport, gnss: MetricsReport):
    """Percent improvement of fused over raw GNSS per metric.

    100 * (gnss - fused) / gnss for max_offset, accuracy and precision;
    positive numbers mean the fused estimate is better.
    """
    out = []
    for name in METRIC_NAMES:
        g = getattr(gnss, name)
        f = getattr(fused, name)
        if g == 0.0:
            raise DivisionByZeroMetricError(
                f"raw GNSS {name} is zero; improvement undefined")
        out.append(100.0 * (g - f) / g)
    return tuple(out)


def match_pps(est_times, est_positions, truth_times, truth_positions,
              tolerance: float = PPS_MATCH_TOLERANCE_S):
    """Pair estimates with the nearest ground-truth sample in time.

    Returns (pairs, dropped): a list of [t, est_x, est_y, truth_x,
    truth_y] rows for the estimates having a truth sample within the
    tolerance (inclusive; on equal distance the earlier truth sample
    wins), and the count of estimates that had none.  The rows are a
    list, not an array, so that pair sets pool with `+=`.
    """
    est_times = np.asarray(est_times, dtype=float)
    truth_times = np.asarray(truth_times, dtype=float)
    if est_times.size == 0 or truth_times.size == 0:
        return [], int(est_times.size)
    est_positions = np.asarray(est_positions, dtype=float)
    truth_positions = np.asarray(truth_positions, dtype=float)
    for name, times, positions in (("estimate", est_times, est_positions),
                                   ("truth", truth_times, truth_positions)):
        if positions.shape != (times.size, 2):
            raise ValueError(f"{name} positions must have shape "
                             f"({times.size}, 2), one (x, y) per time, "
                             f"got {positions.shape}")
    # the truth samples either side of each estimate; a side past the
    # end of the truth track is infinitely far, and an estimate before the
    # first sample takes the one after it even when both distances are
    # infinite
    after = np.searchsorted(truth_times, est_times)
    before = after - 1
    last = truth_times.size - 1
    dt_before = np.where(before >= 0, np.abs(
        truth_times[np.maximum(before, 0)] - est_times), np.inf)
    dt_after = np.where(after <= last, np.abs(
        truth_times[np.minimum(after, last)] - est_times), np.inf)
    later = (dt_after < dt_before) | (before < 0)
    nearest = np.where(later, after, before)
    keep = np.where(later, dt_after, dt_before) <= tolerance
    pairs = np.column_stack((est_times[keep], est_positions[keep],
                             truth_positions[nearest[keep]])).tolist()
    return pairs, int(est_times.size - len(pairs))


def compute_metrics(pairs, literal: bool = False,
                    rejection_rate: float | None = None) -> MetricsReport:
    """Bundle the three metrics over one matched pair set.

    The offsets are built once and shared by the three metrics, which
    raise as max_offset(), accuracy() and precision() do; the report
    keeps them with their timestamps as `offsets`.
    """
    if len(pairs) == 0:
        raise EmptyInputError("no poses to evaluate")
    if len(pairs) < 2:
        raise NeedTwoPosesError("precision needs at least two poses")
    t, est, off = _estimates_and_offsets(pairs)
    mu = off.mean(axis=0)
    acc, mean_offset = _accuracy(mu)
    return MetricsReport(
        max_offset=_max_offset(off), accuracy=acc,
        precision=_precision(est, off, mu, literal),
        mean_offset=mean_offset, n=len(pairs),
        rejection_rate=rejection_rate, offsets=np.column_stack((t, off)))
