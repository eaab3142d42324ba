"""Synthetic dataset generation with analytic ground truth.

Three motion profiles with closed-form heading: a constant-speed
straight, an urban loop of 90-degree raised-cosine turns, and a gently
weaving highway.  Truth positions come from quadrature of the analytic
rates on a 4 ms grid (exact on straight segments); odometry samples are
the exact analytic rates scaled by one multiplicative drift factor per
run, and GNSS fixes are truth plus a constant bias, per-axis AR(1) noise
and optional sparse jump outliers.

ar1_sigma is the stationary planar dispersion of the noise (the value
the precision metric recovers over a long run); each axis gets
ar1_sigma / sqrt(2).  Receiver accuracy bounds are epx = epy =
max(2 * per-axis sigma, 0.5).

Injected outliers start at the third fix: the screening logic needs two
clean anchor fixes before its bearing test is armed, so corrupting the
first two would be undetectable by construction.

Everything derives from one seeded generator, so a (seed, parameters)
pair yields a bit-identical dataset every time.

generate_synthetic's defaults (a 600 s drive, no standstill, nominal
speed) and the error models' field defaults (all zero) are the only
definition of those settings: the CLI reads them as its flag defaults,
and injected_outlier_indices binds its arguments to that signature.
"""

from __future__ import annotations

import enum
import inspect
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, TruthTrack
from .gnss import GnssReading
from .odometry import OdometryStream

_FINE_DT = 0.004
_ODO_PERIOD = 0.04
_MIN_EP = 0.5
# length of the speed ramps into and out of a standstill, seconds
_STANDSTILL_RAMP = 1.0


class TrajectoryProfile(enum.Enum):
    STRAIGHT = "straight"
    URBAN_LOOP = "urban_loop"
    HIGHWAY = "highway"


@dataclass(frozen=True)
class GnssErrorModel:
    bias: tuple = (0.0, 0.0)
    ar1_rho: float = 0.0
    ar1_sigma: float = 0.0
    outlier_rate: float = 0.0
    outlier_magnitude: float = 0.0

    def __post_init__(self):
        if np.shape(self.bias) != (2,) or not np.isfinite(self.bias).all():
            raise ValueError("bias must be a finite (x, y) pair, got "
                             f"{self.bias!r}")
        # two floats keep the frozen model a value: an ndarray bias would
        # make it unhashable and its == ambiguous, a list one unhashable
        x, y = self.bias
        object.__setattr__(self, "bias", (float(x), float(y)))
        # |rho| = 1 is a constant or alternating offset, still bounded
        if not -1.0 <= self.ar1_rho <= 1.0:
            raise ValueError(
                f"ar1_rho must lie in [-1, 1], got {self.ar1_rho}")
        if not 0.0 <= self.ar1_sigma < math.inf:
            raise ValueError("ar1_sigma must be finite and non-negative, "
                             f"got {self.ar1_sigma}")
        if not 0.0 <= self.outlier_rate <= 1.0:
            raise ValueError(
                f"outlier_rate must lie in [0, 1], got {self.outlier_rate}")
        if not 0.0 <= self.outlier_magnitude < math.inf:
            raise ValueError("outlier_magnitude must be finite and "
                             f"non-negative, got {self.outlier_magnitude}")
        # a setting that cannot act alone would leave the drive unchanged
        if self.ar1_rho != 0.0 and self.ar1_sigma == 0.0:
            raise ValueError(f"ar1_rho {self.ar1_rho} needs a positive "
                             "ar1_sigma")
        if self.outlier_rate > 0.0 and self.outlier_magnitude == 0.0:
            raise ValueError(f"outlier_rate {self.outlier_rate} needs a "
                             "positive outlier_magnitude")
        if self.outlier_magnitude > 0.0 and self.outlier_rate == 0.0:
            raise ValueError(f"outlier_magnitude {self.outlier_magnitude} "
                             "needs a positive outlier_rate")


@dataclass(frozen=True)
class OdoErrorModel:
    drift_fraction: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.drift_fraction < math.inf:
            raise ValueError("drift_fraction must be finite and "
                             f"non-negative, got {self.drift_fraction}")


# urban loop geometry: straight legs and 90-degree raised-cosine turns
_URBAN_SPEED = 12.0
_URBAN_STRAIGHT = 20.0
_URBAN_TURN = 4.0
_URBAN_PERIOD = _URBAN_STRAIGHT + _URBAN_TURN

_HIGHWAY_SPEED = 25.0
_HIGHWAY_OMEGA = 0.03
_HIGHWAY_WAVE_S = 60.0

_STRAIGHT_SPEED = 12.0


def _profile_rates(profile: TrajectoryProfile, t: np.ndarray,
                   speed: float | None = None):
    """Analytic (speed, yaw_rate, heading) at the given times.

    speed overrides the profile's nominal velocity; turn timing is
    unchanged, so a slower urban loop simply has tighter corners.
    """
    t = np.asarray(t, dtype=float)
    if profile is TrajectoryProfile.STRAIGHT:
        v = np.full_like(t, speed if speed is not None else _STRAIGHT_SPEED)
        w = np.zeros_like(t)
        theta = np.zeros_like(t)
        return v, w, theta
    if profile is TrajectoryProfile.HIGHWAY:
        v = np.full_like(t, speed if speed is not None else _HIGHWAY_SPEED)
        k = 2.0 * math.pi / _HIGHWAY_WAVE_S
        w = _HIGHWAY_OMEGA * np.sin(k * t)
        theta = (_HIGHWAY_OMEGA / k) * (1.0 - np.cos(k * t))
        return v, w, theta
    # urban loop
    v = np.full_like(t, speed if speed is not None else _URBAN_SPEED)
    n_seg = np.floor(t / _URBAN_PERIOD)
    u = t - n_seg * _URBAN_PERIOD
    s = u - _URBAN_STRAIGHT
    in_turn = s > 0.0
    peak = math.pi / _URBAN_TURN
    k = 2.0 * math.pi / _URBAN_TURN
    w = np.where(in_turn, 0.5 * peak * (1.0 - np.cos(k * np.maximum(s, 0.0))),
                 0.0)
    turn_part = 0.5 * peak * (np.maximum(s, 0.0)
                              - np.sin(k * np.maximum(s, 0.0)) / k)
    theta = n_seg * (math.pi / 2.0) + np.where(in_turn, turn_part, 0.0)
    return v, w, theta


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting at 0."""
    steps = np.diff(x) * (y[1:] + y[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def _ar1(drive: np.ndarray, rho: float) -> np.ndarray:
    """AR(1) recursion y[k] = drive[k] + rho * y[k-1], with y[0] = drive[0]."""
    y = drive.copy()
    for k in range(1, y.size):
        y[k] += rho * y[k - 1]
    return y


def _standstill_gate(t: np.ndarray, start: float,
                     duration: float) -> np.ndarray:
    """Speed envelope: exactly zero inside the hold, cosine ramps of
    _STANDSTILL_RAMP seconds outside."""
    ramp = _STANDSTILL_RAMP
    end = start + duration
    g = np.ones_like(t)
    pre = (t > start - ramp) & (t < start)
    g = np.where(pre, 0.5 * (1.0 + np.cos(np.pi * (t - start + ramp) / ramp)),
                 g)
    post = (t > end) & (t < end + ramp)
    g = np.where(post, 0.5 * (1.0 - np.cos(np.pi * (t - end) / ramp)), g)
    return np.where((t >= start) & (t <= end), 0.0, g)


def generate_synthetic(seed: int, profile: TrajectoryProfile,
                       gnss_error: GnssErrorModel | None = None,
                       odo_error: OdoErrorModel | None = None,
                       duration: float = 600.0,
                       standstill: tuple | None = None,
                       speed: float | None = None,
                       name: str | None = None) -> Dataset:
    """Build a Dataset with exact truth for the requested profile.

    standstill, when given, is (start_s, duration_s): a start in
    [0, duration), a finite hold > 0, on a straight stretch of the
    profile (the speed envelope cannot cancel a commanded turn).  speed,
    when given, replaces the profile's nominal cruise velocity without
    touching turn timing.  GNSS fixes arrive at 1 Hz from t=0, odometry
    at 25 Hz covering the whole span, truth at the fix timestamps.
    """
    return _generate(seed, profile, gnss_error, odo_error, duration,
                     standstill, speed, name)[0]


def _generate(seed, profile, gnss_error, odo_error, duration, standstill,
              speed, name):
    # generate_synthetic's drive, and the mask of the fixes with a jump
    gerr = gnss_error if gnss_error is not None else GnssErrorModel()
    oerr = odo_error if odo_error is not None else OdoErrorModel()
    rng = np.random.default_rng(seed)

    if not 2.0 <= duration < math.inf:
        raise ValueError("duration must be finite and allow at least 2 GNSS "
                         f"fixes, got {duration}")
    if speed is not None and not math.isfinite(speed):
        raise ValueError(f"speed must be finite, got {speed}")
    n_fix = int(math.floor(duration))
    fix_t = np.arange(n_fix, dtype=float)
    n_odo = int(round(duration / _ODO_PERIOD))
    odo_t = np.arange(n_odo + 1, dtype=float) * _ODO_PERIOD

    if standstill is not None:
        ss_start, ss_dur = float(standstill[0]), float(standstill[1])
        if not (0.0 <= ss_start < duration and 0.0 < ss_dur < math.inf):
            raise ValueError("standstill must start in [0, duration) and "
                             "last a finite time > 0, got "
                             f"({ss_start}, {ss_dur}) on a {duration} s "
                             "drive")
        chk = np.linspace(ss_start - 1.0, ss_start + ss_dur + 1.0, 501)
        _, w_chk, _ = _profile_rates(profile, np.clip(chk, 0.0, duration),
                                     speed)
        if np.max(np.abs(w_chk)) > 0.0:
            raise ValueError("standstill must lie on a straight segment "
                             "of the profile")

    # truth by quadrature of the analytic rates on a fine grid
    n_fine = int(round(duration / _FINE_DT))
    fine_t = np.linspace(0.0, duration, n_fine + 1)
    v_f, _, th_f = _profile_rates(profile, fine_t, speed)
    if standstill is not None:
        v_f = v_f * _standstill_gate(fine_t, ss_start, ss_dur)
    x_f = _cumulative_trapezoid(v_f * np.cos(th_f), fine_t)
    y_f = _cumulative_trapezoid(v_f * np.sin(th_f), fine_t)

    truth_x = np.interp(fix_t, fine_t, x_f)
    truth_y = np.interp(fix_t, fine_t, y_f)
    truth = TruthTrack(fix_t, np.column_stack([truth_x, truth_y]))

    # odometry: exact rates, one multiplicative scale error per run
    gamma_v = rng.normal(0.0, oerr.drift_fraction) \
        if oerr.drift_fraction > 0.0 else 0.0
    gamma_w = rng.normal(0.0, oerr.drift_fraction) \
        if oerr.drift_fraction > 0.0 else 0.0
    v_o, w_o, _ = _profile_rates(profile, odo_t, speed)
    if standstill is not None:
        v_o = v_o * _standstill_gate(odo_t, ss_start, ss_dur)
    stream = OdometryStream(odo_t, w_o * (1.0 + gamma_w),
                            v_o * (1.0 + gamma_v))

    # GNSS: truth + bias + AR(1) + sparse jumps
    sigma_axis = gerr.ar1_sigma / math.sqrt(2.0)
    noise = np.zeros((n_fix, 2))
    if sigma_axis > 0.0:
        rho = gerr.ar1_rho
        innov_scale = sigma_axis * math.sqrt(1.0 - rho * rho)
        for axis in range(2):
            raw = rng.standard_normal(n_fix)
            drive = raw * innov_scale
            drive[0] = raw[0] * sigma_axis
            noise[:, axis] = _ar1(drive, rho)
    jumps = np.zeros((n_fix, 2))
    mask = rng.random(n_fix) < gerr.outlier_rate
    mask[:2] = False
    if mask.any():
        angles = rng.uniform(0.0, 2.0 * math.pi, n_fix)
        jumps[mask, 0] = gerr.outlier_magnitude * np.cos(angles[mask])
        jumps[mask, 1] = gerr.outlier_magnitude * np.sin(angles[mask])

    ep = max(2.0 * sigma_axis, _MIN_EP)
    bias = np.asarray(gerr.bias, dtype=float)
    readings = []
    for k in range(n_fix):
        pos = (truth.positions[k] + bias + noise[k] + jumps[k])
        readings.append(GnssReading(float(fix_t[k]), pos, ep, ep, 1.0))

    if name is None:
        name = f"{profile.value}-s{seed}"
    return Dataset(name, readings, stream, truth, (0.0, 0.0)), mask


def injected_outlier_indices(seed: int, profile: TrajectoryProfile,
                             gnss_error: GnssErrorModel, *args,
                             **kwargs) -> list:
    """Fix indices that received a jump for this exact configuration.

    Takes generate_synthetic's arguments and generates that drive once,
    keeping the jump mask the generator draws.  Used to check that
    screening removes precisely those fixes.
    """
    drive = inspect.signature(generate_synthetic).bind(
        seed, profile, gnss_error, *args, **kwargs)
    drive.apply_defaults()
    return np.flatnonzero(_generate(*drive.args)[1]).tolist()
