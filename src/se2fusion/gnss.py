"""GNSS reading model: UTM projection, per-fix information matrices and
screening of implausible fixes against integrated odometry.

A fix carries receiver-reported 95% accuracy bounds epx/epy (and a
finite epv, stored but unused in this planar system).  Its information
matrix is diag((epx/2)^-2, (epy/2)^-2, 0): position rows weighted by the
implied standard deviation, heading row zero because a position fix says
nothing about orientation.  gnss_information() stacks them for a set of
fixes.

Screening anchors on the first fix that a covered odometry window can
start from, then compares each candidate fix against the last accepted
one: the GNSS displacement must agree with the odometry arc length
within 15 m and the GNSS bearing change (needing two prior accepted
fixes) must agree with the integrated yaw within 1.5 degrees.  The
odometry of every fix is looked up once, so a candidate costs the same
however far back the last accepted fix lies: a few float operations on
plain lists, and no numpy call unless its window holds no raw odometry
sample.  The last accepted leg's length and bearing are measured once,
when its end fix is accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonMonotonicTimestampsError, OutOfUtmDomainError
from .odometry import OdometryStream, WindowEnds
from .se2 import wrap_angle

HEADING_TOLERANCE_DEG = 1.5
DISPLACEMENT_TOLERANCE_M = 15.0
# below this leg length a bearing is numerically meaningless (standstill)
STANDSTILL_DISPLACEMENT_M = 0.5

# WGS-84 ellipsoid and the universal transverse Mercator scale factor
_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_E2 = _WGS84_F * (2.0 - _WGS84_F)
_EP2 = _E2 / (1.0 - _E2)
_K0 = 0.9996
_FALSE_EASTING = 500000.0
_FALSE_NORTHING_SOUTH = 10000000.0


@dataclass
class GnssReading:
    timestamp: float
    position: np.ndarray
    epx: float
    epy: float
    epv: float = 0.0
    accepted: bool = True

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        if self.position.shape != (2,):
            raise ValueError("position must be a 2-vector (utm_x, utm_y)")
        x, y = self.position.tolist()
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("position must be finite")
        if not math.isfinite(self.timestamp):
            raise ValueError("timestamp must be finite")
        if not (0.0 < self.epx < math.inf and 0.0 < self.epy < math.inf):
            raise ValueError("epx and epy must be positive and finite")
        if not math.isfinite(self.epv):
            raise ValueError("epv must be finite")


def latlon_to_utm(latitude: float, longitude: float):
    """Project WGS-84 geographic coordinates to UTM.

    Returns (easting, northing, zone) with the zone identifier like
    "32N"; the natural zone of the point is always used (no Norway or
    Svalbard exceptions).  Southern-hemisphere points get the 10000 km
    false northing.  Standard transverse Mercator series, good to well
    under a centimeter inside the zone.
    """
    # NaN would pass the range test below and land in the south
    for name, value in (("latitude", latitude), ("longitude", longitude)):
        if not math.isfinite(value):
            raise OutOfUtmDomainError(f"{name} {value:g} is not finite")
    if abs(latitude) > 84.0:
        raise OutOfUtmDomainError(
            f"latitude {latitude:g} outside the UTM domain (|lat| <= 84)")
    lon = math.fmod(longitude + 180.0, 360.0)
    if lon < 0.0:
        lon += 360.0
    lon -= 180.0
    zone = min(int((lon + 180.0) // 6.0) + 1, 60)
    lon0 = math.radians(zone * 6 - 183)

    phi = math.radians(latitude)
    lam = math.radians(lon)
    sin_phi = math.sin(phi)
    cos_phi = math.cos(phi)
    tan_phi = math.tan(phi)

    n_rad = _WGS84_A / math.sqrt(1.0 - _E2 * sin_phi * sin_phi)
    t = tan_phi * tan_phi
    c = _EP2 * cos_phi * cos_phi
    a_par = cos_phi * (lam - lon0)

    e2 = _E2
    e4 = e2 * e2
    e6 = e4 * e2
    m = _WGS84_A * (
        (1.0 - e2 / 4.0 - 3.0 * e4 / 64.0 - 5.0 * e6 / 256.0) * phi
        - (3.0 * e2 / 8.0 + 3.0 * e4 / 32.0 + 45.0 * e6 / 1024.0)
        * math.sin(2.0 * phi)
        + (15.0 * e4 / 256.0 + 45.0 * e6 / 1024.0) * math.sin(4.0 * phi)
        - (35.0 * e6 / 3072.0) * math.sin(6.0 * phi))

    a2 = a_par * a_par
    a3 = a2 * a_par
    a4 = a2 * a2
    a5 = a4 * a_par
    a6 = a4 * a2
    easting = _K0 * n_rad * (
        a_par + (1.0 - t + c) * a3 / 6.0
        + (5.0 - 18.0 * t + t * t + 72.0 * c - 58.0 * _EP2) * a5 / 120.0
    ) + _FALSE_EASTING
    northing = _K0 * (
        m + n_rad * tan_phi * (
            a2 / 2.0 + (5.0 - t + 9.0 * c + 4.0 * c * c) * a4 / 24.0
            + (61.0 - 58.0 * t + t * t + 600.0 * c - 330.0 * _EP2)
            * a6 / 720.0))
    if latitude < 0.0:
        northing += _FALSE_NORTHING_SOUTH
    hemisphere = "N" if latitude >= 0.0 else "S"
    return easting, northing, f"{zone}{hemisphere}"


def gnss_information(readings) -> np.ndarray:
    """Information matrices (m, 3, 3) of fixes, diag((epx/2)^-2,
    (epy/2)^-2, 0) each."""
    half = np.reshape([(r.epx / 2.0, r.epy / 2.0) for r in readings], (-1, 2))
    info = np.zeros((len(half), 3, 3))
    # float_power rounds as the C pow behind a scalar `**`; np.power's
    # vectorized loop can differ in the last bit
    info[:, [0, 1], [0, 1]] = np.float_power(half, -2.0)
    return info


@dataclass
class RejectionResult:
    readings: list
    rejection_rate: float
    uncovered: int


def reject_outliers(readings, odo: OdometryStream) -> RejectionResult:
    """Flag fixes whose motion disagrees with the integrated odometry.

    Each candidate is compared against the last accepted fix: both the
    displacement test (GNSS distance vs odometry arc length,
    DISPLACEMENT_TOLERANCE_M) and the bearing-change test (vs integrated
    yaw, HEADING_TOLERANCE_DEG) must pass; both are read at call time.  The
    bearing test needs two prior accepted fixes and legs of at least
    0.5 m on both sides, otherwise it is skipped.  The first reading a
    covered window can start from is accepted as it is, as the anchor.
    Fixes before it, and fixes whose window from the last accepted fix
    the odometry does not cover, are rejected and counted separately in
    the result.

    The readings' accepted flags are set in place; the result carries a
    new list of the same reading objects, the rejection rate in percent
    and the uncovered count.
    """
    readings = list(readings)
    ts = [r.timestamp for r in readings]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise NonMonotonicTimestampsError(
            "GNSS timestamps must be strictly increasing")

    heading_tol = math.radians(HEADING_TOLERANCE_DEG)
    displacement_tol = DISPLACEMENT_TOLERANCE_M
    # every fix as a window end once, read as plain floats: a candidate
    # then costs a few float operations and no numpy call
    ends = WindowEnds(odo, ts)
    start_heading, start_arc = ends.start[:2].tolist()
    end_heading, end_arc = ends.end[:2].tolist()
    lo, hi = ends.lo.tolist(), ends.hi.tolist()
    reach = odo.reach(ts).tolist()
    xs, ys = np.reshape([r.position for r in readings], (-1, 2)).T.tolist()
    prev = None
    # the last accepted leg's length and bearing, once there is one
    prior_disp = prior_bearing = None
    rejected = 0
    uncovered = 0
    for k, reading in enumerate(readings):
        if prev is None and ts[k] < reach[k]:
            reading.accepted = True
            prev = k
            continue
        if prev is None or not ts[k] <= reach[prev]:
            reading.accepted = False
            rejected += 1
            uncovered += 1
            continue
        if lo[prev] < hi[k]:
            # raw samples inside: the difference of the two ends' rows
            heading_change = end_heading[k] - start_heading[prev]
            arc_length = end_arc[k] - start_arc[prev]
        else:
            _, _, heading, arc = ends.windows(prev, k)
            heading_change, arc_length = float(heading), float(arc)
        dx = xs[k] - xs[prev]
        dy = ys[k] - ys[prev]
        disp = math.hypot(dx, dy)
        ok = abs(disp - arc_length) < displacement_tol
        if ok and prior_disp is not None \
                and prior_disp >= STANDSTILL_DISPLACEMENT_M \
                and disp >= STANDSTILL_DISPLACEMENT_M:
            err = wrap_angle(math.atan2(dy, dx) - prior_bearing
                             - heading_change)
            ok = abs(err) < heading_tol
        reading.accepted = ok
        if ok:
            prev = k
            prior_disp = disp
            prior_bearing = math.atan2(dy, dx)
        else:
            rejected += 1
    rate = 100.0 * rejected / len(readings) if readings else 0.0
    return RejectionResult(readings, rate, uncovered)
