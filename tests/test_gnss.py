"""UTM projection, per-fix information weighting and outlier screening."""

import math

import numpy as np
import pytest

from helpers import knot_screen, meridian_arc_quad, utm_krueger
from se2fusion import gnss
from se2fusion.errors import NonMonotonicTimestampsError, OutOfUtmDomainError
from se2fusion.gnss import GnssReading, gnss_information, latlon_to_utm, \
    reject_outliers
from se2fusion.odometry import OdometryStream, WindowEnds
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic


def test_zone31_equator_central_meridian():
    easting, northing, zone = latlon_to_utm(0.0, 3.0)
    assert easting == pytest.approx(500000.0, abs=1e-6)
    assert northing == pytest.approx(0.0, abs=1e-6)
    assert zone == "31N"


def test_matches_high_precision_oracle():
    points = [
        (48.137154, 11.576124),
        (40.712800, -74.006000),
        (-33.868800, 151.209300),
        (63.430500, 10.395100),
        (1.352100, 103.819800),
        (-54.801900, -68.303000),
        (83.500000, -30.000000),
    ]
    for lat, lon in points:
        easting, northing, _ = latlon_to_utm(lat, lon)
        oe, on = utm_krueger(lat, lon)
        assert easting == pytest.approx(oe, abs=0.01)
        assert northing == pytest.approx(on, abs=0.01)


@pytest.mark.parametrize("lat", [0.5, 10.0, 30.0, 45.0, 60.0, 75.0, 84.0,
                                 -30.0, -60.0])
def test_central_meridian_northing_is_the_scaled_meridian_arc(lat):
    """On a zone's central meridian (9 degrees east, zone 32) the easting
    is the false easting and the northing is k0 M(|phi|), M the meridian
    arc from the equator by adaptive quadrature; south of the equator it
    is the 10,000 km false northing less that."""
    easting, northing, _ = latlon_to_utm(lat, 9.0)
    arc = 0.9996 * meridian_arc_quad(abs(lat))
    assert easting == pytest.approx(500000.0, abs=1e-6)
    assert northing == pytest.approx(arc if lat > 0.0 else 1e7 - arc,
                                      abs=5e-3)


def test_projection_is_deterministic():
    a = latlon_to_utm(48.1, 11.6)
    b = latlon_to_utm(48.1, 11.6)
    assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]


def test_polar_latitudes_rejected():
    with pytest.raises(OutOfUtmDomainError):
        latlon_to_utm(85.0, 10.0)
    with pytest.raises(OutOfUtmDomainError):
        latlon_to_utm(-84.5, 10.0)
    latlon_to_utm(84.0, 10.0)
    latlon_to_utm(-84.0, 10.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_rejected(value):
    """A non-finite latitude or longitude is refused by name, before NaN
    could slip past the range test into the southern hemisphere."""
    with pytest.raises(OutOfUtmDomainError, match="^latitude .* not finite"):
        latlon_to_utm(value, 0.0)
    with pytest.raises(OutOfUtmDomainError,
                       match="^longitude .* not finite"):
        latlon_to_utm(0.0, value)


def test_zone_identifiers():
    assert latlon_to_utm(52.5, 13.4)[2] == "33N"
    assert latlon_to_utm(-33.9, 18.4)[2] == "34S"
    assert latlon_to_utm(10.0, 179.9)[2] == "60N"
    assert latlon_to_utm(10.0, -179.9)[2] == "1N"


def test_longitude_west_of_the_antimeridian_wraps():
    """A longitude below -180 degrees is the same meridian 360 degrees
    east, and projects to exactly the same point and zone."""
    for lat in (48.1, -33.0):
        assert latlon_to_utm(lat, -190.0) == latlon_to_utm(lat, 170.0)


def test_southern_hemisphere_false_northing():
    _, northing_n, _ = latlon_to_utm(0.001, 20.0)
    _, northing_s, _ = latlon_to_utm(-0.001, 20.0)
    assert northing_s > 9.99e6
    assert northing_n < 1000.0


def test_information_from_reported_accuracy():
    r = GnssReading(0.0, (0.0, 0.0), epx=2.0, epy=2.0)
    assert np.allclose(gnss_information([r])[0], np.diag([1.0, 1.0, 0.0]))
    r = GnssReading(0.0, (0.0, 0.0), epx=4.0, epy=2.0)
    assert gnss_information([r])[0][0, 0] == pytest.approx(0.25)
    r = GnssReading(0.0, (0.0, 0.0), epx=1.0, epy=3.0)
    assert np.allclose(gnss_information([r])[0],
                       np.diag([4.0, 4.0 / 9.0, 0.0]))


def test_information_never_constrains_heading():
    rng = np.random.default_rng(7)
    for _ in range(100):
        r = GnssReading(0.0, (0.0, 0.0), epx=rng.uniform(0.1, 30.0),
                        epy=rng.uniform(0.1, 30.0))
        info = gnss_information([r])[0]
        assert info[2, 2] == 0.0
        assert info[0, 0] > 0.0 and info[1, 1] > 0.0


def test_information_stack_is_one_row_per_fix():
    rng = np.random.default_rng(8)
    readings = [GnssReading(float(k), (0.0, 0.0), epx=rng.uniform(0.1, 30.0),
                            epy=rng.uniform(0.1, 30.0)) for k in range(500)]
    info = gnss_information(readings)
    assert info.shape == (500, 3, 3)
    for r, row in zip(readings, info):
        # bit for bit the scalar formula
        want = np.diag([(r.epx / 2.0) ** -2.0, (r.epy / 2.0) ** -2.0, 0.0])
        assert np.array_equal(row, want)
        assert np.array_equal(gnss_information([r])[0], want)
    assert gnss_information([]).shape == (0, 3, 3)


def test_reading_validation():
    with pytest.raises(ValueError):
        GnssReading(0.0, (0.0, 0.0), epx=0.0, epy=1.0)
    with pytest.raises(ValueError):
        GnssReading(0.0, (0.0, 0.0), epx=1.0, epy=-2.0)
    with pytest.raises(ValueError):
        GnssReading(0.0, (np.nan, 0.0), epx=1.0, epy=1.0)
    with pytest.raises(ValueError):
        GnssReading(0.0, (1.0, 2.0, 3.0), epx=1.0, epy=1.0)
    for t, epx, epy, epv in ((math.nan, 1.0, 1.0, 0.0),
                             (math.inf, 1.0, 1.0, 0.0),
                             (0.0, math.inf, 1.0, 0.0),
                             (0.0, 1.0, math.nan, 0.0),
                             (0.0, 1.0, 1.0, math.nan),
                             (0.0, 1.0, 1.0, -math.inf)):
        with pytest.raises(ValueError, match="must be .*finite$"):
            GnssReading(t, (0.0, 0.0), epx=epx, epy=epy, epv=epv)
    # the loader takes a negative epv, so a reading does too
    assert GnssReading(0.0, (0.0, 0.0), 1.0, 1.0, epv=-3.0).epv == -3.0
    for position in ((math.inf, 0.0), (-math.inf, 0.0), (0.0, math.inf),
                     (0.0, -math.inf), (0.0, math.nan)):
        with pytest.raises(ValueError, match="^position must be finite$"):
            GnssReading(0.0, position, epx=1.0, epy=1.0)
    for shape in ((1, 2), (2, 1), (2, 2)):
        with pytest.raises(ValueError, match=r"^position must be a 2-vector "
                                             r"\(utm_x, utm_y\)$"):
            GnssReading(0.0, np.zeros(shape), epx=1.0, epy=1.0)
    r = GnssReading(0.0, (3, -4), epx=1.0, epy=1.0)
    assert r.position.dtype == np.float64
    assert r.position.tolist() == [3.0, -4.0]
    # a row of a larger float array is kept as it is, not copied
    row = np.arange(6.0).reshape(3, 2)[1]
    assert GnssReading(0.0, row, epx=1.0, epy=1.0).position is row


def _straight_drive(n_fixes, speed=10.0):
    """Fixes each second along +x with a matching 25 Hz odometry stream."""
    t = np.arange(0.0, float(n_fixes), 0.04)
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, speed))
    readings = [GnssReading(float(k), (speed * k, 0.0), 2.0, 2.0)
                for k in range(n_fixes)]
    return readings, stream


def test_consistent_fixes_all_accepted():
    readings, stream = _straight_drive(20)
    result = reject_outliers(readings, stream)
    assert all(r.accepted for r in result.readings)
    assert result.rejection_rate == 0.0
    assert result.uncovered == 0


def test_displacement_jump_rejected():
    readings, stream = _straight_drive(6)
    readings[3] = GnssReading(3.0, (30.0 + 40.0, 0.0), 2.0, 2.0)
    result = reject_outliers(readings, stream)
    assert not result.readings[3].accepted
    assert result.rejection_rate == pytest.approx(100.0 / 6.0)


def test_heading_discrepancy_rejected():
    readings, stream = _straight_drive(6)
    # keep the displacement but swing the bearing by 2 degrees
    leg = 10.0
    bad = (20.0 + leg * math.cos(math.radians(2.0)),
           leg * math.sin(math.radians(2.0)))
    readings[3] = GnssReading(3.0, bad, 2.0, 2.0)
    result = reject_outliers(readings, stream)
    assert not result.readings[3].accepted
    # 1.4 degrees stays inside the tolerance
    ok = (20.0 + leg * math.cos(math.radians(1.4)),
          leg * math.sin(math.radians(1.4)))
    readings, stream = _straight_drive(6)
    readings[3] = GnssReading(3.0, ok, 2.0, 2.0)
    result = reject_outliers(readings, stream)
    assert result.readings[3].accepted


def test_first_reading_accepted_by_default():
    readings, stream = _straight_drive(4)
    readings[0] = GnssReading(0.0, (-900.0, 400.0), 2.0, 2.0)
    result = reject_outliers(readings, stream)
    assert result.readings[0].accepted


def test_screen_anchors_on_the_first_covered_fix():
    """Odometry that starts after the GNSS: the fixes before it have no
    covered window to start, so the screen anchors on the first fix that
    has one instead of rejecting every fix after an uncovered anchor."""
    readings, stream = _straight_drive(300)
    late = stream.timestamps >= 2.0
    late = OdometryStream(stream.timestamps[late], stream.yaw_rates[late],
                          stream.velocities[late])
    result = _assert_screen_matches_knots(readings, late)
    assert [r.accepted for r in result.readings] == [False] * 2 + [True] * 298
    assert result.uncovered == 2
    assert result.rejection_rate == pytest.approx(100.0 * 2 / 300)


def test_rejection_anchor_stays_at_last_accepted():
    readings, stream = _straight_drive(5)
    readings[2] = GnssReading(2.0, (500.0, 0.0), 2.0, 2.0)
    result = reject_outliers(readings, stream)
    flags = [r.accepted for r in result.readings]
    # fix 3 is compared against fix 1 over a two-second window: the GNSS
    # displacement is 20 m and so is the odometry arc, so it survives
    assert flags == [True, True, False, True, True]


def test_corrupted_subset_exactly_flagged():
    readings, stream = _straight_drive(60)
    corrupt = {7, 23, 41}
    for k in corrupt:
        pos = (10.0 * k, 50.0)
        readings[k] = GnssReading(float(k), pos, 2.0, 2.0)
    result = reject_outliers(readings, stream)
    flagged = {k for k, r in enumerate(result.readings) if not r.accepted}
    assert flagged == corrupt
    assert result.rejection_rate == pytest.approx(100.0 * 3 / 60)


def test_uncovered_windows_counted():
    readings, _ = _straight_drive(5)
    t = np.arange(0.0, 2.0, 0.04)
    short = OdometryStream(t, np.zeros_like(t), np.full_like(t, 10.0))
    result = reject_outliers(readings, short)
    flags = [r.accepted for r in result.readings]
    assert flags == [True, True, True, False, False]
    assert result.uncovered == 2
    assert result.rejection_rate == pytest.approx(40.0)


def test_standstill_skips_bearing_test():
    n = 8
    t = np.arange(0.0, float(n), 0.04)
    stream = OdometryStream(t, np.zeros_like(t), np.zeros_like(t))
    rng = np.random.default_rng(3)
    readings = []
    for k in range(n):
        jitter = rng.uniform(-0.1, 0.1, size=2)
        readings.append(GnssReading(float(k), jitter, 2.0, 2.0))
    result = reject_outliers(readings, stream)
    # bearings between sub-half-meter legs are noise, only displacement
    # is checked, and 0.2 m against a zero arc passes easily
    assert all(r.accepted for r in result.readings)


def test_flags_are_set_in_place():
    readings, stream = _straight_drive(6)
    readings[3] = GnssReading(3.0, (600.0, 0.0), 2.0, 2.0)
    result = reject_outliers(readings, stream)
    assert readings[3].accepted is False
    assert result.readings[3] is readings[3]


def test_threshold_overrides(monkeypatch):
    readings, stream = _straight_drive(6)
    readings[3] = GnssReading(3.0, (30.0 + 5.0, 0.0), 2.0, 2.0)
    assert reject_outliers(readings, stream).readings[3].accepted
    for r in readings:
        r.accepted = True
    # the gate is read when the screen runs, not when it is defined
    monkeypatch.setattr(gnss, "DISPLACEMENT_TOLERANCE_M", 4.0)
    result = reject_outliers(readings, stream)
    assert not result.readings[3].accepted


def test_non_monotonic_fixes_raise():
    readings, stream = _straight_drive(4)
    readings[2] = GnssReading(1.0, (20.0, 0.0), 2.0, 2.0)
    with pytest.raises(NonMonotonicTimestampsError):
        reject_outliers(readings, stream)


def test_rejection_is_deterministic():
    def run():
        readings, stream = _straight_drive(30)
        readings[11] = GnssReading(11.0, (110.0, 80.0), 2.0, 2.0)
        readings[17] = GnssReading(17.0, (170.0, -60.0), 2.0, 2.0)
        result = reject_outliers(readings, stream)
        return [r.accepted for r in result.readings], result.rejection_rate

    first = run()
    second = run()
    assert first == second


# ---------------------------------------------------------------------------
# the screen against the gate transcribed over the per-window knot oracle

def _assert_screen_matches_knots(readings, stream):
    flags, rate, uncovered = knot_screen(readings, stream)
    result = reject_outliers(readings, stream)
    assert [r.accepted for r in result.readings] == flags
    assert result.rejection_rate == rate
    assert result.uncovered == uncovered
    return result


def test_screen_matches_knots_on_a_locked_out_urban_loop():
    ds = generate_synthetic(2, TrajectoryProfile.URBAN_LOOP, duration=300.0)
    result = _assert_screen_matches_knots(ds.gnss, ds.odometry)
    # the gate locks out the rest of the run after the first turn
    assert result.rejection_rate > 50.0


def test_screen_matches_knots_with_jump_outliers():
    gnss_error = GnssErrorModel((0.2, 0.1), 0.95, 0.3, 0.1, 50.0)
    ds = generate_synthetic(7, TrajectoryProfile.STRAIGHT, gnss_error,
                            OdoErrorModel(0.011), duration=300.0)
    result = _assert_screen_matches_knots(ds.gnss, ds.odometry)
    assert 5.0 < result.rejection_rate < 50.0


def test_screen_matches_knots_through_a_standstill():
    ds = generate_synthetic(4, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel((0.0, 0.0), 0.9, 0.2),
                            OdoErrorModel(0.011), duration=200.0,
                            standstill=(60.0, 40.0))
    _assert_screen_matches_knots(ds.gnss, ds.odometry)


def test_screen_matches_knots_across_recording_gaps():
    ds = generate_synthetic(5, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel((0.0, 0.0), 0.9, 0.2),
                            duration=120.0)
    odo = ds.odometry
    t = odo.timestamps
    # a 3 s hole in the recording and a recording that stops 10 s early
    keep = ((t < 40.0) | (t > 43.0)) & (t < t[-1] - 10.0)
    holed = OdometryStream(t[keep], odo.yaw_rates[keep],
                           odo.velocities[keep])
    result = _assert_screen_matches_knots(ds.gnss, holed)
    assert result.uncovered > 10


def _outrunning_drive():
    """4 Hz fixes along +x with 1 cm noise on a 2 Hz odometry stream of a
    gently weaving 5 m/s drive: no window between consecutive fixes holds
    a raw sample."""
    t = np.arange(0.0, 30.25, 0.5)
    stream = OdometryStream(t, 0.02 * np.sin(t / 5.0), np.full_like(t, 5.0))
    rng = np.random.default_rng(0)
    fix_t = np.arange(0.0, 30.1, 0.25)
    xy = np.column_stack((5.0 * fix_t, np.zeros_like(fix_t)))
    xy += rng.normal(0.0, 0.01, xy.shape)
    readings = [GnssReading(float(a), p, 2.0, 2.0) for a, p in zip(fix_t, xy)]
    return readings, stream


def test_screen_matches_knots_when_fixes_outrun_the_odometry():
    readings, stream = _outrunning_drive()
    result = _assert_screen_matches_knots(readings, stream)
    # 1 cm of noise turns a 1.25 m leg's bearing by about 0.5 degrees,
    # and the fixes ignore the weave: most miss the 1.5 degree gate
    assert 50.0 < result.rejection_rate < 90.0
    assert result.uncovered == 0


def test_screen_matches_knots_on_a_straight_g1_drive():
    """The benchmark's straight-g1 drive shape: the bearing gate rejects
    most fixes, so the candidate windows grow long."""
    gnss_error = GnssErrorModel((0.495, 0.495), 0.95, 1.625)
    ds = generate_synthetic(3, TrajectoryProfile.STRAIGHT, gnss_error,
                            OdoErrorModel(0.011), duration=200.0, speed=5.0)
    result = _assert_screen_matches_knots(ds.gnss, ds.odometry)
    assert result.rejection_rate > 80.0


def _windows_priced(monkeypatch, readings, stream):
    """The screen's result, and the (start, end) fix index pairs of the
    windows it priced through WindowEnds.windows."""
    priced = []
    windows = WindowEnds.windows

    def counted(self, i, j):
        priced.append((int(i), int(j)))
        return windows(self, i, j)

    monkeypatch.setattr(WindowEnds, "windows", counted)
    result = reject_outliers(readings, stream)
    monkeypatch.undo()
    return result, priced


def _empty_candidate_windows(result, stream):
    """The (last accepted, candidate) index pairs of the covered
    candidate windows that hold no raw sample, replayed from the flags."""
    t = stream.timestamps
    ts = [r.timestamp for r in result.readings]
    reach = stream.reach(ts)
    empty = []
    prev = None
    for k, r in enumerate(result.readings):
        if prev is not None and ts[k] <= reach[prev] \
                and not np.any((t > ts[prev]) & (t < ts[k])):
            empty.append((prev, k))
        if r.accepted:
            prev = k
    return empty


def test_screen_prices_only_the_empty_windows_through_windows(monkeypatch):
    # 1 Hz fixes on 25 Hz odometry: every candidate window holds samples
    readings, stream = _straight_drive(60)
    for k in (7, 23, 41):
        readings[k] = GnssReading(float(k), (10.0 * k, 50.0), 2.0, 2.0)
    result, priced = _windows_priced(monkeypatch, readings, stream)
    assert sum(not r.accepted for r in result.readings) == 3
    assert priced == []
    # 4 Hz fixes on 2 Hz odometry: each window without a sample inside
    # is priced by windows(), once, and no other window is
    readings, stream = _outrunning_drive()
    result, priced = _windows_priced(monkeypatch, readings, stream)
    empty = _empty_candidate_windows(result, stream)
    assert len(empty) > 20
    assert priced == empty


def test_screen_cost_does_not_grow_with_the_rejected_stretch(monkeypatch):
    # GNSS reports twice the odometry speed: every fix after the second
    # misses the displacement gate against fix 1, so each candidate window
    # reaches back to t = 1 s
    n_fixes = 200
    t = np.arange(0.0, float(n_fixes), 0.04)
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, 10.0))
    readings = [GnssReading(float(k), (10.0 * k if k < 2 else 20.0 * k, 0.0),
                            2.0, 2.0) for k in range(n_fixes)]
    # count every point the screen interpolates or looks up in the stream
    touched = []
    for name, query in (("interp", 0), ("searchsorted", 1)):
        fn = getattr(np, name)

        def counted(*args, fn=fn, query=query, **kwargs):
            touched.append(np.size(args[query]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    result = reject_outliers(readings, stream)
    monkeypatch.undo()
    assert [r.accepted for r in result.readings] == \
        [True, True] + [False] * (n_fixes - 2)
    # a per-window integrator interpolates every sample of every
    # candidate window: about a million points here
    assert sum(touched) <= 2 * (n_fixes + t.size)
