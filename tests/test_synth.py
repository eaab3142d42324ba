"""Synthetic dataset generator: determinism, error models, profiles."""

import os
import subprocess
import sys

import numpy as np
import pytest

import se2fusion
from se2fusion import synth
from helpers import literal_precision, twin_injected_indices
from se2fusion.gnss import reject_outliers
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic, injected_outlier_indices


def test_zero_error_gnss_equals_truth():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0)
    assert len(ds.gnss) == 60
    for k, r in enumerate(ds.gnss):
        assert np.array_equal(r.position, ds.truth.positions[k])
        assert r.epx == 0.5 and r.epy == 0.5


def test_same_seed_is_bit_identical():
    kw = dict(gnss_error=GnssErrorModel(bias=(0.3, -0.2), ar1_rho=0.9,
                                        ar1_sigma=1.0, outlier_rate=0.05,
                                        outlier_magnitude=40.0),
              odo_error=OdoErrorModel(drift_fraction=0.011),
              duration=120.0)
    a = generate_synthetic(7, TrajectoryProfile.URBAN_LOOP, **kw)
    b = generate_synthetic(7, TrajectoryProfile.URBAN_LOOP, **kw)
    assert a.name == b.name
    for ra, rb in zip(a.gnss, b.gnss):
        assert np.array_equal(ra.position, rb.position)
    assert np.array_equal(a.odometry.velocities, b.odometry.velocities)
    assert np.array_equal(a.odometry.yaw_rates, b.odometry.yaw_rates)
    assert np.array_equal(a.truth.positions, b.truth.positions)


def test_different_seeds_differ():
    kw = dict(gnss_error=GnssErrorModel(ar1_rho=0.9, ar1_sigma=1.0),
              duration=60.0)
    a = generate_synthetic(1, TrajectoryProfile.STRAIGHT, **kw)
    b = generate_synthetic(2, TrajectoryProfile.STRAIGHT, **kw)
    assert not np.array_equal(a.gnss[5].position, b.gnss[5].position)


def test_stationary_dispersion_self_check():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel(ar1_rho=0.95, ar1_sigma=1.625),
                            duration=3600.0)
    pairs = [((r.position[0], r.position[1]),
              (ds.truth.positions[k][0], ds.truth.positions[k][1]))
             for k, r in enumerate(ds.gnss)]
    assert literal_precision(pairs) == pytest.approx(1.625, rel=0.10)


def test_outliers_spare_the_first_two_fixes():
    g = GnssErrorModel(outlier_rate=0.5, outlier_magnitude=50.0)
    idx = injected_outlier_indices(3, TrajectoryProfile.STRAIGHT, g,
                                   duration=120.0)
    assert idx
    assert 0 not in idx and 1 not in idx
    clean = generate_synthetic(3, TrajectoryProfile.STRAIGHT,
                               GnssErrorModel(), duration=120.0)
    dirty = generate_synthetic(3, TrajectoryProfile.STRAIGHT, g,
                               duration=120.0)
    for k in idx:
        d = dirty.gnss[k].position - clean.gnss[k].position
        assert np.hypot(d[0], d[1]) == pytest.approx(50.0, rel=1e-12)


@pytest.mark.parametrize("profile", list(TrajectoryProfile))
def test_injected_indices_equal_the_twin_drive_oracle(profile):
    """The kept jump mask names the fixes where the drive differs from
    the same drive without outliers, on every profile, seeds 0-5 and
    four outlier settings."""
    for rate, magnitude in ((0.0, 0.0), (0.1, 50.0), (0.2, 10.0),
                            (0.05, 1e-3)):
        g = GnssErrorModel(bias=(0.3, 0.2), ar1_rho=0.95, ar1_sigma=0.6,
                           outlier_rate=rate, outlier_magnitude=magnitude)
        o = OdoErrorModel(drift_fraction=0.011)
        for seed in range(6):
            got = injected_outlier_indices(seed, profile, g, o,
                                           duration=120.0)
            assert got == twin_injected_indices(seed, profile, g,
                                                odo_error=o,
                                                duration=120.0)
            assert bool(got) is (rate > 0.0)


def test_screening_flags_exactly_the_injected_fixes():
    g = GnssErrorModel(bias=(0.2, 0.1), ar1_rho=0.95, ar1_sigma=0.3,
                       outlier_rate=0.1, outlier_magnitude=50.0)
    o = OdoErrorModel(drift_fraction=0.011)
    for seed in (0, 1, 2):
        ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT, g, o,
                                duration=300.0)
        injected = set(injected_outlier_indices(
            seed, TrajectoryProfile.STRAIGHT, g, o, duration=300.0))
        result = reject_outliers(ds.gnss, ds.odometry)
        flagged = {k for k, r in enumerate(result.readings)
                   if not r.accepted}
        assert flagged == injected


def test_standstill_freezes_the_trajectory():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                            duration=200.0, standstill=(100.0, 30.0))
    hold = ds.truth.positions[101:130]
    assert np.allclose(hold, hold[0], atol=1e-12)
    assert not np.allclose(ds.truth.positions[95], hold[0], atol=1e-3)
    assert not np.allclose(ds.truth.positions[135], hold[0], atol=1e-3)
    t = ds.odometry.timestamps
    inside = (t >= 100.0) & (t <= 130.0)
    assert np.all(ds.odometry.velocities[inside] == 0.0)


def test_standstill_must_be_on_a_straight():
    with pytest.raises(ValueError):
        generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                           duration=120.0, standstill=(21.0, 2.0))
    # the first 20 s of the loop are straight
    generate_synthetic(0, TrajectoryProfile.URBAN_LOOP, duration=120.0,
                       standstill=(5.0, 3.0))
    # a hold that cannot be applied is refused, not dropped
    for bad in [(500.0, 300.0), (60.0, 2.0), (-1.0, 2.0), (np.nan, 2.0),
                (np.inf, 2.0), (10.0, -5.0), (10.0, 0.0), (10.0, np.nan),
                (10.0, np.inf)]:
        with pytest.raises(ValueError, match="standstill must start"):
            generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0,
                               standstill=bad)


def test_speed_override():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0,
                            speed=5.0)
    assert ds.truth.positions[10][0] == pytest.approx(50.0, abs=1e-9)
    assert ds.truth.positions[10][1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(ds.odometry.velocities == 5.0)


def test_non_finite_speed_rejected():
    for speed in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="speed must be finite"):
            generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0,
                               speed=speed)


def test_urban_loop_turns_by_quarters():
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP, duration=100.0)
    w = ds.odometry.yaw_rates
    t = ds.odometry.timestamps
    assert np.all(w[t % 24.0 < 20.0] == 0.0)
    assert np.max(w) > 0.0
    # after one full 24 s period the course has rotated 90 degrees:
    # the second leg advances +y while x stays put
    p24 = ds.truth.positions[24]
    p40 = ds.truth.positions[40]
    assert p40[1] - p24[1] == pytest.approx(12.0 * 16.0, rel=0.05)
    assert abs(p40[0] - p24[0]) < 20.0


def test_highway_weaves_gently():
    ds = generate_synthetic(0, TrajectoryProfile.HIGHWAY, duration=120.0)
    w = ds.odometry.yaw_rates
    assert np.max(np.abs(w)) <= 0.03 + 1e-12
    # the heading oscillates in a narrow band, so the path never
    # doubles back on either axis
    assert ds.truth.positions[-1][0] > 2000.0
    assert np.all(np.diff(ds.truth.positions[:, 0]) > 0.0)
    assert np.all(np.diff(ds.truth.positions[:, 1]) >= 0.0)


def test_accuracy_bound_floor():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel(ar1_rho=0.5, ar1_sigma=0.1),
                            duration=30.0)
    assert ds.gnss[0].epx == 0.5
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel(ar1_rho=0.5, ar1_sigma=1.625),
                            duration=30.0)
    want = 2.0 * 1.625 / np.sqrt(2.0)
    assert ds.gnss[0].epx == pytest.approx(want, rel=1e-12)


def test_too_short_duration_rejected():
    for duration in (1.5, -3.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="duration must be finite"):
            generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                               duration=duration)


def test_explosive_ar1_coefficient_rejected():
    for rho in (1.5, -1.0001, float("nan")):
        with pytest.raises(ValueError, match="ar1_rho"):
            GnssErrorModel(ar1_rho=rho, ar1_sigma=1.0)


@pytest.mark.parametrize("field, values", [
    ("ar1_sigma", (-1.0, float("nan"), float("inf"))),
    ("outlier_rate", (-0.1, 1.5, float("nan"))),
    ("outlier_magnitude", (-1.0, float("nan"), float("inf"))),
])
def test_invalid_gnss_error_parameters_rejected(field, values):
    # an outlier setting acts only with its partner, so each bad value is
    # tried with a valid partner as well
    partner = {"outlier_rate": {"outlier_magnitude": 50.0},
               "outlier_magnitude": {"outlier_rate": 0.1}}.get(field, {})
    for value in values:
        with pytest.raises(ValueError, match=field):
            GnssErrorModel(**{field: value})
        with pytest.raises(ValueError, match=field):
            GnssErrorModel(**{field: value, **partner})
    GnssErrorModel(**{field: 0.0})
    GnssErrorModel(**{field: 1.0, **partner})


@pytest.mark.parametrize("settings, partner", [
    ({"ar1_rho": 0.9}, "ar1_sigma"),
    ({"ar1_rho": -0.5, "outlier_rate": 0.1, "outlier_magnitude": 50.0},
     "ar1_sigma"),
    ({"outlier_rate": 0.3}, "outlier_magnitude"),
    ({"outlier_magnitude": 50.0}, "outlier_rate"),
    ({"ar1_rho": 0.9, "ar1_sigma": 1.0, "outlier_magnitude": 50.0},
     "outlier_rate"),
])
def test_gnss_error_setting_that_cannot_act_alone_rejected(settings,
                                                          partner):
    """AR(1) memory without noise to carry, and an outlier rate or
    magnitude without the other, would leave the drive unchanged."""
    with pytest.raises(ValueError, match=f"needs a positive {partner}"):
        GnssErrorModel(**settings)


def test_bad_bias_rejected():
    """A bias is a finite (x, y) pair: three entries, a scalar or a
    non-finite entry is refused by the model, naming the field."""
    for bias in ((1.0, 2.0, 3.0), (1.0,), 5.0, ((1.0, 2.0),),
                 (float("inf"), 0.0), (0.0, float("nan"))):
        with pytest.raises(ValueError, match="bias must be a finite"):
            GnssErrorModel(bias=bias)
    assert GnssErrorModel(bias=(1, -2)).bias == (1, -2)


def test_a_model_is_a_value_whatever_holds_its_bias():
    """A tuple, a list, an ndarray and an int pair give one model: equal,
    with one hash and one repr, its bias a tuple of two floats."""
    models = [GnssErrorModel(bias=bias, ar1_sigma=0.5)
              for bias in ((1.0, -2.0), [1.0, -2.0], np.array([1.0, -2.0]),
                           (1, -2))]
    for model in models:
        assert model == models[0]
        assert hash(model) == hash(models[0])
        assert repr(model) == repr(models[0])
        assert type(model.bias) is tuple
        assert [type(v) for v in model.bias] == [float, float]
    assert len(set(models)) == 1
    assert GnssErrorModel(bias=[1.0, -2.5]) != models[0]


def test_invalid_drift_fraction_rejected():
    for drift in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="drift_fraction"):
            OdoErrorModel(drift_fraction=drift)
    OdoErrorModel(drift_fraction=0.0)


@pytest.mark.parametrize("rho", [1.0, -1.0])
def test_unit_ar1_coefficient_is_a_bounded_offset(rho):
    """At |rho| = 1 the innovations vanish: the noise is the first draw,
    held (rho = 1) or alternating in sign (rho = -1)."""
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel(ar1_rho=rho, ar1_sigma=1.0),
                            duration=30.0)
    noise = np.array([r.position for r in ds.gnss]) - ds.truth.positions
    signs = rho ** np.arange(len(noise))
    assert np.abs(noise[0]).max() > 0.0
    assert np.allclose(noise, signs[:, None] * noise[0], rtol=0.0,
                       atol=1e-9)


def test_odometry_covers_the_fix_span():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0)
    assert ds.odometry.timestamps[0] == 0.0
    assert ds.odometry.timestamps[-1] >= ds.gnss[-1].timestamp


def test_drift_is_one_scale_factor_per_run():
    ds = generate_synthetic(5, TrajectoryProfile.URBAN_LOOP,
                            odo_error=OdoErrorModel(drift_fraction=0.05),
                            duration=120.0)
    clean = generate_synthetic(5, TrajectoryProfile.URBAN_LOOP,
                               duration=120.0)
    rv = ds.odometry.velocities / clean.odometry.velocities
    assert np.allclose(rv, rv[0], rtol=1e-12)
    assert rv[0] != 1.0
    nz = clean.odometry.yaw_rates != 0.0
    rw = ds.odometry.yaw_rates[nz] / clean.odometry.yaw_rates[nz]
    assert np.allclose(rw, rw[0], rtol=1e-9)


def test_ar1_and_trapezoid_match_scipy_bit_for_bit():
    from scipy.integrate import cumulative_trapezoid
    from scipy.signal import lfilter
    rng = np.random.default_rng(3)
    drive = rng.standard_normal(500)
    for rho in (0.0, 0.5, 0.9, 0.99, -0.3):
        want = lfilter([1.0], [1.0, -rho], drive)
        assert synth._ar1(drive, rho).tobytes() == want.tobytes()
    x = np.linspace(0.0, 7.0, 1751)
    y = np.cos(x) * (3.0 + rng.standard_normal(x.size))
    want = cumulative_trapezoid(y, x, initial=0.0)
    assert synth._cumulative_trapezoid(y, x).tobytes() == want.tobytes()


def test_datasets_match_the_scipy_generator_bit_for_bit(monkeypatch):
    from scipy.integrate import cumulative_trapezoid
    from scipy.signal import lfilter
    cases = [(seed, profile, GnssErrorModel((0.3, 0.2), rho, 1.2, 0.1, 50.0))
             for seed in (1, 9) for profile in TrajectoryProfile
             for rho in (0.0, 0.9)]

    def arrays():
        out = []
        for seed, profile, gerr in cases:
            ds = generate_synthetic(seed, profile, gerr, duration=60.0)
            out.append(np.array([r.position for r in ds.gnss]).tobytes()
                       + ds.truth.positions.tobytes())
        return out

    ours = arrays()
    monkeypatch.setattr(synth, "_ar1", lambda drive, rho: lfilter(
        [1.0], [1.0, -rho], drive))
    monkeypatch.setattr(synth, "_cumulative_trapezoid",
                        lambda y, x: cumulative_trapezoid(y, x, initial=0.0))
    assert arrays() == ours


def test_no_verb_loads_a_scipy_linalg_sparse_signal_or_integrate_module(
        tmp_path):
    """A fresh import loads no module of scipy.linalg, scipy.sparse,
    scipy.signal or scipy.integrate, and neither do `synth`,
    `graph-dump`, nor `run` and `batch`, which solve: the solver loads
    scipy's LAPACK extension, scipy.linalg._flapack, by its file, and
    that is the one scipy module a solving process holds.  The solver
    takes build()'s numbering, so no library ordering is loaded."""
    src = os.path.dirname(os.path.dirname(se2fusion.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    script = f"""
import contextlib, io, sys
import se2fusion
from se2fusion.cli import main

def loaded():
    return sorted(m for m in sys.modules if m.startswith((
        'scipy.signal', 'scipy.integrate', 'scipy.sparse', 'scipy.linalg'))
        and m != 'scipy.linalg._flapack')

drive = ['--synth', 'straight', '--duration', '20']
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(['synth', *drive, '--out', {str(tmp_path)!r}])
    main(['graph-dump', *drive, '--out', {str(tmp_path / "g.txt")!r}])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(['run', *drive])
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    main(['batch', *drive, '--out', {str(tmp_path / "batch")!r}])
print(loaded())
print([m for m in sys.modules if m.startswith('scipy')])
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "[]", "[]", "[]", "[]", "['scipy.linalg._flapack']", ""]
