"""Trajectory quality metrics and their literal transcription oracles."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import literal_accuracy, literal_improvement, \
    literal_max_offset, literal_precision, literal_precision_printed, \
    loop_match_pps
from se2fusion.errors import DivisionByZeroMetricError, EmptyInputError, \
    NeedTwoPosesError
from se2fusion.metrics import MetricsReport, accuracy, compute_metrics, \
    improvements, match_pps, max_offset, precision


def _poses(pairs):
    # match_pps rows [t, est_x, est_y, truth_x, truth_y]
    return [[float(k), *est, *tru] for k, (est, tru) in enumerate(pairs)]


def _random_pairs(rng, n, spread=5.0):
    out = []
    for _ in range(n):
        tru = tuple(rng.uniform(-100.0, 100.0, size=2))
        est = (tru[0] + rng.normal(0.0, spread),
               tru[1] + rng.normal(0.0, spread))
        out.append((est, tru))
    return out


def test_max_offset_basics():
    poses = _poses([((1.0, 2.0), (1.0, 2.0)), ((5.0, 5.0), (5.0, 5.0))])
    assert max_offset(poses) == 0.0
    poses = _poses([((3.0, 4.0), (0.0, 0.0))])
    assert max_offset(poses) == pytest.approx(5.0)


def test_max_offset_matches_loop_oracle():
    rng = np.random.default_rng(21)
    pairs = _random_pairs(rng, 100)
    # hypot versus naive sqrt leaves a 1-ulp gap
    assert max_offset(_poses(pairs)) == pytest.approx(
        literal_max_offset(pairs), rel=1e-14)


def test_accuracy_basics():
    poses = _poses([((1.0, 0.0), (0.0, 0.0)), ((4.0, 7.0), (3.0, 7.0))])
    value, mu = accuracy(poses)
    assert value == pytest.approx(1.0)
    assert mu == pytest.approx((1.0, 0.0))
    poses = _poses([((1.0, 0.0), (0.0, 0.0)), ((-1.0, 0.0), (0.0, 0.0))])
    value, _ = accuracy(poses)
    assert value == pytest.approx(0.0, abs=1e-15)


def test_accuracy_matches_oracle():
    rng = np.random.default_rng(22)
    pairs = _random_pairs(rng, 257)
    value, mu = accuracy(_poses(pairs))
    want, want_mu = literal_accuracy(pairs)
    assert value == pytest.approx(want, abs=1e-12)
    assert mu == pytest.approx(want_mu, abs=1e-12)


def test_precision_basics():
    poses = _poses([((2.0, 3.0), (1.0, 1.0)), ((7.0, 5.0), (6.0, 3.0))])
    assert precision(poses) == pytest.approx(0.0, abs=1e-15)
    poses = _poses([((0.0, 0.0), (0.0, 0.0)), ((2.0, 0.0), (0.0, 0.0))])
    assert precision(poses) == pytest.approx(math.sqrt(2.0))


def test_precision_matches_oracle():
    rng = np.random.default_rng(23)
    pairs = _random_pairs(rng, 300)
    assert precision(_poses(pairs)) == pytest.approx(
        literal_precision(pairs), abs=1e-12)


def test_precision_gaussian_dispersion():
    rng = np.random.default_rng(24)
    sigma = 1.625
    pairs = []
    for _ in range(20000):
        tru = tuple(rng.uniform(-50.0, 50.0, size=2))
        est = (tru[0] + rng.normal(0.0, sigma),
               tru[1] + rng.normal(0.0, sigma))
        pairs.append((est, tru))
    value = precision(_poses(pairs))
    # isotropic offsets make E[D^2] = 2 sigma^2
    assert value == pytest.approx(sigma * math.sqrt(2.0), rel=0.02)
    assert value == pytest.approx(literal_precision(pairs), abs=1e-12)


def test_literal_mode_is_the_printed_reading():
    rng = np.random.default_rng(25)
    pairs = _random_pairs(rng, 64)
    poses = _poses(pairs)
    assert precision(poses, literal=True) == pytest.approx(
        literal_precision_printed(pairs), abs=1e-12)
    # with scattered truths the two readings genuinely differ
    assert abs(precision(poses, literal=True) - precision(poses)) > 1.0


def test_improvement_percentages():
    def report(mx, acc, prec):
        return MetricsReport(max_offset=mx, accuracy=acc, precision=prec,
                             mean_offset=(0.0, 0.0), n=10)

    fused = report(7.170, 1.0, 1.336)
    gnss = report(23.531, 2.0, 1.625)
    d_max, d_acc, d_prec = improvements(fused, gnss)
    assert d_max == pytest.approx(69.528, abs=0.01)
    assert d_acc == pytest.approx(50.0, abs=1e-12)
    assert d_prec == pytest.approx(17.794, abs=0.01)
    assert d_max == pytest.approx(literal_improvement(23.531, 7.170),
                                  abs=1e-12)
    same = improvements(gnss, gnss)
    assert same == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)


def test_improvement_zero_denominator():
    perfect = MetricsReport(max_offset=0.0, accuracy=0.0, precision=0.0,
                            mean_offset=(0.0, 0.0), n=5)
    noisy = MetricsReport(max_offset=1.0, accuracy=1.0, precision=1.0,
                          mean_offset=(0.0, 0.0), n=5)
    with pytest.raises(DivisionByZeroMetricError):
        improvements(noisy, perfect)


def test_translation_invariance():
    rng = np.random.default_rng(26)
    pairs = _random_pairs(rng, 50)
    shift = (1234.5, -987.6)
    moved = [((e[0] + shift[0], e[1] + shift[1]),
              (t[0] + shift[0], t[1] + shift[1])) for e, t in pairs]
    a, b = _poses(pairs), _poses(moved)
    assert max_offset(a) == pytest.approx(max_offset(b), abs=1e-12)
    assert accuracy(a)[0] == pytest.approx(accuracy(b)[0], abs=1e-12)
    assert precision(a) == pytest.approx(precision(b), abs=1e-12)


def test_accuracy_never_exceeds_max_offset():
    rng = np.random.default_rng(27)
    for _ in range(30):
        pairs = _random_pairs(rng, int(rng.integers(2, 40)))
        poses = _poses(pairs)
        assert accuracy(poses)[0] <= max_offset(poses) + 1e-12


def test_duplicating_a_pose_bounded_precision_growth():
    rng = np.random.default_rng(28)
    for _ in range(30):
        pairs = _random_pairs(rng, int(rng.integers(3, 20)))
        base = precision(_poses(pairs))
        k = int(rng.integers(0, len(pairs)))
        grown = precision(_poses(pairs + [pairs[k]]))
        assert grown <= 2.0 * base + 1e-12


def test_match_pps_nearest_within_tolerance():
    est_t = [0.0, 1.0, 2.0, 3.0]
    est_p = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)]
    tru_t = [0.01, 0.98, 2.2, 2.96]
    tru_p = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
    pairs, dropped = match_pps(est_t, est_p, tru_t, tru_p)
    assert dropped == 1
    assert [p[0] for p in pairs] == [0.0, 1.0, 3.0]
    assert pairs[0][3:] == [0.0, 1.0]
    assert pairs[2][3:] == [3.0, 1.0]


def test_match_pps_picks_closer_neighbor():
    pairs, dropped = match_pps([1.0], [(5.0, 5.0)],
                               [0.97, 1.02], [(0.0, 0.0), (9.0, 9.0)])
    assert dropped == 0
    assert pairs[0][3:] == [9.0, 9.0]


def _assert_matches_loop(est_t, est_p, tru_t, tru_p, **kw):
    got = match_pps(est_t, est_p, tru_t, tru_p, **kw)
    assert got == loop_match_pps(est_t, est_p, tru_t, tru_p, **kw)
    return got


def test_match_pps_ties_go_to_the_earlier_truth_sample():
    tru_t = [0.75, 1.25, 2.0]
    tru_p = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    pairs, dropped = _assert_matches_loop([1.0, 1.625], [(5.0, 5.0)] * 2,
                                          tru_t, tru_p, tolerance=0.5)
    assert dropped == 0
    assert [p[3:] for p in pairs] == [[0.0, 0.0], [1.0, 1.0]]


def test_match_pps_keeps_a_pair_at_exactly_the_tolerance():
    tru_t = [0.0, 1.0]
    tru_p = [(0.0, 0.0), (1.0, 1.0)]
    est_t = [0.25, 0.5, 1.25]
    est_p = [(0.0, 0.0)] * 3
    pairs, dropped = _assert_matches_loop(est_t, est_p, tru_t, tru_p,
                                          tolerance=0.25)
    assert [p[0] for p in pairs] == [0.25, 1.25] and dropped == 1
    pairs, dropped = _assert_matches_loop(est_t, est_p, tru_t, tru_p,
                                          tolerance=np.nextafter(0.25, 0.0))
    assert pairs == [] and dropped == 3


def test_match_pps_empty_inputs_and_estimates_off_the_truth_span():
    tru_t = np.arange(0.0, 10.5, 1.0)
    tru_p = np.stack((tru_t, -tru_t), axis=1)
    assert _assert_matches_loop([0.5, 3.0], [(1.0, 1.0)] * 2, [],
                                np.zeros((0, 2))) == ([], 2)
    assert _assert_matches_loop([], np.zeros((0, 2)), tru_t, tru_p) == ([], 0)
    est_t = [-5.0, -0.04, 10.03, 100.0]
    pairs, dropped = _assert_matches_loop(est_t, [(7.0, 8.0)] * 4, tru_t,
                                          tru_p)
    assert dropped == 2
    assert [(p[0], p[3:]) for p in pairs] == [
        (-0.04, [0.0, 0.0]), (10.03, [10.0, -10.0])]


def test_match_pps_refuses_positions_that_do_not_fit_their_times():
    """Each positions array is one (x, y) per time: a truth track short of
    a position, an estimate track with one too many, or a flat array, is
    refused by name rather than paired or failing inside numpy."""
    for args, name in (
            (([0, 1], [(0, 0)], [0, 1], [(0, 0), (1, 1)]), "estimate"),
            (([0], [(0, 0)], [0, 1], [(0, 0)]), "truth"),
            (([0], [(0, 0), (1, 1)], [0], [(0, 0)]), "estimate"),
            (([0], [0, 0], [0], [(0, 0)]), "estimate"),
            (([0], [(0, 0)], [0, 1], [(0, 0, 0), (1, 1, 1)]), "truth")):
        with pytest.raises(ValueError, match=f"^{name} positions must"):
            match_pps(*args)
    # the empty-input return stands, and the pairs stay a poolable list
    assert match_pps([], [], [0], [(0, 0)]) == ([], 0)
    pairs, _ = match_pps([0], [(1, 2)], [0], [(3, 4)])
    pairs += match_pps([1], [(5, 6)], [1], [(7, 8)])[0]
    assert pairs == [[0.0, 1.0, 2.0, 3.0, 4.0], [1.0, 5.0, 6.0, 7.0, 8.0]]


def test_match_pps_pairs_no_nan_time_or_nan_tolerance():
    tru_t = [0.0, 1.0, 2.0]
    tru_p = [(5.0, 5.0), (6.0, 6.0), (7.0, 7.0)]
    # a NaN estimate time has no nearest truth sample: it is dropped
    assert _assert_matches_loop([math.nan], [(0.0, 0.0)], [0.0],
                                [(5.0, 5.0)]) == ([], 1)
    pairs, dropped = _assert_matches_loop(
        [0.0, math.nan, 2.0], [(0.0, 0.0)] * 3, tru_t, tru_p)
    assert [p[0] for p in pairs] == [0.0, 2.0] and dropped == 1
    # no distance is within a NaN tolerance
    assert _assert_matches_loop([0.0, 1.0], [(0.0, 0.0)] * 2, tru_t, tru_p,
                                tolerance=math.nan) == ([], 2)
    # infinitely far from every truth sample, at any finite tolerance
    for tolerance in (0.05, 1e300):
        assert _assert_matches_loop([-math.inf, math.inf],
                                    [(0.0, 0.0)] * 2, tru_t, tru_p,
                                    tolerance=tolerance) == ([], 2)
    # and within an infinite one of the track's nearer end: -inf pairs
    # with the first truth sample, +inf with the last
    pairs, dropped = _assert_matches_loop([-math.inf, math.inf],
                                          [(0.0, 0.0)] * 2, tru_t, tru_p,
                                          tolerance=math.inf)
    assert [p[3:] for p in pairs] == [[5.0, 5.0], [7.0, 7.0]]
    assert dropped == 0
    assert _assert_matches_loop([-math.inf], [(0.0, 0.0)], [0.0],
                                [(5.0, 5.0)], tolerance=math.inf)[0][0][3:] \
        == [5.0, 5.0]


def test_match_pps_equals_the_loop_on_random_tracks():
    rng = np.random.default_rng(30)
    for _ in range(30):
        tru_t = np.cumsum(rng.uniform(0.01, 0.2, int(rng.integers(1, 60))))
        est_t = np.sort(rng.uniform(tru_t[0] - 0.3, tru_t[-1] + 0.3,
                                    int(rng.integers(1, 80))))
        # some estimates exactly on truth samples and half way between
        k = rng.integers(0, len(tru_t), 5)
        est_t = np.sort(np.concatenate((est_t, tru_t[k],
                                        (tru_t[k] + tru_t[k - 1]) / 2.0)))
        est_p = rng.normal(size=(len(est_t), 2))
        tru_p = rng.normal(size=(len(tru_t), 2))
        pairs, dropped = _assert_matches_loop(
            est_t, est_p, tru_t, tru_p, tolerance=rng.uniform(0.0, 0.1))
        assert len(pairs) + dropped == len(est_t)


def test_compute_metrics_bundle():
    rng = np.random.default_rng(29)
    pairs = _random_pairs(rng, 40)
    poses = _poses(pairs)
    report = compute_metrics(poses, rejection_rate=12.5)
    assert report.n == 40
    assert report.max_offset == max_offset(poses)
    assert report.accuracy == accuracy(poses)[0]
    assert report.precision == precision(poses)
    assert report.rejection_rate == 12.5
    lit = compute_metrics(poses, literal=True)
    assert lit.precision == precision(poses, literal=True)


def test_compute_metrics_builds_the_offsets_once(monkeypatch):
    from se2fusion import metrics

    poses = _poses(_random_pairs(np.random.default_rng(30), 25))
    build = metrics._estimates_and_offsets
    calls = []

    def counted(p):
        calls.append(None)
        return build(p)

    monkeypatch.setattr(metrics, "_estimates_and_offsets", counted)
    for literal in (False, True):
        report = compute_metrics(poses, literal=literal)
        assert report.mean_offset == accuracy(poses)[1]
        assert report.precision == precision(poses, literal=literal)
    assert len(calls) == 2 + 2 * 2
    with pytest.raises(EmptyInputError):
        compute_metrics([])
    with pytest.raises(NeedTwoPosesError):
        compute_metrics(poses[:1])


def test_compute_metrics_keeps_the_offsets_it_reduced():
    """offsets holds each row's timestamp and estimate-minus-truth
    offset bit for bit, and shows in neither repr nor ==."""
    poses = _poses(_random_pairs(np.random.default_rng(31), 40))
    report = compute_metrics(poses)
    want = np.array([[t, ex - tx, ey - ty] for t, ex, ey, tx, ty in poses])
    assert report.offsets.shape == (40, 3)
    assert np.array_equal(report.offsets.view(np.int64),
                          want.view(np.int64))
    bare = dataclasses.replace(report, offsets=None)
    assert repr(bare) == repr(report)
    assert bare == report and compute_metrics(poses) == report
    assert "offsets" not in repr(report)


def test_degenerate_inputs_raise():
    with pytest.raises(EmptyInputError):
        max_offset([])
    with pytest.raises(EmptyInputError):
        accuracy([])
    with pytest.raises(NeedTwoPosesError):
        precision(_poses([((1.0, 1.0), (0.0, 0.0))]))
