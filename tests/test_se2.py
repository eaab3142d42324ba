"""Planar rigid-body group operations, exp/log maps and residual calculus."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from helpers import fd_edge_jacobians, from_homogeneous, homogeneous, \
    random_pose
from se2fusion.se2 import IDENTITY, Pose2, batch_edge_jacobians, \
    batch_edge_residuals, batch_retract, compose, edge_jacobians, \
    edge_residual, exp_map, inverse, log_map, measurement_columns, \
    poses_from_rows, retract, wrap_angle, wrap_angles

# A heading scale near zero; the cases below sit on both sides of it.
NEAR_ZERO_HEADING = 1e-4


def test_wrap_angle_range():
    rng = np.random.default_rng(0)
    for a in rng.uniform(-50.0, 50.0, 500):
        w = wrap_angle(float(a))
        assert -math.pi < w <= math.pi
        assert abs(math.sin(w - a)) < 1e-12
        assert abs(math.cos(w - a) - 1.0) < 1e-12


def test_wrap_angle_boundary():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_pose_normalizes_heading_on_construction():
    p = Pose2(1.0, 2.0, 2.0 * math.pi + 0.25)
    assert p.theta == pytest.approx(0.25, abs=1e-12)
    assert Pose2(0.0, 0.0, -math.pi).theta == pytest.approx(math.pi)


def test_compose_identity_and_translation():
    p = compose(IDENTITY, Pose2(3.0, 4.0, 0.5))
    assert (p.x, p.y, p.theta) == pytest.approx((3.0, 4.0, 0.5), abs=1e-15)
    q = compose(Pose2(1.0, 0.0, 0.0), Pose2(0.0, 1.0, 0.0))
    assert (q.x, q.y, q.theta) == pytest.approx((1.0, 1.0, 0.0), abs=1e-15)


def test_compose_quarter_turn():
    """Rotating frame by 90 degrees turns a forward step into a sideways one."""
    p = compose(Pose2(0.0, 0.0, math.pi / 2.0), Pose2(1.0, 0.0, 0.0))
    assert (p.x, p.y, p.theta) == pytest.approx(
        (0.0, 1.0, math.pi / 2.0), abs=1e-15)
    oracle = from_homogeneous(homogeneous(Pose2(0.0, 0.0, math.pi / 2.0))
                              @ homogeneous(Pose2(1.0, 0.0, 0.0)))
    assert np.allclose(p.as_array(), oracle.as_array(), atol=1e-15)


def test_compose_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        a, b = random_pose(rng), random_pose(rng)
        direct = compose(a, b)
        via = from_homogeneous(homogeneous(a) @ homogeneous(b))
        assert np.allclose(direct.as_array(), via.as_array(), atol=1e-12)


def test_inverse_examples():
    assert inverse(IDENTITY).as_array() == pytest.approx((0.0, 0.0, 0.0))
    assert inverse(Pose2(1.0, 0.0, 0.0)).as_array() == pytest.approx(
        (-1.0, 0.0, 0.0))
    p = inverse(Pose2(0.0, 1.0, math.pi / 2.0))
    assert p.as_array() == pytest.approx((-1.0, 0.0, -math.pi / 2.0),
                                         abs=1e-15)


def test_inverse_matches_matrix_inverse_oracle():
    rng = np.random.default_rng(2)
    for _ in range(300):
        a = random_pose(rng)
        via = from_homogeneous(np.linalg.inv(homogeneous(a)))
        assert np.allclose(inverse(a).as_array(), via.as_array(), atol=1e-10)


def test_compose_with_inverse_gives_identity():
    rng = np.random.default_rng(3)
    for _ in range(500):
        p = random_pose(rng)
        r = compose(p, inverse(p))
        assert np.max(np.abs(r.as_array())) < 1e-12
        r = compose(inverse(p), p)
        assert np.max(np.abs(r.as_array())) < 1e-12


def test_identity_axioms():
    rng = np.random.default_rng(4)
    for _ in range(500):
        p = random_pose(rng)
        assert np.allclose(compose(p, IDENTITY).as_array(), p.as_array(),
                           atol=1e-12)
        assert np.allclose(compose(IDENTITY, p).as_array(), p.as_array(),
                           atol=1e-12)


def test_associativity():
    rng = np.random.default_rng(5)
    for _ in range(500):
        p, q, r = random_pose(rng), random_pose(rng), random_pose(rng)
        left = compose(compose(p, q), r).as_array()
        right = compose(p, compose(q, r)).as_array()
        assert np.allclose(left, right, atol=1e-10)


def test_log_map_trivial_cases():
    assert np.allclose(log_map(IDENTITY), [0.0, 0.0, 0.0])
    assert np.allclose(log_map(Pose2(5.0, 0.0, 0.0)), [5.0, 0.0, 0.0])


def test_exp_map_trivial_cases():
    assert exp_map(np.zeros(3)).as_array() == pytest.approx((0.0, 0.0, 0.0))
    assert exp_map(np.array([1.0, 0.0, 0.0])).as_array() == pytest.approx(
        (1.0, 0.0, 0.0))


def test_exp_log_roundtrip_poses():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10000):
        p = random_pose(rng, span=100.0)
        q = exp_map(log_map(p))
        worst = max(worst, float(np.max(np.abs(q.as_array() - p.as_array()))))
    assert worst < 1e-10


def test_log_exp_roundtrip_tangents():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10000):
        v = np.array([rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0),
                      rng.uniform(-math.pi, math.pi)])
        w = log_map(exp_map(v))
        worst = max(worst, float(np.max(np.abs(w - v))))
    assert worst < 1e-10
    # the +pi boundary belongs to the wrap range, so it round-trips too
    v = np.array([2.0, -3.0, math.pi])
    assert np.allclose(log_map(exp_map(v)), v, atol=1e-10)


def _chart_factors(theta):
    """A = sin(t)/t, B = (1 - cos(t))/t and f = h/tan(h), h = t/2, to 50
    digits, written so that each takes its limit at t = 0 and none
    cancels."""
    mpmath.mp.dps = 50
    h = mpmath.mpf(theta) / 2
    return (mpmath.sinc(2 * h), h * mpmath.sinc(h) ** 2,
            mpmath.cos(h) / mpmath.sinc(h), h)


def test_exp_map_small_angles_match_extended_precision():
    """exp_map and log_map agree with 50-digit evaluation of their closed
    forms to 1e-15 in x and y, from theta = 0 through tiny and small
    headings to pi.  Half the smallest subnormal heading rounds to 0."""
    dx, dy = 1.25, -0.75
    for theta in [0.0, math.ulp(0.0), 1e-300, 1e-9, 1e-7, 1e-5, -1e-5,
                  9e-5, 1.1e-4, -1.1e-4, 3e-4, 1e-3, 0.1, 1.0, 3.0, -3.0,
                  math.pi]:
        a, b, _, _ = _chart_factors(theta)
        p = exp_map(np.array([dx, dy, theta]))
        assert p.x == pytest.approx(float(a * dx - b * dy), abs=1e-15)
        assert p.y == pytest.approx(float(b * dx + a * dy), abs=1e-15)
        assert p.theta == wrap_angle(theta)
        # a pose stores its heading wrapped, so a heading below about
        # 1e-16 reaches log_map as 0
        q = Pose2(dx, dy, theta)
        _, _, f, h = _chart_factors(q.theta)
        v = log_map(q)
        assert v[0] == pytest.approx(float(f * dx + h * dy), abs=1e-15)
        assert v[1] == pytest.approx(float(-h * dx + f * dy), abs=1e-15)
        assert v[2] == q.theta


def test_exp_map_continuous_across_a_small_heading():
    lo = exp_map(np.array([1.0, 1.0, 1e-4 * (1.0 - 1e-9)]))
    hi = exp_map(np.array([1.0, 1.0, 1e-4 * (1.0 + 1e-9)]))
    assert np.allclose(lo.as_array(), hi.as_array(), atol=1e-12)


def test_edge_residual_examples():
    z = Pose2(1.0, 0.0, 0.0)
    assert np.allclose(edge_residual(IDENTITY, IDENTITY, IDENTITY), 0.0)
    assert np.allclose(edge_residual(IDENTITY, Pose2(1.0, 0.0, 0.0), z), 0.0)
    e = edge_residual(IDENTITY, Pose2(2.0, 0.0, 0.0), z)
    assert np.allclose(e, [1.0, 0.0, 0.0], atol=1e-15)


def test_edge_residual_zero_iff_measurement_satisfied():
    rng = np.random.default_rng(8)
    for _ in range(300):
        xi, z = random_pose(rng), random_pose(rng, span=3.0)
        xj = compose(xi, z)
        assert np.max(np.abs(edge_residual(xi, xj, z))) < 1e-12
        bumped = compose(xj, exp_map(np.array([1e-3, 0.0, 0.0])))
        assert np.max(np.abs(edge_residual(xi, bumped, z))) > 1e-6


def test_edge_residual_matches_composition_definition():
    rng = np.random.default_rng(9)
    for _ in range(300):
        xi, xj, z = random_pose(rng), random_pose(rng), random_pose(rng)
        expected = compose(inverse(z), compose(inverse(xi), xj)).as_array()
        assert np.allclose(edge_residual(xi, xj, z), expected, atol=1e-12)


def _turn(theta):
    """The rotation by -theta, with the heading passed through: it takes
    a world-frame step into the frame of a pose at heading theta."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def test_edge_jacobian_identity_chart():
    """At a satisfied identity measurement, d(residual)/d(xj) is the
    rotation by -theta, which takes an added world step into the pose's
    frame, and d(residual)/d(xi) its negative."""
    rng = np.random.default_rng(10)
    for _ in range(50):
        x = random_pose(rng)
        Ji, Jj = edge_jacobians(x, x, IDENTITY)
        assert np.allclose(Jj, _turn(x.theta), atol=1e-12)
        assert np.allclose(Ji, -Jj, atol=1e-12)


def _shear(xi, xj):
    """B = [[1, 0, yi - yj], [0, 1, xj - xi], [0, 0, 1]], the shear by the
    world offset between two poses."""
    return np.array([[1.0, 0.0, xi.y - xj.y], [0.0, 1.0, xj.x - xi.x],
                     [0.0, 0.0, 1.0]])


def test_edge_jacobian_xi_at_zero_residual_is_minus_jj_times_shear():
    """At zero residual both Jacobians equal the finite differences taken
    through retract; d(residual)/d(xj) is the rotation by -theta_j, and
    d(residual)/d(xi) is -Jj B, B the shear by the world offset."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        xi, z = random_pose(rng), random_pose(rng, span=3.0)
        xj = compose(xi, z)
        Ji, Jj = edge_jacobians(xi, xj, z)
        Fi, Fj = fd_edge_jacobians(xi, xj, z)
        assert np.allclose(Ji, Fi, atol=1e-6)
        assert np.allclose(Jj, Fj, atol=1e-6)
        assert np.allclose(Jj, _turn(xj.theta), atol=1e-12)
        assert np.allclose(Ji, -Jj @ _shear(xi, xj), atol=1e-12)


def test_edge_jacobian_xi_is_minus_jj_times_shear_at_any_residual():
    """d(residual)/d(xi) = -d(residual)/d(xj) B with B the shear by the
    world offset xj - xi, the identity the batched kernel's closed form
    rests on."""
    rng = np.random.default_rng(14)
    for _ in range(300):
        xi, xj, z = random_pose(rng), random_pose(rng), random_pose(rng, 2.0)
        Ji, Jj = edge_jacobians(xi, xj, z)
        want = -Jj @ _shear(xi, xj)
        assert np.allclose(Ji, want, rtol=0.0, atol=1e-12)


def test_edge_jacobians_match_finite_differences():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(300):
        xi, xj, z = random_pose(rng), random_pose(rng), random_pose(rng, 2.0)
        Ji, Jj = edge_jacobians(xi, xj, z)
        Fi, Fj = fd_edge_jacobians(xi, xj, z)
        scale = max(1.0, float(np.max(np.abs(Ji))), float(np.max(np.abs(Jj))))
        worst = max(worst,
                    float(np.max(np.abs(Ji - Fi))) / scale,
                    float(np.max(np.abs(Jj - Fj))) / scale)
    assert worst < 1e-5


def test_retract_adds_the_step():
    """retract adds the step to the coordinates, as g2o's VertexSE2 does,
    and wraps the heading sum onto (-pi, pi]."""
    rng = np.random.default_rng(13)
    crossed = 0
    for _ in range(200):
        p = random_pose(rng)
        d = rng.normal(0.0, 1.0, 3)
        got = retract(p, d)
        turned = p.theta + d[2]
        want = (p.x + d[0], p.y + d[1],
                turned - math.copysign(2.0 * math.pi, turned)
                if abs(turned) > math.pi else turned)
        assert np.allclose(got.as_array(), want, atol=1e-15)
        crossed += abs(turned) > math.pi
    assert crossed > 0


def test_operations_never_emit_nan():
    rng = np.random.default_rng(14)
    for _ in range(200):
        p = Pose2(rng.uniform(-1e8, 1e8), rng.uniform(-1e8, 1e8),
                  rng.uniform(-40.0, 40.0))
        q = random_pose(rng)
        for candidate in (compose(p, q), inverse(p), exp_map(log_map(p))):
            assert np.all(np.isfinite(candidate.as_array()))
        assert np.all(np.isfinite(edge_residual(p, q, random_pose(rng))))


def test_pose_is_slotted_frozen_value():
    p = Pose2(1.0, -2.0, 0.5)
    assert not hasattr(p, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.x = 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = 0.0
    q = Pose2(1, -2, 0.5 + 2.0 * math.pi)
    assert p == Pose2(1.0, -2.0, 0.5)
    assert p != Pose2(1.0, -2.0, 0.25)
    assert hash(p) == hash((p.x, p.y, p.theta))
    assert (p == q) == ((p.x, p.y, p.theta) == (q.x, q.y, q.theta))
    assert len({p, Pose2(1.0, -2.0, 0.5)}) == 1


# Headings near zero on both sides of NEAR_ZERO_HEADING, and next to
# +-pi on both sides, so the retraction and the residual pass take every
# heading wrap.
_EDGE_HEADINGS = tuple(sign * h for sign in (1.0, -1.0) for h in (
    0.0, 0.5 * NEAR_ZERO_HEADING, 0.999 * NEAR_ZERO_HEADING,
    1.001 * NEAR_ZERO_HEADING, 2.0 * NEAR_ZERO_HEADING, math.pi - 1e-9,
    math.pi - 1e-3)) + (math.pi,)


def _heading(rng):
    if rng.uniform() < 0.75:
        return float(rng.choice(_EDGE_HEADINGS))
    return float(rng.uniform(-math.pi, math.pi))


def _rows(poses):
    return np.array([p.as_array() for p in poses])


def _straddling_edges(rng, m=600):
    """Edges whose poses and residual headings sit on the branch edges.

    The measurement is the exact relative pose times a small error w, so
    the residual heading is -w.theta up to rounding.
    """
    xi, xj, z = [], [], []
    for _ in range(m):
        a = Pose2(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                  _heading(rng))
        b = Pose2(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                  _heading(rng))
        w = Pose2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                  _heading(rng))
        xi.append(a)
        xj.append(b)
        z.append(compose(compose(inverse(a), b), w))
    return xi, xj, z


def test_batch_edge_residuals_and_jacobians_match_scalar():
    """The residual pass, then the Jacobian pass with Ji = -Jj B, B the
    shear by the world offset, give edge_residual and edge_jacobians of
    every edge."""
    for seed in (15, 16):
        xi, xj, z = _straddling_edges(np.random.default_rng(seed))
        e, state = batch_edge_residuals(_rows(xi), _rows(xj),
                                        measurement_columns(_rows(z)))
        Jj, B = batch_edge_jacobians(state, np.arange(len(xi)))
        Ji = -(Jj @ B)
        want = np.array([edge_residual(a, b, c)
                         for a, b, c in zip(xi, xj, z)])
        assert np.any(np.abs(want[:, 2]) < NEAR_ZERO_HEADING)
        assert np.any(np.abs(want[:, 2]) > math.pi - 1e-6)
        np.testing.assert_allclose(e, want, rtol=1e-12, atol=1e-12)
        for k, (a, b, c) in enumerate(zip(xi, xj, z)):
            want_i, want_j = edge_jacobians(a, b, c)
            np.testing.assert_allclose(Ji[k], want_i, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(Jj[k], want_j, rtol=1e-12,
                                       atol=1e-12)


def test_split_edge_kernel_matches_scalar():
    """The residual pass gives edge_residual, its headings bit for bit
    (so a heading at +-pi is on the scalar's side of the cut); the
    Jacobian pass gives Jj of every edge, and the shear B by the world
    offset, with -Jj B = Ji, of the edges it is given, in their order."""
    for seed in (18, 19):
        xi, xj, z = _straddling_edges(np.random.default_rng(seed))
        r, state = batch_edge_residuals(_rows(xi), _rows(xj),
                                        measurement_columns(_rows(z)))
        want = np.array([edge_residual(a, b, c)
                         for a, b, c in zip(xi, xj, z)])
        assert np.any(np.abs(want[:, 2]) < NEAR_ZERO_HEADING)
        assert np.any(np.abs(want[:, 2]) == math.pi)
        assert np.array_equal(r[:, 2], want[:, 2])
        np.testing.assert_allclose(r, want, rtol=1e-12, atol=1e-12)
        rows = np.random.default_rng(seed).permutation(len(xi))[:400]
        Jj, B = batch_edge_jacobians(state, rows)
        assert Jj.shape == (len(xi), 3, 3) and B.shape == (400, 3, 3)
        for k, (a, b, c) in enumerate(zip(xi, xj, z)):
            np.testing.assert_allclose(Jj[k], edge_jacobians(a, b, c)[1],
                                       rtol=1e-12, atol=1e-12)
        for q, k in enumerate(rows):
            a, b, c = xi[k], xj[k], z[k]
            np.testing.assert_allclose(-(Jj[k] @ B[q]),
                                       edge_jacobians(a, b, c)[0],
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(B[q], _shear(a, b), rtol=1e-12,
                                       atol=1e-12)


def test_batch_retract_matches_scalar():
    rng = np.random.default_rng(17)
    poses = [Pose2(rng.uniform(-20.0, 20.0), rng.uniform(-20.0, 20.0),
                   _heading(rng)) for _ in range(600)]
    deltas = np.column_stack((rng.normal(0.0, 1.0, 600),
                              rng.normal(0.0, 1.0, 600),
                              [_heading(rng) for _ in range(600)]))
    got = batch_retract(_rows(poses), deltas)
    want = _rows([retract(p, d) for p, d in zip(poses, deltas)])
    crossed = np.abs(want[:, 2] - (_rows(poses)[:, 2] + deltas[:, 2])) > 1.0
    assert np.any(crossed)
    assert np.all((-math.pi < got[:, 2]) & (got[:, 2] <= math.pi))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_wrap_angles_is_elementwise_wrap_angle():
    rng = np.random.default_rng(18)
    theta = np.concatenate((rng.uniform(-50.0, 50.0, 500),
                            [math.pi, -math.pi, 3.0 * math.pi, 0.0, -0.0]))
    want = np.array([wrap_angle(float(t)) for t in theta])
    assert np.array_equal(wrap_angles(theta), want)


def test_poses_from_rows_equals_the_constructor():
    """The bulk builder makes the poses Pose2(*row) makes: equal, with
    equal hash and repr, headings wrapped the same bit for bit, and
    frozen like them."""
    rng = np.random.default_rng(19)
    edge = [math.pi, -math.pi, -0.0, 0.0, 3.0 * math.pi, -3.5 * math.pi,
            1e6, -1e6, math.pi + 1e-15, -math.pi - 1e-15]
    rows = np.concatenate((
        np.column_stack((rng.normal(0.0, 1e3, 500), rng.normal(0.0, 1e3, 500),
                         rng.uniform(-50.0, 50.0, 500))),
        np.column_stack((rng.normal(0.0, 1.0, len(edge)),
                         [-0.0] * len(edge), edge))))
    got = poses_from_rows(rows)
    want = [Pose2(*row) for row in rows.tolist()]
    assert got == want
    assert [hash(p) for p in got] == [hash(p) for p in want]
    assert [repr(p) for p in got] == [repr(p) for p in want]
    assert all(type(p) is Pose2 and type(p.theta) is float for p in got)
    assert {p: k for k, p in enumerate(got)} == \
        {p: k for k, p in enumerate(want)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[0].x = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        got[-1].theta = 0.0
    assert poses_from_rows(np.zeros((0, 3))) == []
