"""SE(2) pose algebra: composition, exp/log charts, edge residuals and Jacobians.

A pose is (x, y, theta) with theta always stored in (-pi, pi].  Tangent
vectors are length-3 numpy arrays (dx, dy, dtheta) expressed in the body
frame.  Local perturbations are applied on the right throughout the
codebase:

    x (+) delta = compose(x, exp_map(delta))

and the residual of an edge with measurement zij between poses xi, xj is
the (x, y, theta) of inverse(zij) * inverse(xi) * xj, taken as plain
coordinates rather than through the log chart (g2o's EdgeSE2 convention),
so a position residual weighs the same whichever way its pose points.
Jacobians returned by edge_jacobians are consistent with the retraction
above, which is what the solver differentiates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Below this heading magnitude the sin(t)/t style ratios switch to their
# 4th-order Taylor expansions; direct evaluation loses digits to cancellation.
SMALL_ANGLE = 1e-4

Tangent3 = np.ndarray
"""Body-frame increment (dx, dy, dtheta); plain length-3 float array."""


def wrap_angle(theta: float) -> float:
    """Map an angle onto the half-open interval (-pi, pi]."""
    r = math.fmod(theta + math.pi, TWO_PI)
    if r <= 0.0:
        r += TWO_PI
    return r - math.pi


@dataclass(frozen=True, slots=True)
class Pose2:
    """A planar rigid-body pose. The heading is normalized on construction."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])


IDENTITY = Pose2(0.0, 0.0, 0.0)


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Group product a*b: b interpreted in a's frame."""
    c = math.cos(a.theta)
    s = math.sin(a.theta)
    return Pose2(a.x + c * b.x - s * b.y,
                 a.y + s * b.x + c * b.y,
                 a.theta + b.theta)


def inverse(a: Pose2) -> Pose2:
    """Group inverse: compose(a, inverse(a)) is the identity."""
    c = math.cos(a.theta)
    s = math.sin(a.theta)
    return Pose2(-(c * a.x + s * a.y), s * a.x - c * a.y, -a.theta)


def _sin_ratios(t: float) -> tuple[float, float]:
    # A = sin(t)/t, B = (1 - cos(t))/t
    if abs(t) < SMALL_ANGLE:
        t2 = t * t
        return 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0), 0.5 * t * (1.0 - t2 / 12.0)
    return math.sin(t) / t, (1.0 - math.cos(t)) / t


def _half_cot(t: float) -> float:
    # f(t) = (t/2) / tan(t/2), the diagonal of the inverse translation factor
    if abs(t) < SMALL_ANGLE:
        t2 = t * t
        return 1.0 - t2 / 12.0 - t2 * t2 / 720.0
    return 0.5 * t / math.tan(0.5 * t)


def exp_map(v: Tangent3) -> Pose2:
    """Exponential chart: map a body-frame increment onto the group."""
    dx = float(v[0])
    dy = float(v[1])
    dt = float(v[2])
    a, b = _sin_ratios(dt)
    return Pose2(a * dx - b * dy, b * dx + a * dy, dt)


def log_map(p: Pose2) -> Tangent3:
    """Logarithm chart, the exact inverse of exp_map on (-pi, pi].

    The translation part is V(theta)^-1 @ (x, y) where V is the usual
    SE(2) translation factor; its inverse has the closed form
    [[f, t/2], [-t/2, f]] with f = (t/2)/tan(t/2).
    """
    f = _half_cot(p.theta)
    h = 0.5 * p.theta
    return np.array([f * p.x + h * p.y, -h * p.x + f * p.y, p.theta])


def retract(x: Pose2, delta: Tangent3) -> Pose2:
    """Apply a tangent increment on the right of x (the solver update)."""
    return compose(x, exp_map(delta))


def edge_residual(xi: Pose2, xj: Pose2, zij: Pose2) -> Tangent3:
    """Mismatch between the measured and the implied relative pose: the
    translation and heading of inverse(zij) * inverse(xi) * xj."""
    return compose(inverse(zij), compose(inverse(xi), xj)).as_array()


def edge_jacobians(xi: Pose2, xj: Pose2,
                   zij: Pose2) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivatives of edge_residual w.r.t. right perturbations.

    Returns (d e / d xi, d e / d xj), both 3x3, for perturbations applied
    as x <- compose(x, exp_map(delta)).  Jj is the rotation by the
    residual's heading; verified against central finite differences in
    the test suite.
    """
    d = compose(inverse(xi), xj)
    e = compose(inverse(zij), d)

    # right-composition by exp(delta) at the identity rotates the increment
    # by the residual element's heading
    ce = math.cos(e.theta)
    se = math.sin(e.theta)
    Jj = np.array([[ce, -se, 0.0], [se, ce, 0.0], [0.0, 0.0, 1.0]])

    # xi enters through inverse(xi): an increment delta on xi becomes
    # exp(-delta) left-multiplied onto d, then carried through inverse(zij)
    cz = math.cos(zij.theta)
    sz = math.sin(zij.theta)
    rot_zinv = np.array([[cz, sz, 0.0], [-sz, cz, 0.0], [0.0, 0.0, 1.0]])
    shift = np.array([[1.0, 0.0, -d.y], [0.0, 1.0, d.x], [0.0, 0.0, 1.0]])
    Ji = -(rot_zinv @ shift)
    return Ji, Jj


# ---------------------------------------------------------------------------
# Batched kernels: the formulas above over whole arrays, one row per pose or
# edge, so a graph linearizes in a fixed number of numpy passes.  Poses are
# (n, 3) arrays of (x, y, theta).  Retractions mirror their scalar
# counterparts step for step; residuals take the scalar heading wraps,
# with translations formed straight from the columns; the Jacobians are
# closed forms over the same group products.  The scalar functions stay
# the reference the batched ones are tested against.

def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """Elementwise wrap_angle onto (-pi, pi]."""
    r = np.fmod(theta + math.pi, TWO_PI)
    r = np.where(r <= 0.0, r + TWO_PI, r)
    return r - math.pi


def poses_from_rows(rows: np.ndarray) -> list[Pose2]:
    """[Pose2(*row) for row in rows] for a (k, 3) array, built in bulk.

    The headings are wrapped in one wrap_angles pass, which gives
    wrap_angle's bits, and each pose's slots are set directly instead of
    through __init__ and __post_init__: a re-chained drive makes one pose
    per odometry sample, and the per-pose constructor was most of its
    cost.
    """
    rows = np.asarray(rows, dtype=float)
    new = object.__new__
    set_x, set_y, set_theta = \
        Pose2.x.__set__, Pose2.y.__set__, Pose2.theta.__set__
    poses = []
    for x, y, theta in zip(rows[:, 0].tolist(), rows[:, 1].tolist(),
                           wrap_angles(rows[:, 2]).tolist()):
        pose = new(Pose2)
        set_x(pose, x)
        set_y(pose, y)
        set_theta(pose, theta)
        poses.append(pose)
    return poses


def _compose_cols(ax, ay, at, bx, by, bt):
    c = np.cos(at)
    s = np.sin(at)
    return ax + c * bx - s * by, ay + s * bx + c * by, wrap_angles(at + bt)


def _sin_ratio_a_taylor(t):
    t2 = t * t
    return 1.0 - t2 / 6.0 * (1.0 - t2 / 20.0)


def _sin_ratio_b_taylor(t):
    return 0.5 * t * (1.0 - t * t / 12.0)


def _frames(c, s, tx, ty) -> np.ndarray:
    """(m, 3, 3) stack of planar frames [[c, -s, tx], [s, c, ty], [0, 0, 1]]
    from length-m arrays c and s, and tx and ty that broadcast to them."""
    # filled in place: np.stack costs about 50 us more per
    # linearization, on graphs of a few hundred edges
    F = np.zeros(c.shape + (3, 3))
    F[:, 0, 0] = F[:, 1, 1] = c
    F[:, 0, 1] = -s
    F[:, 1, 0] = s
    F[:, 0, 2] = tx
    F[:, 1, 2] = ty
    F[:, 2, 2] = 1.0
    return F


def inverse_columns(z: np.ndarray):
    """inverse(z) of every row of a (m, 3) array, as the columns
    batch_edge_residuals reads: x, y, heading, and the heading's cosine
    and sine.  A caller that evaluates one edge set many times inverts
    its measurements once."""
    c, s = np.cos(z[:, 2]), np.sin(z[:, 2])
    t = wrap_angles(-z[:, 2])
    return (-(c * z[:, 0] + s * z[:, 1]), s * z[:, 0] - c * z[:, 1], t,
            np.cos(t), np.sin(t))


def batch_edge_residuals(xi: np.ndarray, xj: np.ndarray, zinv):
    """Residuals (m, 3) of m edges, and the kernel columns their Jacobians
    reuse.

    Row k equals edge_residual of edge k; zinv is inverse_columns of the
    measurements.  d = inverse(xi) xj and e = inverse(z) d are formed
    straight from the columns, and e's columns are the residual.  The
    headings take the scalar products' wraps, so a residual heading at
    +-pi lands on edge_residual's side of the cut.  Returns (r, state)
    with state = (dx, dy, dt, et): the columns of d and e's heading.
    """
    ix, iy, it, ic, is_ = zinv
    c, s = np.cos(xi[:, 2]), np.sin(xi[:, 2])
    w = xj - xi
    wx, wy = w[:, 0], w[:, 1]
    dx = c * wx + s * wy
    dy = c * wy - s * wx
    dt = wrap_angles(wrap_angles(-xi[:, 2]) + xj[:, 2])
    r = np.empty((dx.size, 3))
    r[:, 0] = ix + ic * dx - is_ * dy
    r[:, 1] = iy + is_ * dx + ic * dy
    r[:, 2] = et = wrap_angles(it + dt)
    return r, (dx, dy, dt, et)


def batch_edge_jacobians(state, rows) -> tuple[np.ndarray, np.ndarray]:
    """Jj, (m, 3, 3), of every edge, and A = Ad(inverse(d)), (k, 3, 3),
    of the edges at the k indices `rows`, from the state of
    batch_edge_residuals.

    Jj is the rotation by the residual's heading, a planar frame with no
    translation, and Ji = -Jj A (Sola et al., "A micro Lie theory for
    state estimation in robotics", 2018), so a caller that wants Ji's
    products can form them from Jj's.  An edge whose from node is held
    fixed has no Ji, so a caller leaves it out of `rows`.
    """
    dx, dy, dt, et = state
    dx, dy, dt = dx[rows], dy[rows], dt[rows]
    cd, sd = np.cos(dt), np.sin(dt)
    # Ad(inverse(d)) moves the translation (sd dx - cd dy, sd dy + cd dx)
    # into the frame
    return (_frames(np.cos(et), np.sin(et), 0.0, 0.0),
            _frames(cd, -sd, sd * dx - cd * dy, sd * dy + cd * dx))


def batch_retract(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """retract for every row: compose(x[k], exp_map(delta[k])).

    The step heading's sine and cosine are taken once, under one
    SMALL_ANGLE mask for both of exp_map's ratios.
    """
    dx, dy, dt = delta[:, 0], delta[:, 1], delta[:, 2]
    small = np.abs(dt) < SMALL_ANGLE
    t = np.where(small, 1.0, dt)
    a = np.where(small, _sin_ratio_a_taylor(dt), np.sin(t) / t)
    b = np.where(small, _sin_ratio_b_taylor(dt), (1.0 - np.cos(t)) / t)
    out = np.empty_like(x)
    out[:, 0], out[:, 1], out[:, 2] = _compose_cols(
        x[:, 0], x[:, 1], x[:, 2], a * dx - b * dy, b * dx + a * dy,
        wrap_angles(dt))
    return out
