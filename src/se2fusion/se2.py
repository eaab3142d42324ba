"""SE(2) pose algebra: composition, exp/log charts, edge residuals and Jacobians.

A pose is (x, y, theta) with theta always stored in (-pi, pi].  Tangent
vectors are length-3 numpy arrays (dx, dy, dtheta).  The solver steps a
pose by plain addition, as g2o's VertexSE2::oplusImpl does:

    x (+) delta = (x + dx, y + dy, wrap(theta + dtheta))

and the residual of an edge with measurement zij between poses xi, xj is
the (x, y, theta) of inverse(zij) * inverse(xi) * xj, taken as plain
coordinates rather than through the log chart (g2o's EdgeSE2 convention),
so a position residual weighs the same whichever way its pose points.
Jacobians returned by edge_jacobians are taken against that update
(g2o's EdgeSE2::linearizeOplus).  exp_map and log_map, whose tangents
are body-frame twists, are the group's charts; the solver uses neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

Tangent3 = np.ndarray
"""Increment (dx, dy, dtheta); plain length-3 float array."""


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


def exp_map(v: Tangent3) -> Pose2:
    """Exponential chart: map a body-frame increment onto the group.

    The translation is V(t) @ (dx, dy), V = [[A, -B], [B, A]] with
    A = sin(t)/t and B = (1 - cos(t))/t, taken as sin(h) * (sin(h)/h),
    h = t/2, which does not cancel.  Where h is zero, A = 1 and B = 0.
    """
    dx, dy, dt = float(v[0]), float(v[1]), float(v[2])
    h = 0.5 * dt
    a, b = 1.0, 0.0
    if h != 0.0:
        sh = math.sin(h)
        a, b = math.sin(dt) / dt, sh * (sh / h)
    return Pose2(a * dx - b * dy, b * dx + a * dy, dt)


def log_map(p: Pose2) -> Tangent3:
    """Logarithm chart, the exact inverse of exp_map on (-pi, pi]: the
    translation is V(t)^-1 @ (x, y) = [[f, h], [-h, f]] @ (x, y), with
    h = t/2 and f = h/tan(h), which is 1 where h is zero."""
    h = 0.5 * p.theta
    f = h / math.tan(h) if h != 0.0 else 1.0
    return np.array([f * p.x + h * p.y, -h * p.x + f * p.y, p.theta])


def retract(x: Pose2, delta: Tangent3) -> Pose2:
    """The solver update: delta added to x's coordinates, the heading
    wrapped (g2o's VertexSE2::oplusImpl)."""
    return Pose2(x.x + delta[0], x.y + delta[1], x.theta + delta[2])


def edge_residual(xi: Pose2, xj: Pose2, zij: Pose2) -> Tangent3:
    """Mismatch between the measured and the implied relative pose: the
    translation and heading of inverse(zij) * inverse(xi) * xj.

    The world offset xj - xi is turned into xi's frame, less zij's
    translation, and turned into zij's frame; the heading is
    wrap(theta_j - theta_i - theta_z), wrapped once.
    """
    c, s = math.cos(xi.theta), math.sin(xi.theta)
    wx, wy = xj.x - xi.x, xj.y - xi.y
    dx = c * wx + s * wy - zij.x
    dy = c * wy - s * wx - zij.y
    cz, sz = math.cos(zij.theta), math.sin(zij.theta)
    return np.array([cz * dx + sz * dy, cz * dy - sz * dx,
                     wrap_angle(xj.theta - xi.theta - zij.theta)])


def edge_jacobians(xi: Pose2, xj: Pose2,
                   zij: Pose2) -> tuple[np.ndarray, np.ndarray]:
    """Analytic derivatives of edge_residual w.r.t. the retract update.

    Returns (d e / d xi, d e / d xj), both 3x3, in the form of g2o's
    EdgeSE2::linearizeOplus: Jj is the rotation by -(theta_i + theta_z),
    and Ji = -Jj B, where B = [[1, 0, yi - yj], [0, 1, xj - xi],
    [0, 0, 1]] shears by the world offset between the poses.  Verified
    against central finite differences in the test suite.
    """
    c = math.cos(xi.theta + zij.theta)
    s = math.sin(xi.theta + zij.theta)
    Jj = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    B = np.array([[1.0, 0.0, xi.y - xj.y], [0.0, 1.0, xj.x - xi.x],
                  [0.0, 0.0, 1.0]])
    return -(Jj @ B), Jj


# ---------------------------------------------------------------------------
# Batched kernels: the formulas above over whole arrays, one row per pose or
# edge, so a graph linearizes in a fixed number of numpy passes.  Poses are
# (n, 3) arrays of (x, y, theta).  The retraction and the residuals take
# their scalar counterparts' operations, heading wrap included; the
# Jacobians are formed from the residual pass's columns.  The scalar
# functions stay the reference the batched ones are tested against.

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


def measurement_columns(z: np.ndarray):
    """The columns of a (m, 3) array of measurements that
    batch_edge_residuals reads: x, y, heading, and the heading's cosine
    and sine.  A caller that evaluates one edge set many times takes
    them once."""
    x, y, t = z.T.copy()
    return x, y, t, np.cos(t), np.sin(t)


def batch_edge_residuals(xi: np.ndarray, xj: np.ndarray, z):
    """Residuals (m, 3) of m edges, and the kernel columns their Jacobians
    reuse.

    Row k equals edge_residual of edge k, by the same operations; z is
    measurement_columns of the measurements.  The headings are
    edge_residual's bit for bit, so a residual heading at +-pi lands on
    its side of the cut.  Returns (r, state) with state = (wx, wy, c, s,
    cz, sz): the world offset xj - xi, cos and sin of xi's heading, and
    cos and sin of the measurement's.
    """
    zx, zy, zt, cz, sz = z
    c, s = np.cos(xi[:, 2]), np.sin(xi[:, 2])
    w = xj - xi
    wx, wy = w[:, 0], w[:, 1]
    dx = c * wx + s * wy - zx
    dy = c * wy - s * wx - zy
    r = np.empty((dx.size, 3))
    r[:, 0] = cz * dx + sz * dy
    r[:, 1] = cz * dy - sz * dx
    r[:, 2] = wrap_angles(w[:, 2] - zt)
    return r, (wx, wy, c, s, cz, sz)


def batch_edge_rotations(c, s, cz, sz):
    """Cosine and sine of theta_i + theta_z of every edge, from those of
    the two angles by the angle-sum formulas (no trigonometric call):
    Jj is the rotation by minus that angle."""
    return c * cz - s * sz, s * cz + c * sz


def batch_edge_jacobians(state, rows) -> tuple[np.ndarray, np.ndarray]:
    """Jj, (m, 3, 3), of every edge, and B, (k, 3, 3), of the edges at the
    k indices `rows`, from the state of batch_edge_residuals.

    Jj is edge_jacobians' rotation by -(theta_i + theta_z), its cosine
    and sine formed from the residual pass's, so no trigonometric
    function is called here.  B is the shear by the world offset, and
    Ji = -Jj B, so a caller that wants Ji's products can form them from
    Jj's.  An edge whose from node is held fixed has no Ji, so a caller
    leaves it out of `rows`.
    """
    wx, wy = state[:2]
    ct, st = batch_edge_rotations(*state[2:])
    # filled in place: np.stack costs about 50 us more per
    # linearization, on graphs of a few hundred edges
    Jj = np.zeros(ct.shape + (3, 3))
    Jj[:, 0, 0] = Jj[:, 1, 1] = ct
    Jj[:, 0, 1] = st
    Jj[:, 1, 0] = -st
    Jj[:, 2, 2] = 1.0
    B = np.zeros((len(rows), 3, 3))
    B[:, 0, 0] = B[:, 1, 1] = B[:, 2, 2] = 1.0
    B[:, 0, 2] = -wy[rows]
    B[:, 1, 2] = wx[rows]
    return Jj, B


def batch_retract(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """retract for every row: x[k] + delta[k], the heading wrapped."""
    out = x + delta
    out[:, 2] = wrap_angles(out[:, 2])
    return out
