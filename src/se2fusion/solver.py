"""Sparse nonlinear least-squares over pose graphs.

Minimizes the weighted squared residual sum over all non-fixed nodes with
Powell's dogleg.  A pose set is evaluated in two passes of the batched
se2 kernel.  The residual pass gives its chi-square and the kernel
columns the Jacobians reuse; the system pass builds the normal
equations from those.  The initial poses take both passes.  Then each
iteration proposes a step for the current trust radius from the system
it holds, runs the residual pass on the trial, tests its gain ratio,
and accepts it or halves the radius and proposes again.  Every radius
at or above |g|, the norm of the Gauss-Newton point g, proposes g, so a
rejected g is not evaluated again: the radius halves on, unevaluated,
until it is below |g| or has collapsed.  A trial pays for its
retraction and chi-square only.  Every step is s b + tau g, so its
model decrease pred = 2 b'd - d'Hd is one quadratic in b'b, b'g, b'Hb,
b'Hg and g'Hg.  The solve returns H g, for the undamped H, from the
product its residual check forms, so the ladder below stays inside it.
b'b, b'g and g'Hg are computed once per iteration, b'Hb, b'Hg and the
Cauchy point only in one that proposes a step other than g.  An accepted
trial's system pass gives the next iteration's system, so no pass runs
twice on one pose set.
optimize() views the graph's node and edge arrays in place; an accepted
trial writes its free rows into the graph's pose array, so fixed poses
are never touched and the graph always holds the last accepted iterate.

The system pass writes each edge's blocks in shear form.  Ji = -Jj B
with B the shear by the world offset (wx, wy) = xj - xi, so Hjj =
Jj'Omega Jj gives Hij = -B'Hjj and Hii = B'Hjj B, and g_j = Jj'Omega e
gives g_i = -B'g_j.  No Ji is formed.  Every edge has its (j, j) block
and b segment; only an edge whose from node is free has (i, i) and (i,
j) blocks, and an edge from a fixed node (a fix edge of G1 and G2, an
identity edge of G3) is a unary edge on its to node.

On every graph builders.build() makes, Omega is diagonal and each edge's
Hjj is Omega itself, the closed form: its position block is isotropic
(the odometry windows, G2's ties), which the rotation Jj leaves as it
is, or it runs from a fixed node at heading 0 with a measurement at
heading 0, so Jj is the identity (the fix edges, G3's identity edges).
With Omega = diag(a, a, t), Hij = -B'Omega and Hii = B'Omega B differ
from -Omega and Omega only in Hii's last column (-wy a, wx a, (wx^2 +
wy^2) a + t) and Hij's last row (wy a, -wx a, -t).  So the
pose-independent entries (Omega on the (i, i) and (j, j) blocks, -Omega
on the (i, j) blocks) are summed into a constant band once per graph,
and a system pass scatters only what depends on the poses: b's
segments, g_j being Omega e's first two columns rotated, and five H
entries per edge from a free node.  No Jacobian and no 3x3 product is
formed.  A graph off the closed form (any full Omega, or an anisotropic
diagonal one on an edge off that wiring, as a loaded or hand-built
graph may have) takes stacked 3x3 products instead: the
gradient rides along as a fourth column, Jj'[Omega Jj | -Omega e] =
[Hjj | -g_j], B and its two products are formed for the edges from a
free node alone, and one scatter adds every block and segment into H and
b, each entry summing its edges' terms in the order (i, i), (j, j), (i,
j).  The choice is made once per graph, when it is packed.  When no edge
has an off-diagonal information entry, chi2's Omega e is the elementwise
product with Omega's diagonal, which gives the matrix product's bits.

The reduced normal equations are a symmetric band.  The free nodes are
taken in id order, so the graph's own numbering sets the bandwidth:
builders.build() numbers along the chain, which gives a half-bandwidth
of 5 (G1, G3) or 8 (G2, where each GNSS node comes right after its
vehicle node).  Each system pass scatters H straight into LAPACK's
upper band storage, every entry by one rule: (r, c) goes to band[u +
lo - hi, hi], with lo, hi = min(r, c), max(r, c), so an entry below
the diagonal lands on its mirror, and an entry on a fixed node is
dropped.  The step is solved by banded Cholesky, LAPACK's dpbtrf and
dpbtrs called directly.  They come from scipy's compiled LAPACK
wrapper, scipy.linalg._flapack, which the first solve loads by its
file, so no scipy.linalg package module is imported; only when that
file is not found is scipy.linalg.lapack imported instead.  The banded
Cholesky is exact at any bandwidth u and costs O(n u^2), so a graph
numbered off its chain (a G2 dump in another layout, a loop closure)
solves to the same optimum at its own, wider bandwidth.  A matrix that
is not finite is refused outright.  A solve whose factorization finds
the matrix not positive definite, or whose solution is not finite or
leaves a residual above 1e-6 (|b| + 1), is retried with lambda*diag
added to the diagonal, for lambda from 1e-9 to 1e-3, before
SingularSystemError is raised.  The report keeps the largest lambda any
step's solve took.
Products with H are numpy band products, not BLAS calls, so a solve
gives the same bits whatever the BLAS thread count.

A step is added to the poses, as se2.retract does (g2o's VertexSE2),
which is the update the se2 module's Jacobians are taken against.
"""

from __future__ import annotations

import enum
import math
import os
import sys
from dataclasses import dataclass
from importlib import import_module
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import GaugeUnderconstrainedError, SingularSystemError
from .graph import PoseGraph, _fmt
from .se2 import batch_edge_jacobians, batch_edge_residuals, \
    batch_edge_rotations, batch_retract, measurement_columns

# regularization ladder for near-singular normal equations
_LAMBDA_LADDER = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
# initial trust radius, and the radius at which the trust region has
# collapsed
_TRUST_RADIUS_INIT = 1e4
_MIN_TRUST_RADIUS = 1e-12
# scipy's compiled LAPACK wrapper, the package's only scipy module
_FLAPACK = "scipy.linalg._flapack"


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise product, reduced by numpy rather than BLAS.

    BLAS splits long dot products across its threads, so their rounding
    would depend on the thread count; this reduction does not.
    """
    return float((a * b).sum())


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


def _band_mul(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H x for a symmetric H in upper band storage.

    Row u - k of the (u + 1, n) band holds the k-th superdiagonal,
    band[u - k, j] = H[j - k, j], so row u is the diagonal.
    """
    u = band.shape[0] - 1
    y = band[u] * x
    for k in range(1, u + 1):
        d = band[u - k, k:]
        y[:-k] += d * x[k:]
        y[k:] += d * x[:-k]
    return y


class Termination(enum.Enum):
    ABS_TOL = "abs_tol"
    REL_TOL = "rel_tol"
    STEP_TOL = "step_tol"
    MAX_ITER = "max_iter"
    TRUST_REGION_COLLAPSE = "trust_region_collapse"


@dataclass
class SolverConfig:
    max_iterations: int = 100
    abs_error_tol: float = 1e-9
    rel_error_tol: float = 1e-9
    step_tol: float = 1e-9


@dataclass
class SolveReport:
    iterations: int
    initial_error: float
    final_error: float
    termination: Termination
    # the largest lambda of the regularization ladder that any step's
    # solve took, 0.0 when every solve went without one
    regularization: float = 0.0

    @property
    def converged(self) -> bool:
        return self.termination in (Termination.ABS_TOL, Termination.REL_TOL,
                                    Termination.STEP_TOL)


class _PackedGraph:
    """A view of the graph's arrays, with the band layout of H.

    The (n, 3) poses, indexed by node id, are the graph's own; the from
    and to ids are stacked into one (2, m) array `ends`, so one gather
    gives both endpoints, and the (m, 3) measurements are kept as the
    columns the residual pass reads, `z`.  `omega` is the graph's
    (m, 3, 3) information stack, and `diagonal` its (m, 3) diagonal when
    no edge has an off-diagonal entry, as on every graph builders.build()
    makes, or None otherwise.  `free` lists the free node ids in
    ascending order, and free[k] owns variables 3k..3k+2 of the reduced
    system.  `pair` lists the edges whose from node is free: only they
    have (i, i) and (i, j) blocks, while an edge from a fixed node has
    its (j, j) block alone.  `slot` is the place of each value
    system() sums in the vector [b | band rows 0..u | one drop slot],
    b entry v at v and H entry (r, c) at band[u + lo - hi, hi], lo, hi
    = min(r, c), max(r, c), with any entry on a fixed node in the drop
    slot.  On a graph in the closed form, `constant` is the (u + 1, n)
    band of H's pose-independent entries, `a` the position information
    of each pair edge, and `slot` places each pose-dependent entry; off
    it, `constant` is None and `slot` places every entry of each edge's
    3x4 blocks [H block | b segment].  Both are built once, so system()
    only fills values.
    """

    def __init__(self, graph: PoseGraph):
        self.poses = graph.poses
        self.ends = np.stack((graph.from_ids, graph.to_ids))
        self.z = measurement_columns(graph.measurements)
        flat = graph.information.reshape(-1, 9)
        full = flat[:, [1, 2, 3, 5, 6, 7]].any()
        self.omega = graph.information
        self.diagonal = None if full else flat[:, ::4].copy()
        free = self.free = np.flatnonzero(~graph.fixed)
        n = self.n = 3 * free.size

        rank = np.full(len(self.poses), -1, dtype=np.intp)
        rank[free] = np.arange(free.size)
        # first variable of each endpoint, negative on a fixed node
        io, jo = 3 * rank[self.ends]
        # half-bandwidth: the full 3x3 diagonal blocks, widened by the
        # farthest pair of free nodes that share an edge
        both = (io >= 0) & (jo >= 0)
        u = self.u = 2 + int(np.max(np.abs(io - jo)[both], initial=0))
        self.pair = pair = np.flatnonzero(io >= 0)
        i, j = io[pair], jo[pair]
        p, m = pair.size, jo.size

        # one bincount sums every entry into [b | band rows 0..u | drop],
        # H entry (r, c) at n + (u + lo - hi) n + hi
        size = self.size = (u + 2) * n + 1
        drop = size - 1

        def at(r, c):
            lo, hi = np.minimum(r, c), np.maximum(r, c)
            return np.where(lo >= 0, n + (u + lo - hi) * n + hi, drop)

        k = np.arange(3)[:, None]
        bj = np.where(jo >= 0, jo + k, drop)
        # the first row and column of the (i, i), (j, j) and (i, j) blocks
        r, c = np.concatenate((i, jo, i)), np.concatenate((i, jo, j))

        # the closed form, Jj'Omega Jj = Omega: every Omega diagonal, and
        # each edge's position block isotropic or Jj the identity, the edge
        # running from a fixed node at heading 0, measured at heading 0
        d = self.diagonal
        if d is not None and np.all((d[:, 0] == d[:, 1]) | (
                (io < 0) & (self.poses[self.ends[0], 2] == 0.0)
                & (self.z[2] == 0.0))):
            # the pose-independent entries, on the blocks' diagonals, are
            # summed once: Omega on every (i, i) and (j, j) block, -Omega
            # on every (i, j) block
            dp = np.take(d, pair, axis=0)
            self.a = dp[:, 0].copy()
            sums = np.bincount(at(r + k, c + k).ravel(),
                               np.concatenate((dp, d, -dp)).T.ravel(), size)
            self.constant = sums[n:-1].reshape(u + 1, n)
            # the slots system() fills, in its order: b's (j, j) segment
            # of every edge, then of the pair edges b's (i, i) segment,
            # Hii's last column and the first two entries of Hij's last row
            self.slot = np.concatenate((bj, i + k, at(i + k, i + 2),
                                        at(i + 2, j + k[:2])), axis=None)
        else:
            # system() sums 3x4 blocks [H block | b segment]: (i, i | i)
            # of the pair edges, (j, j | j) of every edge, then (i, j |
            # none) of the pair edges, each class in edge order, so that
            # every entry of H and b sums its edges' terms in the order
            # (i, i), (j, j), (i, j).  A diagonal block's lower half (its
            # upper half's mirror) is dropped.
            self.constant = None
            h = at(r[:, None, None] + k, c[:, None, None] + k.T)
            h[:p + m, k > k.T] = drop
            b = np.concatenate((i + k, bj, np.full((3, p), drop)), axis=1)
            self.slot = np.concatenate((h, b.T[..., None]), axis=2).ravel()

    def residual(self, poses: np.ndarray):
        """Total error at `poses`, and the state system() builds its
        normal equations from.

        Returns (chi2, state): chi2 is the sum of e' Omega e over all
        edges, and state holds the kernel columns and Omega e.
        """
        # np.take gathers rows faster than fancy indexing, same values
        xi, xj = np.take(poses, self.ends, axis=0)
        e, kernel = batch_edge_residuals(xi, xj, self.z)
        # a diagonal Omega has one non-zero term per entry of Omega e, so
        # the elementwise product has the matrix product's bits
        if self.diagonal is not None:
            oe = self.diagonal * e
        else:
            oe = (self.omega @ e[:, :, None])[:, :, 0]
        return _dot(e, oe), (kernel, oe)

    def system(self, state):
        """Normal equations (H, b) from residual()'s state: H the
        (u + 1, n) upper band and b = -sum J'Omega e, both in chain
        order."""
        kernel, oe = state
        if self.constant is None:
            return self._stacked_system(kernel, oe)
        ct, st = batch_edge_rotations(*kernel[2:])
        pair, a = self.pair, self.a
        m, p = len(oe), len(pair)
        values = np.empty(3 * m + 8 * p)
        bj = values[:3 * m].reshape(3, m)
        v = values[3 * m:].reshape(8, p)
        # b's (j, j) segment -g_j = -Jj'Omega e rotates Omega e's first
        # two columns, and its (i, i) segment -g_i = B'g_j is -B' times
        # the (j, j) one
        oe0, oe1, oe2 = oe.T
        np.subtract(st * oe1, ct * oe0, out=bj[0])
        np.subtract(-st * oe0, ct * oe1, out=bj[1])
        np.negative(oe2, out=bj[2])
        bp = np.take(bj, pair, axis=1)
        np.negative(bp[:2], out=v[:2])
        wx, wy = kernel[0][pair], kernel[1][pair]
        np.subtract(wy * bp[0] - wx * bp[1], bp[2], out=v[2])
        # H's pose-dependent entries: Hii's last column (-wy a, wx a,
        # (wx^2 + wy^2) a), whose last entry adds to the constant t, and
        # the first two of Hij's last row, (wy a, -wx a)
        ax, ay = np.multiply(a, wx, out=v[4]), np.multiply(a, wy, out=v[6])
        np.negative(ay, out=v[3])
        np.add(ax * wx, ay * wy, out=v[5])
        np.negative(ax, out=v[7])
        sums = np.bincount(self.slot, values, self.size)
        n = self.n
        H = sums[n:-1].reshape(self.u + 1, n)
        H += self.constant
        return H, sums[:n]

    def _stacked_system(self, kernel, oe):
        """system() for a graph off the closed form, each edge's blocks in
        shear form."""
        pair = self.pair
        Jj, B = batch_edge_jacobians(kernel, pair)
        # Jj'[Omega Jj | -Omega e] = [Hjj | -g_j], and B' times that is
        # [-Hij | g_i]: b's segments ride through the same products as a
        # fourth column, negated with Hij into b's segments.  One scatter
        # adds H and b; b's i segment is copied next to Hii so that each
        # entry of b, like each of H, sums its edges' terms in the order
        # (i, i), (j, j), (i, j).
        X = np.empty(oe.shape + (4,))
        np.matmul(self.omega, Jj, out=X[..., :3])
        np.negative(oe, out=X[..., 3])
        p, m = len(pair), len(oe)
        blocks = np.empty((2 * p + m, 3, 4))
        ii, jj, ij = blocks[:p], blocks[p:p + m], blocks[p + m:]
        np.matmul(Jj.transpose(0, 2, 1), X, out=jj)
        np.matmul(B.transpose(0, 2, 1), np.take(jj, pair, axis=0), out=ij)
        np.matmul(ij[..., :3], B, out=ii[..., :3])
        np.negative(ij, out=ij)
        ii[..., 3] = ij[..., 3]
        sums = np.bincount(self.slot, weights=blocks.ravel(),
                           minlength=self.size)
        n = self.n
        return sums[n:-1].reshape(self.u + 1, n), sums[:n]

    def retract(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """A copy of `poses` with the free rows moved by `delta`, which is
        in chain order."""
        out = poses.copy()
        out[self.free] = batch_retract(np.take(poses, self.free, axis=0),
                                       delta.reshape(-1, 3))
        return out


def _lapack():
    """scipy's LAPACK extension module, whose dpbtrf and dpbtrs every
    solve calls, loaded once per process by the first solve.

    The module's file is found without importing scipy and loaded by its
    extension loader, so no scipy.linalg package module runs: importing
    scipy.linalg would load some 85 scipy modules and numpy.f2py for two
    routines.  It is registered in sys.modules under its own name, so a
    later import of scipy.linalg reuses it, and an earlier one is reused
    here: scipy.linalg.lapack's dpbtrf and dpbtrs are this module's in
    either order.  When the file is not found, scipy.linalg.lapack is
    imported, which loads the same module.
    """
    if _FLAPACK not in sys.modules:
        scipy = find_spec("scipy")
        spec = scipy and PathFinder.find_spec(_FLAPACK, [
            os.path.join(p, "linalg")
            for p in scipy.submodule_search_locations])
        if spec is None:
            import_module("scipy.linalg.lapack")
        else:
            module = sys.modules[_FLAPACK] = module_from_spec(spec)
            spec.loader.exec_module(module)
    return sys.modules[_FLAPACK]


def _solve_normal(H: np.ndarray, b: np.ndarray):
    """Solve H x = b for H in upper band storage, by banded Cholesky with
    escalating diagonal regularization on failure.

    Returns (x, Hx, lam) with Hx for the undamped H: the residual check's
    product less the rung's diagonal times x, so that product itself when
    H solved without a rung.  lam is the rung's lambda, 0.0 without one.
    """
    lapack = _lapack()
    bnorm = _norm(b)
    # LAPACK does not refuse a matrix that is not finite, so it is
    # refused here, before any rung
    ladder = (0.0,) + _LAMBDA_LADDER if np.isfinite(H).all() else ()
    damp = None
    for lam in ladder:
        M = H
        if lam > 0.0:
            if damp is None:
                # zero diagonal entries get unit damping, otherwise
                # lambda*diag would leave an exactly singular row singular
                damp = np.where(H[-1] > 0.0, H[-1], 1.0)
            # the diagonal is the band's last row
            M = H.copy()
            M[-1] += lam * damp
        factor, info = lapack.dpbtrf(M)
        if info != 0:
            # not positive definite
            continue
        x, info = lapack.dpbtrs(factor, b)
        if info != 0 or not np.isfinite(x).all():
            continue
        Mx = _band_mul(M, x)
        if _norm(Mx - b) <= 1e-6 * (bnorm + 1.0):
            return x, Mx - (M[-1] - H[-1]) * x, lam
    raise SingularSystemError(
        "normal equations could not be factorized even with "
        f"regularization up to {_LAMBDA_LADDER[-1]:g}")


def _dogleg_steps(H: np.ndarray, b: np.ndarray):
    """Solve once; return the dogleg step as a function of the radius,
    |g| and the solve's rung lambda.

    The Gauss-Newton point g, the Cauchy point and their norms do not
    depend on the radius, so every trial radius only combines them.  The
    step returns (delta, pred), delta = s b + tau g and pred the model
    decrease 2 b'delta - delta'H delta, one quadratic in (s, tau): (0, 1)
    at g, (radius/|b|, 0) on the gradient branch, ((1 - tau) alpha, tau)
    on the blend.  Any radius at or above |g| gives g, priced with the
    solve's H g; b'Hb, b'Hg, the Cauchy point and its norm are computed
    by the first call with a smaller radius and kept.
    """
    gn, Hg, lam = _solve_normal(H, b)
    gn_norm = _norm(gn)
    bb = _dot(b, b)
    bg = _dot(b, gn)
    gHg = _dot(gn, Hg)
    bnorm = math.sqrt(bb)
    # b'Hb, b'Hg and the Cauchy point, for the first step other than g
    cached = []

    def step(radius: float):
        if gn_norm <= radius:
            return gn, 2.0 * bg - gHg
        if not cached:
            bHb = _dot(b, _band_mul(H, b))
            alpha = bb / bHb if bHb > 0.0 else 0.0
            cauchy = alpha * b
            cached.extend((bHb, _dot(b, Hg), alpha, cauchy, _norm(cauchy)))
        bHb, bHg, alpha, cauchy, c_norm = cached
        if c_norm >= radius:
            s, tau = radius / bnorm, 0.0
            delta = s * b
        else:
            # walk from the Cauchy point toward g until the trust-region
            # boundary: ||cauchy + tau*(gn - cauchy)|| = radius
            d = gn - cauchy
            a = _dot(d, d)
            bq = 2.0 * _dot(cauchy, d)
            c = c_norm * c_norm - radius * radius
            tau = (-bq + math.sqrt(bq * bq - 4.0 * a * c)) / (2.0 * a)
            s = (1.0 - tau) * alpha
            delta = cauchy + tau * d
        return delta, 2.0 * (s * bb + tau * bg) \
            - (s * s * bHb + 2.0 * s * tau * bHg + tau * tau * gHg)

    return step, gn_norm, lam


def optimize(graph: PoseGraph, config: SolverConfig | None = None,
             trace=None) -> SolveReport:
    """Minimize the graph's total error in place over all non-fixed nodes.

    Each accepted step moves the free rows of the graph's pose array, so
    the graph holds the last accepted iterate when the solve returns or
    raises; fixed node poses are never touched.  When `trace` is given (a
    callable taking a string), one line per iteration is emitted with
    "iteration chi2 step_norm radius", the radius being the trust radius
    after the iteration's last trial.
    """
    cfg = config if config is not None else SolverConfig()
    if not graph.fixed.any():
        raise GaugeUnderconstrainedError(
            "graph has no fixed node; the optimum is gauge-invariant")
    return _minimize(_PackedGraph(graph), cfg, trace)


def _minimize(packed: _PackedGraph, cfg: SolverConfig, sink) -> SolveReport:
    # the iteration of optimize(); each outcome returns where it is decided
    chi, state = packed.residual(packed.poses)
    initial = chi
    if packed.n == 0:
        return SolveReport(0, initial, initial, Termination.STEP_TOL)
    H, b = packed.system(state)
    radius = _TRUST_RADIUS_INIT
    rung = 0.0

    def report(it: int, chi_now: float, done: Termination) -> SolveReport:
        return SolveReport(it, initial, chi_now, done, rung)

    def emit(it: int, chi_now: float, step: float) -> None:
        if sink is not None:
            sink(f"{it} {_fmt(chi_now)} {_fmt(step)} {_fmt(radius)}\n")

    for it in range(1, cfg.max_iterations + 1):
        step, gn_norm, lam = _dogleg_steps(H, b)
        rung = max(rung, lam)
        while True:
            delta, pred = step(radius)
            step_norm = _norm(delta)
            if step_norm <= cfg.step_tol:
                emit(it, chi, step_norm)
                done = (Termination.ABS_TOL if chi <= cfg.abs_error_tol
                        else Termination.STEP_TOL)
                return report(it, chi, done)
            trial = packed.retract(packed.poses, delta)
            # e(x (+) d) ~ e + J d to first order, so chi(x (+) d) ~
            # chi - pred whatever chart the residual is taken in
            trial_chi, trial_state = packed.residual(trial)
            if trial_chi < chi and pred > 0.0:
                rho = (chi - trial_chi) / pred
                if rho < 0.25:
                    radius *= 0.5
                elif rho > 0.75:
                    radius *= 2.0
                break
            radius *= 0.5
            # a rejected g is proposed again, and rejected the same way,
            # at every radius down to its norm, so those radii are skipped
            while gn_norm <= radius and radius >= _MIN_TRUST_RADIUS:
                radius *= 0.5
            if radius < _MIN_TRUST_RADIUS:
                emit(it, chi, step_norm)
                return report(it, chi, Termination.TRUST_REGION_COLLAPSE)

        packed.poses[packed.free] = trial[packed.free]
        emit(it, trial_chi, step_norm)
        if trial_chi <= cfg.abs_error_tol:
            return report(it, trial_chi, Termination.ABS_TOL)
        if chi - trial_chi <= cfg.rel_error_tol * chi:
            return report(it, trial_chi, Termination.REL_TOL)
        # the accepted trial's system is the next iteration's
        chi = trial_chi
        H, b = packed.system(trial_state)

    return report(max(cfg.max_iterations, 0), chi, Termination.MAX_ITER)
