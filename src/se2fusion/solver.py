"""Sparse nonlinear least-squares over pose graphs.

Minimizes the weighted squared residual sum over all non-fixed nodes with
Powell's dogleg.  A pose set is evaluated in two passes of the batched
se2 kernel.  The residual pass gives its chi-square and the kernel
columns the Jacobians reuse; the system pass builds the normal
equations from those.  The initial poses take both passes.  Then each
iteration proposes a step for the current trust radius from the system
it holds, runs the residual pass on the trial, tests its gain ratio,
and accepts it or halves the radius and proposes again.  A rejected
trial pays for its chi-square only, which is all the gain ratio needs.
An accepted trial's system pass gives the next iteration's system, so
no pass runs twice on one pose set.  optimize() views the graph's node
and edge arrays in place; an accepted trial writes its free rows into
the graph's pose array, so fixed poses are never touched and the graph
always holds the last accepted iterate.

The system pass builds each edge's blocks in adjoint form.  Ji = -Jj A
with A = Ad(inverse(d)) and d = inverse(xi) xj, so Hjj = Jj'Omega Jj
gives Hij = -A'Hjj and Hii = A'Hjj A, and g_j = Jj'Omega e gives
g_i = -A'g_j.  No Ji is formed, and Omega is the edge's full 3x3
information matrix.

The reduced normal equations are a symmetric band.  Once per graph the
free nodes are put in Cuthill-McKee order: breadth first from the first
free node, each node's neighbours in ascending degree.  On the chains
that builders.build() makes this gives a half-bandwidth of 5 (G1, G3)
or 8 (G2, where each GNSS node lands next to its vehicle node).  Each
system pass scatters the upper blocks of H straight into LAPACK's upper
band storage, and the step is solved by banded Cholesky, LAPACK's
dpbtrf and dpbtrs called directly.  It is exact at any bandwidth u and
costs O(n u^2), so a graph with loop closures solves too, only more
slowly.  A matrix that is not finite is refused outright.  A solve
whose factorization finds the matrix not positive definite, or whose
solution is not finite or leaves a residual above 1e-6 (|b| + 1), is
retried with lambda*diag added to the diagonal, for lambda from 1e-9 to
1e-3, before SingularSystemError is raised.  Products with H are numpy
band products, not BLAS calls, so a solve gives the same bits whatever
the BLAS thread count.

Updates are applied on the right, pose <- compose(pose, exp_map(delta)),
matching the Jacobians produced by the se2 module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import GaugeUnderconstrainedError, SingularSystemError
from .graph import PoseGraph, _fmt
from .se2 import batch_edge_jacobians, batch_edge_residuals, \
    batch_retract, inverse_columns

# regularization ladder for near-singular normal equations
_LAMBDA_LADDER = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
# initial trust radius, and the radius at which the trust region has
# collapsed
_TRUST_RADIUS_INIT = 1e4
_MIN_TRUST_RADIUS = 1e-12


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


def _chain_order(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cuthill-McKee order of nodes 0..n-1 joined by the pairs (a, b).

    Breadth first from the lowest unvisited node, each node's neighbours
    taken in ascending degree (then index); a node with no path to the
    earlier ones starts the next search.
    """
    pairs = np.unique(np.concatenate((a * n + b, b * n + a)))
    src, dst = np.divmod(pairs, n)
    degree = np.bincount(src, minlength=n)
    by = np.lexsort((dst, degree[dst], src))
    neighbours = dst[by].tolist()
    start = np.searchsorted(src[by], np.arange(n + 1)).tolist()
    seen = [False] * n
    order = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        head = len(order) - 1
        while head < len(order):
            v = order[head]
            head += 1
            for w in neighbours[start[v]:start[v + 1]]:
                if not seen[w]:
                    seen[w] = True
                    order.append(w)
    return np.array(order, dtype=np.intp)


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

    @property
    def converged(self) -> bool:
        return self.termination in (Termination.ABS_TOL, Termination.REL_TOL,
                                    Termination.STEP_TOL)


class _PackedGraph:
    """A view of the graph's arrays, with the band layout of H.

    The (n, 3) poses, indexed by node id, and the edge arrays (from/to
    index vectors, (m, 3, 3) information stack) are the graph's own; the
    (m, 3) measurements are kept only as their inverses' columns, `zinv`.
    `free` lists the free node ids in chain (Cuthill-McKee) order, and
    free[k] owns variables 3k..3k+2 of the reduced system.  The map from
    each block entry to its slot in the (u + 1, n) upper band is built
    once, so system() only fills values.
    """

    def __init__(self, graph: PoseGraph):
        self.poses = graph.poses
        self.i = graph.from_ids
        self.j = graph.to_ids
        self.zinv = inverse_columns(graph.measurements)
        self.omega = graph.information
        free = np.flatnonzero(~graph.fixed)
        n = self.n = 3 * free.size

        rank = np.full(len(self.poses), -1, dtype=np.intp)
        rank[free] = np.arange(free.size)
        ri = rank[self.i]
        rj = rank[self.j]
        both = (ri >= 0) & (rj >= 0)
        order = _chain_order(free.size, ri[both], rj[both])
        self.free = free[order]
        rank[self.free] = np.arange(free.size)
        # first variable of each endpoint, negative on a fixed node
        io = 3 * rank[self.i]
        jo = 3 * rank[self.j]
        # half-bandwidth: the full 3x3 diagonal blocks, widened by the
        # farthest pair of free nodes that share an edge
        u = self.u = 2 + int(np.max(np.abs(io - jo)[both], initial=0))

        # three 3x3 blocks per edge, in the order system() fills them:
        # (i, i), (j, j), (i, j).  Each entry goes to its upper-triangle
        # slot, band[u + r - c, c] for r <= c; the lower half of a diagonal
        # block and any block on a fixed node are dropped.
        r0 = np.stack((io, jo, io))[..., None]
        c0 = np.stack((io, jo, jo))[..., None]
        rows = r0 + np.repeat(np.arange(3), 3)
        cols = c0 + np.tile(np.arange(3), 3)
        r = np.minimum(rows, cols)
        c = np.maximum(rows, cols)
        keep = (r0 >= 0) & (c0 >= 0) & ((rows <= cols) | (r0 != c0))
        # dropped entries land in one extra bin past the end of the band
        self.h_size = (u + 1) * n
        self.h_slot = np.where(keep, (u + r - c) * n + c,
                               self.h_size).ravel()
        offsets = np.arange(3)
        self.b_slot = np.concatenate(
            [np.where(o[:, None] >= 0, o[:, None] + offsets, n).ravel()
             for o in (io, jo)])

    def residual(self, poses: np.ndarray):
        """Total error at `poses`, and the state system() builds its
        normal equations from.

        Returns (chi2, state): chi2 is the sum of e' Omega e over all
        edges, and state holds the kernel columns and Omega e.
        """
        # np.take gathers rows faster than fancy indexing, same values
        e, kernel = batch_edge_residuals(np.take(poses, self.i, axis=0),
                                         np.take(poses, self.j, axis=0),
                                         self.zinv)
        oe = (self.omega @ e[:, :, None])[:, :, 0]
        return _dot(e, oe), (kernel, oe)

    def system(self, state):
        """Normal equations (H, b) from residual()'s state: H the
        (u + 1, n) upper band and b = -sum J'Omega e, both in chain order,
        with each edge's blocks in adjoint form."""
        kernel, oe = state
        Jj, A = batch_edge_jacobians(*kernel)
        JjT = Jj.transpose(0, 2, 1)
        AT = A.transpose(0, 2, 1)
        # filled in the order of h_slot: (i, i), (j, j), (i, j)
        blocks = np.empty((3,) + Jj.shape)
        hii, hjj, hij = blocks
        np.matmul(JjT, self.omega @ Jj, out=hjj)
        np.matmul(AT, hjj, out=hij)
        np.matmul(hij, A, out=hii)
        np.negative(hij, out=hij)
        H = np.bincount(self.h_slot, weights=blocks.ravel(),
                        minlength=self.h_size + 1)[:-1]
        gj = JjT @ oe[:, :, None]
        # -g_i and -g_j, so the scatter is b itself
        grad = np.concatenate(((AT @ gj).ravel(), -gj.ravel()))
        b = np.bincount(self.b_slot, weights=grad,
                        minlength=self.n + 1)[:-1]
        return H.reshape(self.u + 1, self.n), b

    def retract(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """A copy of `poses` with the free rows moved by `delta`, which is
        in chain order."""
        out = poses.copy()
        out[self.free] = batch_retract(np.take(poses, self.free, axis=0),
                                       delta.reshape(-1, 3))
        return out


def _solve_normal(H: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve H x = b for H in upper band storage, by banded Cholesky with
    escalating diagonal regularization on failure."""
    # the package's only scipy use, loaded by the first solve
    from scipy.linalg.lapack import dpbtrf, dpbtrs
    # zero diagonal entries get unit damping, otherwise lambda*diag would
    # leave an exactly singular row singular
    damp = np.where(H[-1] > 0.0, H[-1], 1.0)
    bnorm = _norm(b)
    # LAPACK does not refuse a matrix that is not finite, so it is
    # refused here, before any rung
    ladder = (0.0,) + _LAMBDA_LADDER if np.isfinite(H).all() else ()
    for lam in ladder:
        M = H
        if lam > 0.0:
            # the diagonal is the band's last row
            M = H.copy()
            M[-1] += lam * damp
        factor, info = dpbtrf(M)
        if info != 0:
            # not positive definite
            continue
        x, info = dpbtrs(factor, b)
        if info != 0 or not np.isfinite(x).all():
            continue
        resid = _norm(_band_mul(M, x) - b)
        if resid <= 1e-6 * (bnorm + 1.0):
            return x
    raise SingularSystemError(
        "normal equations could not be factorized even with "
        f"regularization up to {_LAMBDA_LADDER[-1]:g}")


def _dogleg_steps(H: np.ndarray, b: np.ndarray):
    """Solve once; return the dogleg step as a function of the radius.

    The Gauss-Newton point, the Cauchy point and their norms do not
    depend on the radius, so every trial radius only combines them.
    """
    gn = _solve_normal(H, b)
    gn_norm = _norm(gn)
    bb = _dot(b, b)
    bHb = _dot(b, _band_mul(H, b))
    cauchy = (bb / bHb) * b if bHb > 0.0 else np.zeros_like(b)
    c_norm = _norm(cauchy)
    bnorm = math.sqrt(bb)

    def step(radius: float) -> np.ndarray:
        if gn_norm <= radius:
            return gn
        if c_norm >= radius:
            return (radius / bnorm) * b
        # walk from the Cauchy point toward the Gauss-Newton point until
        # the trust-region boundary: ||cauchy + tau*(gn - cauchy)|| = radius
        d = gn - cauchy
        a = _dot(d, d)
        bq = 2.0 * _dot(cauchy, d)
        c = c_norm * c_norm - radius * radius
        tau = (-bq + math.sqrt(bq * bq - 4.0 * a * c)) / (2.0 * a)
        return cauchy + tau * d

    return step


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

    def emit(it: int, chi_now: float, step: float) -> None:
        if sink is not None:
            sink(f"{it} {_fmt(chi_now)} {_fmt(step)} {_fmt(radius)}\n")

    for it in range(1, cfg.max_iterations + 1):
        step = _dogleg_steps(H, b)
        while True:
            delta = step(radius)
            step_norm = _norm(delta)
            if step_norm <= cfg.step_tol:
                emit(it, chi, step_norm)
                done = (Termination.ABS_TOL if chi <= cfg.abs_error_tol
                        else Termination.STEP_TOL)
                return SolveReport(it, initial, chi, done)
            trial = packed.retract(packed.poses, delta)
            trial_chi, trial_state = packed.residual(trial)
            # chi(x (+) d) ~ chi - 2 b'd + d'Hd for this residual convention
            pred = 2.0 * _dot(b, delta) - _dot(delta, _band_mul(H, delta))
            if trial_chi < chi and pred > 0.0:
                rho = (chi - trial_chi) / pred
                if rho < 0.25:
                    radius *= 0.5
                elif rho > 0.75:
                    radius *= 2.0
                break
            radius *= 0.5
            if radius < _MIN_TRUST_RADIUS:
                emit(it, chi, step_norm)
                return SolveReport(it, initial, chi,
                                   Termination.TRUST_REGION_COLLAPSE)

        packed.poses[packed.free] = trial[packed.free]
        emit(it, trial_chi, step_norm)
        if trial_chi <= cfg.abs_error_tol:
            return SolveReport(it, initial, trial_chi, Termination.ABS_TOL)
        if chi - trial_chi <= cfg.rel_error_tol * chi:
            return SolveReport(it, initial, trial_chi, Termination.REL_TOL)
        # the accepted trial's system is the next iteration's
        chi = trial_chi
        H, b = packed.system(trial_state)

    return SolveReport(max(cfg.max_iterations, 0), initial, chi,
                       Termination.MAX_ITER)
