"""Sparse nonlinear least-squares over pose graphs.

Minimizes the weighted squared residual sum over all non-fixed nodes with
one of three step strategies: plain Gauss-Newton, Levenberg-Marquardt, or
Powell's dogleg (the default).  The three share one iteration: linearize,
propose a step for the method's knob (trust radius, lambda, or none for
Gauss-Newton), test the trial's gain ratio, and accept it or shrink the
knob and propose again.  optimize() views the graph's edge arrays in
place and works on one copy of its pose array, runs every iteration on
them with the batched se2 kernels (residuals, Jacobians, chi-square and
retraction for all edges or nodes in one pass), and writes the free
poses back into the graph's pose array, in one assignment, when it
returns.  The normal equations are filled into a scipy sparse matrix
whose sparsity pattern is computed once per graph; the linear solve uses
a SuperLU factorization with a fill-reducing ordering, falling back to
lambda*diag regularization when factorization fails.

Updates are applied on the right, pose <- compose(pose, exp_map(delta)),
matching the Jacobians produced by the se2 module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import GaugeUnderconstrainedError, SingularSystemError
from .graph import PoseGraph
from .se2 import batch_edge_linearization, batch_edge_residual, \
    batch_retract

# regularization ladder for near-singular normal equations
_LAMBDA_LADDER = (1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
# initial knobs and the limits at which the trust region has collapsed
_TRUST_RADIUS_INIT = 1e4
_MIN_TRUST_RADIUS = 1e-12
_LM_LAMBDA_INIT = 1e-4
_MIN_LM_LAMBDA = 1e-15
_MAX_LM_LAMBDA = 1e12


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of the elementwise product, reduced by numpy rather than BLAS.

    BLAS splits long dot products across its threads, so their rounding
    would depend on the thread count; this reduction does not.
    """
    return float(np.sum(a * b))


def _norm(a: np.ndarray) -> float:
    return math.sqrt(_dot(a, a))


class Method(enum.Enum):
    GAUSS_NEWTON = "gauss_newton"
    LEVENBERG_MARQUARDT = "levenberg_marquardt"
    DOGLEG = "dogleg"


class Termination(enum.Enum):
    ABS_TOL = "abs_tol"
    REL_TOL = "rel_tol"
    STEP_TOL = "step_tol"
    MAX_ITER = "max_iter"
    TRUST_REGION_COLLAPSE = "trust_region_collapse"


@dataclass
class SolverConfig:
    method: Method = Method.DOGLEG
    max_iterations: int = 100
    abs_error_tol: float = 1e-9
    rel_error_tol: float = 1e-9
    step_tol: float = 1e-9


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    initial_error: float
    final_error: float
    termination: Termination


class _PackedGraph:
    """A view of the graph's arrays, with the normal-equation pattern.

    The edge arrays (from/to index vectors, (m, 3) measurements, (m, 3, 3)
    information stack) are the graph's own; only the (n, 3) poses are a
    working copy, indexed by node id.  Free node k owns variables
    3k..3k+2 of the reduced system.  The sparsity pattern of H and the
    map from each block entry to its slot in H.data are built once, so
    linearize() only fills values.
    """

    def __init__(self, graph: PoseGraph):
        self.poses = graph.poses.copy()
        self.i = graph.from_ids
        self.j = graph.to_ids
        self.z = graph.measurements
        self.omega = graph.information
        self.free = np.flatnonzero(~graph.fixed)
        n = self.n = 3 * self.free.size

        col = np.full(len(self.poses), -1, dtype=np.intp)
        col[self.free] = 3 * np.arange(self.free.size)
        io = col[self.i]
        jo = col[self.j]
        # four 3x3 blocks per edge, in the order linearize() stacks them:
        # (i, i), (j, j), (i, j), (j, i); a block on a fixed node is dropped
        r0 = np.stack((io, jo, io, jo))[..., None]
        c0 = np.stack((io, jo, jo, io))[..., None]
        rows = r0 + np.repeat(np.arange(3), 3)
        cols = c0 + np.tile(np.arange(3), 3)
        keep = np.broadcast_to((r0 >= 0) & (c0 >= 0), rows.shape)
        keys, slots = np.unique(cols[keep] * n + rows[keep],
                                return_inverse=True)
        self.nnz = keys.size
        # dropped entries land in one extra bin past the end of H.data
        h_slot = np.full(rows.shape, self.nnz, dtype=np.intp)
        h_slot[keep] = slots
        self.h_slot = h_slot.ravel()
        self.pattern = sp.csc_matrix(
            (np.zeros(self.nnz), keys % n,
             np.searchsorted(keys // n, np.arange(n + 1))),
            shape=(n, n))
        offsets = np.arange(3)
        self.b_slot = np.concatenate(
            [np.where(o[:, None] >= 0, o[:, None] + offsets, n).ravel()
             for o in (io, jo)])

    def _weighted(self, e: np.ndarray) -> np.ndarray:
        # Omega e, edge by edge
        return (self.omega @ e[:, :, None])[:, :, 0]

    def chi2(self, poses: np.ndarray) -> float:
        """Total error, the sum of e' Omega e over all edges."""
        e = batch_edge_residual(poses[self.i], poses[self.j], self.z)
        return _dot(e, self._weighted(e))

    def linearize(self, poses: np.ndarray):
        """Normal equations at `poses`.

        Returns (H, b, chi) where H is csc, b = -sum J'Omega e and chi is
        the total error at `poses`.
        """
        e, Ji, Jj = batch_edge_linearization(poses[self.i], poses[self.j],
                                             self.z)
        oe = self._weighted(e)
        chi = _dot(e, oe)
        JiT = Ji.transpose(0, 2, 1)
        JjT = Jj.transpose(0, 2, 1)
        Hij = JiT @ (self.omega @ Jj)
        blocks = np.stack((JiT @ (self.omega @ Ji), JjT @ (self.omega @ Jj),
                           Hij, Hij.transpose(0, 2, 1)))
        data = np.bincount(self.h_slot, weights=blocks.ravel(),
                           minlength=self.nnz + 1)[:-1]
        grad = np.concatenate(((JiT @ oe[:, :, None]).ravel(),
                               (JjT @ oe[:, :, None]).ravel()))
        b = -np.bincount(self.b_slot, weights=grad,
                         minlength=self.n + 1)[:-1]
        H = sp.csc_matrix((data, self.pattern.indices, self.pattern.indptr),
                          shape=self.pattern.shape)
        return H, b, chi

    def retract(self, poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
        """A copy of `poses` with the free rows moved by `delta`."""
        out = poses.copy()
        out[self.free] = batch_retract(poses[self.free], delta.reshape(-1, 3))
        return out

    def write_back(self, graph: PoseGraph) -> None:
        """Store the current free poses in the graph's pose array."""
        graph.poses[self.free] = self.poses[self.free]


def build_linear_system(graph: PoseGraph):
    """Return (H, b) of the reduced normal equations at the current poses.

    Rows/columns belonging to fixed nodes are removed; free nodes are
    ordered by node id, three consecutive variables each.
    """
    packed = _PackedGraph(graph)
    H, b, _ = packed.linearize(packed.poses)
    return H, b


def _solve_normal(H: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Factor-and-solve with escalating diagonal regularization on failure."""
    n = H.shape[0]
    if n == 0:
        return np.zeros(0)
    diag = H.diagonal()
    # zero diagonal entries get unit damping, otherwise lambda*diag would
    # leave an exactly singular row singular
    damp = np.where(diag > 0.0, diag, 1.0)
    bnorm = _norm(b)
    for lam in (0.0,) + _LAMBDA_LADDER:
        M = H if lam == 0.0 else (H + sp.diags(lam * damp)).tocsc()
        try:
            lu = splu(M, permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=0.001,
                      options={"SymmetricMode": True})
            x = lu.solve(b)
        except RuntimeError:
            continue
        if not np.all(np.isfinite(x)):
            continue
        resid = _norm(M @ x - b)
        if resid <= 1e-6 * (bnorm + 1.0):
            return x
    raise SingularSystemError(
        "normal equations could not be factorized even with "
        f"regularization up to {_LAMBDA_LADDER[-1]:g}")


def _gauss_newton_steps(H, b: np.ndarray):
    gn = _solve_normal(H, b)
    return lambda knob: gn


def _levenberg_marquardt_steps(H, b: np.ndarray):
    diag = H.diagonal()
    damp = np.where(diag > 0.0, diag, 1.0)
    return lambda lam: _solve_normal((H + sp.diags(lam * damp)).tocsc(), b)


def _dogleg_steps(H, b: np.ndarray):
    """Solve once; return the dogleg step as a function of the radius.

    The Gauss-Newton point, the Cauchy point and their norms do not
    depend on the radius, so every trial radius only combines them.
    """
    gn = _solve_normal(H, b)
    gn_norm = _norm(gn)
    bb = _dot(b, b)
    bHb = _dot(b, H @ b)
    cauchy = (bb / bHb) * b if bHb > 0.0 else np.zeros_like(b)
    c_norm = _norm(cauchy)
    bnorm = math.sqrt(bb)

    def step(radius: float) -> np.ndarray:
        if gn_norm <= radius:
            return gn
        if c_norm >= radius:
            if bnorm == 0.0:
                return np.zeros_like(b)
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


def dogleg_step(H, b: np.ndarray, trust_radius: float) -> np.ndarray:
    """Classical Powell dogleg increment for the model 0.5 d'Hd - b'd.

    Returns the Gauss-Newton step when it fits inside the trust region,
    the scaled steepest-descent step when even the Cauchy point does not,
    and the boundary interpolation point otherwise.
    """
    return _dogleg_steps(sp.csc_matrix(H), b)(trust_radius)


# What each method brings to the step loop of _minimize(), in this order:
# steps(H, b) does the work of one linearization once and returns the
# step as a function of the method's knob (trust radius or lambda); the
# knob's initial value; accept(knob, rho), the knob after a step with
# gain ratio rho is accepted; reject(knob), the knob after a step is
# rejected; collapsed(knob), whether the solve has to stop.  Gauss-Newton
# has no accept rule: it takes every step.
_RULES = {
    Method.GAUSS_NEWTON: (_gauss_newton_steps, 0.0, None, None, None),
    Method.LEVENBERG_MARQUARDT: (
        _levenberg_marquardt_steps, _LM_LAMBDA_INIT,
        lambda lam, rho: max(lam * 0.1, _MIN_LM_LAMBDA),
        lambda lam: lam * 10.0,
        lambda lam: lam > _MAX_LM_LAMBDA),
    Method.DOGLEG: (
        _dogleg_steps, _TRUST_RADIUS_INIT,
        lambda radius, rho: radius * 0.5 if rho < 0.25
        else radius * 2.0 if rho > 0.75 else radius,
        lambda radius: radius * 0.5,
        lambda radius: radius < _MIN_TRUST_RADIUS),
}


def optimize(graph: PoseGraph, config: SolverConfig | None = None,
             trace=None) -> SolveReport:
    """Minimize the graph's total error in place over all non-fixed nodes.

    The iterations run on a copy of the graph's pose array; the free rows
    are written back into it once, when the solve returns or raises, and
    fixed node poses are never touched.  When `trace` is given (a callable
    or a writable file-like), one line per iteration is emitted with
    "iteration chi2 step_norm radius"; the last column is the trust-region
    radius for dogleg, lambda for Levenberg-Marquardt and 0 for plain
    Gauss-Newton.
    """
    cfg = config if config is not None else SolverConfig()
    if not graph.fixed.any():
        raise GaugeUnderconstrainedError(
            "graph has no fixed node; the optimum is gauge-invariant")
    sink = trace.write if hasattr(trace, "write") else trace

    packed = _PackedGraph(graph)
    try:
        return _minimize(packed, cfg, sink)
    finally:
        packed.write_back(graph)


def _minimize(packed: _PackedGraph, cfg: SolverConfig, sink) -> SolveReport:
    # the iteration of optimize(); an accepted step replaces packed.poses
    initial = packed.chi2(packed.poses)
    if packed.n == 0:
        return SolveReport(True, 0, initial, initial, Termination.STEP_TOL)

    steps, knob, accept, reject, collapsed = _RULES[cfg.method]
    chi = initial
    converged = False
    termination = Termination.MAX_ITER
    iterations = 0

    def emit(it: int, chi_now: float, step: float, knob: float) -> None:
        if sink is not None:
            sink(f"{it} {chi_now:.17g} {step:.17g} {knob:.17g}\n")

    for it in range(1, cfg.max_iterations + 1):
        iterations = it
        H, b, chi = packed.linearize(packed.poses)
        step = steps(H, b)
        while True:
            delta = step(knob)
            step_norm = _norm(delta)
            if accept is not None and step_norm <= cfg.step_tol:
                new_chi = chi
                break
            trial = packed.retract(packed.poses, delta)
            trial_chi = packed.chi2(trial)
            if accept is None:
                packed.poses, new_chi = trial, trial_chi
                break
            # chi(x (+) d) ~ chi - 2 b'd + d'Hd for this residual convention
            pred = 2.0 * _dot(b, delta) - _dot(delta, H @ delta)
            if trial_chi < chi and pred > 0.0:
                knob = accept(knob, (chi - trial_chi) / pred)
                packed.poses, new_chi = trial, trial_chi
                break
            knob = reject(knob)
            if collapsed(knob):
                emit(it, chi, step_norm, knob)
                return SolveReport(False, it, initial, chi,
                                   Termination.TRUST_REGION_COLLAPSE)

        emit(it, new_chi, step_norm, knob)
        decrease = chi - new_chi
        if new_chi <= cfg.abs_error_tol:
            converged, termination = True, Termination.ABS_TOL
        elif 0.0 <= decrease <= cfg.rel_error_tol * chi:
            converged, termination = True, Termination.REL_TOL
        elif step_norm <= cfg.step_tol:
            converged, termination = True, Termination.STEP_TOL
        chi = new_chi
        if converged:
            break

    return SolveReport(converged, iterations, initial, chi, termination)
