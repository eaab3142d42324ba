"""Independent oracles backing the test suite.

Every routine here recomputes a package result along a different route
(dense instead of sparse algebra, finite differences instead of analytic
calculus, a different projection series, literal formula transcriptions)
so that agreement between package and oracle is evidence, not tautology.
Oracles intentionally avoid importing the module they check wherever the
algorithm itself is under test; shared primitives (Pose2 composition)
are reused only where the primitive has its own independent oracle.
"""

import math

import numpy as np

from se2fusion.errors import InsufficientCoverageError
from se2fusion.se2 import Pose2, compose, exp_map, inverse, edge_residual, \
    retract


# ---------------------------------------------------------------------------
# SE(2) via homogeneous 3x3 matrices (oracle for compose/inverse)

def homogeneous(p):
    c, s = math.cos(p.theta), math.sin(p.theta)
    return np.array([[c, -s, p.x], [s, c, p.y], [0.0, 0.0, 1.0]])


def from_homogeneous(T):
    return Pose2(T[0, 2], T[1, 2], math.atan2(T[1, 0], T[0, 0]))


# ---------------------------------------------------------------------------
# Central finite differences of the edge residual

def fd_edge_jacobians(xi, xj, zij, h=1e-6):
    Ji = np.zeros((3, 3))
    Jj = np.zeros((3, 3))
    for k in range(3):
        d = np.zeros(3)
        d[k] = h
        rp = edge_residual(retract(xi, d), xj, zij)
        rm = edge_residual(retract(xi, -d), xj, zij)
        Ji[:, k] = (rp - rm) / (2.0 * h)
        rp = edge_residual(xi, retract(xj, d), zij)
        rm = edge_residual(xi, retract(xj, -d), zij)
        Jj[:, k] = (rp - rm) / (2.0 * h)
    return Ji, Jj


# ---------------------------------------------------------------------------
# Chi-square edge by edge, and single-pose writes into the graph arrays

def total_error(graph):
    """Sum of e' Omega e over all edges, one scalar residual per edge
    (oracle for the solver's batched chi-square)."""
    chi = 0.0
    for edge in graph.edges:
        e = edge_residual(graph.nodes[edge.from_id].pose,
                          graph.nodes[edge.to_id].pose, edge.measurement)
        chi += float(e @ edge.information @ e)
    return chi


def set_pose(graph, node_id, pose):
    """Overwrite one node's pose in the graph's pose array."""
    graph.poses[node_id] = (pose.x, pose.y, pose.theta)


# ---------------------------------------------------------------------------
# Dense brute-force solver (same update rules, dense algebra, no sparsity)

def dense_system(graph):
    """Full normal equations over free nodes by explicit block loops."""
    from se2fusion.se2 import edge_jacobians

    free = [n.id for n in graph.nodes if not n.fixed]
    col = {nid: 3 * k for k, nid in enumerate(free)}
    m = 3 * len(free)
    H = np.zeros((m, m))
    b = np.zeros(m)
    chi = 0.0
    for edge in graph.edges:
        xi = graph.nodes[edge.from_id].pose
        xj = graph.nodes[edge.to_id].pose
        e = edge_residual(xi, xj, edge.measurement)
        Ji, Jj = edge_jacobians(xi, xj, edge.measurement)
        omega = edge.information
        chi += float(e @ omega @ e)
        blocks = []
        if edge.from_id in col:
            blocks.append((col[edge.from_id], Ji))
        if edge.to_id in col:
            blocks.append((col[edge.to_id], Jj))
        for ca, Ja in blocks:
            b[ca:ca + 3] -= Ja.T @ omega @ e
            for cb, Jb in blocks:
                H[ca:ca + 3, cb:cb + 3] += Ja.T @ omega @ Jb
    return H, b, chi, free


def packed_evaluate(packed, poses):
    """(chi2, H, b) of a solver `_PackedGraph` at `poses`: its residual
    pass, then its system pass on that state (not an oracle: it calls
    the code under test)."""
    chi, state = packed.residual(poses)
    return (chi,) + packed.system(state)


def band_to_dense(band):
    """The symmetric matrix whose upper triangle is held in the (u + 1, n)
    band, LAPACK's upper band storage: band[u - k, j] = H[j - k, j]."""
    u = band.shape[0] - 1
    H = np.diag(band[u])
    for k in range(1, u + 1):
        H += np.diag(band[u - k, k:], k) + np.diag(band[u - k, k:], -k)
    return H


def dense_to_band(H):
    """The upper band storage of a symmetric matrix, as wide as the
    farthest nonzero entry of its upper triangle from the diagonal."""
    rows, cols = np.nonzero(np.triu(H))
    u = int(np.max(cols - rows, initial=0))
    band = np.zeros((u + 1, H.shape[0]))
    for k in range(u + 1):
        band[u - k, k:] = np.diagonal(H, k)
    return band


def _dense_solve(H, b):
    lam = 0.0
    damp = np.where(np.diag(H) > 0.0, np.diag(H), 1.0)
    for _ in range(8):
        try:
            delta = np.linalg.solve(H + lam * np.diag(damp), b)
        except np.linalg.LinAlgError:
            delta = None
        if delta is not None and np.all(np.isfinite(delta)) \
                and np.linalg.norm(H @ delta - b) <= 1e-6 * (np.linalg.norm(b) + 1.0):
            return delta
        lam = 1e-9 if lam == 0.0 else lam * 10.0
    raise np.linalg.LinAlgError("dense normal equations unsolvable")


def dense_dogleg_combine(gn, cauchy, b, radius):
    gn_norm = float(np.linalg.norm(gn))
    if gn_norm <= radius:
        return gn
    c_norm = float(np.linalg.norm(cauchy))
    bnorm = float(np.linalg.norm(b))
    if c_norm >= radius:
        if bnorm == 0.0:
            return np.zeros_like(b)
        return (radius / bnorm) * b
    d = gn - cauchy
    a = float(d @ d)
    bq = 2.0 * float(cauchy @ d)
    c = c_norm * c_norm - radius * radius
    t = (-bq + math.sqrt(bq * bq - 4.0 * a * c)) / (2.0 * a)
    return cauchy + t * d


def dogleg_rootfind(H, b, radius):
    """Boundary point of the dogleg path by 1-D root finding.

    Walks 0 -> Cauchy -> Gauss-Newton and brackets the radius crossing
    with brentq instead of solving the boundary quadratic in closed form.
    Only valid when the Gauss-Newton step lies outside the trust region.
    """
    from scipy.optimize import brentq

    H = np.asarray(H)
    gn = np.linalg.solve(H, b)
    bb = float(b @ b)
    bHb = float(b @ H @ b)
    cauchy = (bb / bHb) * b if bHb > 0.0 else np.zeros_like(b)
    c_norm = float(np.linalg.norm(cauchy))
    if c_norm >= radius:
        t = brentq(lambda s: np.linalg.norm(s * cauchy) - radius, 0.0, 1.0,
                   xtol=1e-15)
        return t * cauchy
    d = gn - cauchy
    t = brentq(lambda s: np.linalg.norm(cauchy + s * d) - radius, 0.0, 1.0,
               xtol=1e-15)
    return cauchy + t * d


def _apply(graph, free, delta):
    saved = []
    for k, nid in enumerate(free):
        saved.append(graph.nodes[nid].pose)
        set_pose(graph, nid, retract(graph.nodes[nid].pose,
                                     delta[3 * k:3 * k + 3]))
    return saved


def _snapshot(graph, free):
    return np.array([graph.nodes[n].pose.as_array() for n in free])


def dense_optimize(graph, max_iterations=100, radius=1e4,
                   abs_tol=1e-9, rel_tol=1e-9, step_tol=1e-9,
                   record_steps=None):
    """Dogleg to convergence with dense algebra only.

    Follows the same update rules as the production solver (accept when
    the error drops and the model predicts a drop, gain-ratio thresholds
    0.25/0.75 with shrink x0.5 / grow x2, reject always halves) so the two
    implementations must walk the same iterate path; assembly, the linear
    solve, and bookkeeping are all plain dense numpy. Mutates the graph
    in place like the production solver. Returns True on convergence.
    """
    for _ in range(max_iterations):
        H, b, chi, free = dense_system(graph)
        gn = _dense_solve(H, b)
        bb = float(b @ b)
        bHb = float(b @ H @ b)
        cauchy = (bb / bHb) * b if bHb > 0.0 else np.zeros_like(b)
        while True:
            delta = dense_dogleg_combine(gn, cauchy, b, radius)
            step = float(np.linalg.norm(delta))
            if step <= step_tol:
                new_chi = chi
                break
            saved = _apply(graph, free, delta)
            _, _, trial, _ = dense_system(graph)
            predicted = 2.0 * float(b @ delta) - float(delta @ H @ delta)
            if trial < chi and predicted > 0.0:
                rho = (chi - trial) / predicted
                if rho < 0.25:
                    radius *= 0.5
                elif rho > 0.75:
                    radius *= 2.0
                new_chi = trial
                break
            for k, nid in enumerate(free):
                set_pose(graph, nid, saved[k])
            radius *= 0.5
            if radius < 1e-12:
                return False
        if record_steps is not None:
            record_steps.append(_snapshot(graph, free))
        decrease = chi - new_chi
        if new_chi <= abs_tol or (0.0 <= decrease <= rel_tol * chi) \
                or step <= step_tol:
            return True
    return False


# ---------------------------------------------------------------------------
# The dogleg loop that evaluates every trial (equality oracle for the
# solver's trial loop; it calls the solver's own evaluation and solve)

def every_trial_optimize(graph, config=None, trace=None):
    """optimize() with the trial loop it had before trials were skipped.

    Each iteration computes b'Hb and the Cauchy point before its first
    trial, and every proposed step is retracted and priced, so a rejected
    Gauss-Newton point is evaluated again at each halved radius that
    still holds it.  Evaluation, the banded solve and the trace format
    are the solver's own, so the report, the trace lines and the poses
    must equal optimize()'s bit for bit.
    """
    from se2fusion import solver
    from se2fusion.graph import _fmt

    cfg = config if config is not None else solver.SolverConfig()
    packed = solver._PackedGraph(graph)
    dot, norm = solver._dot, solver._norm

    def dogleg_steps(H, b):
        gn, Hg = solver._solve_normal(H, b)
        gn_norm = norm(gn)
        bb = dot(b, b)
        bHb = dot(b, solver._band_mul(H, b))
        bg = dot(b, gn)
        gHg = dot(gn, Hg)
        bHg = dot(b, Hg)
        alpha = bb / bHb if bHb > 0.0 else 0.0
        cauchy = alpha * b
        c_norm = norm(cauchy)
        bnorm = math.sqrt(bb)

        def step(radius):
            if gn_norm <= radius:
                return gn, 2.0 * bg - gHg
            if c_norm >= radius:
                s, tau = radius / bnorm, 0.0
                delta = s * b
            else:
                d = gn - cauchy
                a = dot(d, d)
                bq = 2.0 * dot(cauchy, d)
                c = c_norm * c_norm - radius * radius
                tau = (-bq + math.sqrt(bq * bq - 4.0 * a * c)) / (2.0 * a)
                s = (1.0 - tau) * alpha
                delta = cauchy + tau * d
            return delta, 2.0 * (s * bb + tau * bg) \
                - (s * s * bHb + 2.0 * s * tau * bHg + tau * tau * gHg)

        return step

    chi, state = packed.residual(packed.poses)
    initial = chi
    if packed.n == 0:
        return solver.SolveReport(0, initial, initial,
                                  solver.Termination.STEP_TOL)
    H, b = packed.system(state)
    radius = solver._TRUST_RADIUS_INIT

    def emit(it, chi_now, step_norm):
        if trace is not None:
            trace(f"{it} {_fmt(chi_now)} {_fmt(step_norm)} {_fmt(radius)}\n")

    done = solver.Termination
    for it in range(1, cfg.max_iterations + 1):
        step = dogleg_steps(H, b)
        while True:
            delta, pred = step(radius)
            step_norm = norm(delta)
            if step_norm <= cfg.step_tol:
                emit(it, chi, step_norm)
                end = (done.ABS_TOL if chi <= cfg.abs_error_tol
                       else done.STEP_TOL)
                return solver.SolveReport(it, initial, chi, end)
            trial = packed.retract(packed.poses, delta)
            trial_chi, trial_state = packed.residual(trial)
            if trial_chi < chi and pred > 0.0:
                rho = (chi - trial_chi) / pred
                if rho < 0.25:
                    radius *= 0.5
                elif rho > 0.75:
                    radius *= 2.0
                break
            radius *= 0.5
            if radius < solver._MIN_TRUST_RADIUS:
                emit(it, chi, step_norm)
                return solver.SolveReport(it, initial, chi,
                                          done.TRUST_REGION_COLLAPSE)
        packed.poses[packed.free] = trial[packed.free]
        emit(it, trial_chi, step_norm)
        if trial_chi <= cfg.abs_error_tol:
            return solver.SolveReport(it, initial, trial_chi, done.ABS_TOL)
        if chi - trial_chi <= cfg.rel_error_tol * chi:
            return solver.SolveReport(it, initial, trial_chi, done.REL_TOL)
        chi = trial_chi
        H, b = packed.system(trial_state)
    return solver.SolveReport(max(cfg.max_iterations, 0), initial, chi,
                              done.MAX_ITER)


def broadcast_slots(packed):
    """The slot of every block entry of a solver `_PackedGraph` in its
    sums vector [b | band rows 0..u | one drop slot], found entry by
    entry: each entry's row and column, their min and max, and a keep
    mask, all broadcast over the blocks (i, i) of the edges whose from
    node is free, (j, j) of every edge, then (i, j) of the edges whose
    from node is free.  A dropped entry gets the drop value -1."""
    rank = np.full(len(packed.poses), -1, dtype=np.intp)
    rank[packed.free] = np.arange(packed.free.size)
    io, jo = 3 * rank[packed.ends]
    pair = io >= 0
    u, n = packed.u, packed.n
    r0 = np.concatenate((io[pair], jo, io[pair]))[:, None, None]
    c0 = np.concatenate((io[pair], jo, jo[pair]))[:, None, None]
    rows = r0 + np.arange(3)[:, None]
    cols = c0 + np.arange(3)
    r = np.minimum(rows, cols)
    c = np.maximum(rows, cols)
    keep = (r0 >= 0) & (c0 >= 0) & ((rows <= cols) | (r0 != c0))
    slot = np.full((len(r0), 3, 4), -1, dtype=np.intp)
    slot[..., :3] = np.where(keep, n + (u + r - c) * n + c, -1)
    # only a diagonal block carries a b segment
    diagonal = (r0 == c0)[:, :, 0] & (r0[:, :, 0] >= 0)
    slot[..., 3] = np.where(diagonal, rows[..., 0], -1)
    return slot.ravel()


def stacked_system(graph, packed):
    """(chi2, Omega e, H, b) at the graph's poses with no edge classes and
    no diagonal Omega: every edge through the full-Omega matrix products,
    with B for every edge, three blocks per edge, and each entry of H and
    b summed over the (i, i) blocks of all edges, then the (j, j), then
    the (i, j), each in edge order, by np.add.at into dense arrays.  H is
    returned in the band layout of `packed` (its width, the free nodes in
    id order), so the two compare bit for bit."""
    from se2fusion.se2 import batch_edge_jacobians, batch_edge_residuals, \
        measurement_columns

    m = len(graph.from_ids)
    e, kernel = batch_edge_residuals(graph.poses[graph.from_ids],
                                     graph.poses[graph.to_ids],
                                     measurement_columns(graph.measurements))
    omega = graph.information
    oe = (omega @ e[:, :, None])[:, :, 0]
    chi = float((e * oe).sum())
    Jj, B = batch_edge_jacobians(kernel, np.arange(m))
    X = np.empty((m, 3, 4))
    X[..., :3] = omega @ Jj
    X[..., 3] = -oe
    jj = Jj.transpose(0, 2, 1) @ X
    ij = B.transpose(0, 2, 1) @ jj
    ii = np.empty((m, 3, 4))
    ii[..., :3] = ij[..., :3] @ B
    ij = -ij
    ii[..., 3] = ij[..., 3]

    rank = np.full(len(graph.poses), -1, dtype=np.intp)
    rank[packed.free] = np.arange(packed.free.size)
    io, jo = 3 * rank[graph.from_ids], 3 * rank[graph.to_ids]
    n = packed.n
    H = np.zeros((n, n))
    b = np.zeros(n)
    for block, r0, c0 in ((ii, io, io), (jj, jo, jo), (ij, io, jo)):
        rows = r0[:, None, None] + np.arange(3)[:, None]
        cols = c0[:, None, None] + np.arange(3)
        both = ((r0 >= 0) & (c0 >= 0))[:, None, None]
        # the upper triangle of H, an (i, j) block below it transposed
        keep = both & ((rows <= cols) | (r0 != c0)[:, None, None])
        np.add.at(H, (np.minimum(rows, cols)[keep],
                      np.maximum(rows, cols)[keep]), block[..., :3][keep])
    for block, v in ((ii, io), (jj, jo)):
        on = v >= 0
        np.add.at(b, (v[on, None] + np.arange(3)).ravel(),
                  block[on, :, 3].ravel())
    u = packed.u
    band = np.zeros((u + 1, n))
    for k in range(u + 1):
        band[u - k, k:] = np.diagonal(H, k)
    return chi, oe, band, b


# ---------------------------------------------------------------------------
# Weighted rigid fit by a dense angle scan (oracle for the seed alignment)

def scan_rigid_fit(points, targets, weights, n=3600):
    """(theta, tx, ty) of the rigid motion p -> R(theta) p + t that
    minimizes sum_i w_i |R p_i + t - q_i|^2, found without the closed
    form: at each angle the best translation takes the weighted centroid
    of the turned points onto the targets', a scan of n angles picks the
    cheapest, and a root of the cost's slope between its two neighbours
    refines it.  The cost is a sinusoid in theta, so the scan's best
    angle lies within one step of the minimum; points that all coincide
    (no unique rotation) make the root bracket fail."""
    from scipy.optimize import brentq

    p = np.asarray(points, dtype=float)
    q = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)

    def placed(theta):
        c, s = math.cos(theta), math.sin(theta)
        turned = p @ np.array([[c, s], [-s, c]])    # rows R p
        t = w @ (q - turned) / np.sum(w)
        return turned + t, t

    def cost(theta):
        r = placed(theta)[0] - q
        return float(w @ np.sum(r * r, axis=1))

    def slope(theta):
        # the translation's own term drops out: at the best translation
        # the weighted residuals sum to zero
        c, s = math.cos(theta), math.sin(theta)
        turned_prime = p @ np.array([[-s, c], [-c, -s]])    # rows R' p
        r = placed(theta)[0] - q
        return 2.0 * float(w @ np.sum(r * turned_prime, axis=1))

    grid = np.linspace(-math.pi, math.pi, n, endpoint=False)
    best = grid[int(np.argmin([cost(a) for a in grid]))]
    step = 2.0 * math.pi / n
    theta = brentq(slope, best - step, best + step, xtol=1e-15)
    _, t = placed(theta)
    return theta, float(t[0]), float(t[1])


# ---------------------------------------------------------------------------
# Fine-step quadrature oracle for odometry pre-integration

def integrate_fine(times, yaw_rates, velocities, t0, t1, n=100001):
    """Integrate interpolated rates on a dense uniform grid.

    Heading by cumulative trapezoid of yaw rate, translation by trapezoid
    of v*cos(theta), v*sin(theta): a different discretization family than
    the closed-form per-interval rule under test.
    """
    tq = np.linspace(t0, t1, n)
    w = np.interp(tq, times, yaw_rates)
    v = np.interp(tq, times, velocities)
    dt = np.diff(tq)
    theta = np.concatenate(([0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dt)))
    cx = v * np.cos(theta)
    cy = v * np.sin(theta)
    dx = float(np.sum(0.5 * (cx[1:] + cx[:-1]) * dt))
    dy = float(np.sum(0.5 * (cy[1:] + cy[:-1]) * dt))
    arc = float(np.sum(0.5 * (np.abs(v[1:]) + np.abs(v[:-1])) * dt))
    return dx, dy, float(theta[-1]), arc


# ---------------------------------------------------------------------------
# Per-window knot integrator: the odometry rule evaluated window by window
# (oracle for the running-integral window query and for the screen)

def knot_increments(stream, t_start, t_end):
    """Per-interval terms (seg, theta_mid, theta_end) of [t_start, t_end].

    Knots are the window ends plus every raw sample inside, rates are
    interpolated onto them and each interval is integrated from the
    window start.  Coverage is checked by scanning every recording gap,
    with the package's error messages.
    """
    if not t_end > t_start:
        raise ValueError("need t_start < t_end")
    t = stream.timestamps
    dt_all = np.diff(t)
    margin = 2.0 * float(np.median(dt_all)) if t.size > 1 else 0.0
    if t_start < t[0] - margin or t_end > t[-1] + margin:
        raise InsufficientCoverageError(
            f"window [{t_start:g}, {t_end:g}] extends past recorded "
            f"odometry [{t[0]:g}, {t[-1]:g}] by more than {margin:g} s")
    for k in np.flatnonzero(dt_all > margin):
        a, b = t[k], t[k + 1]
        if b > t_start and a < t_end:
            raise InsufficientCoverageError(
                f"odometry gap of {b - a:g} s at t={a:g} overlaps the "
                "requested window")
    inside = t[(t > t_start) & (t < t_end)]
    knots = np.concatenate(([t_start], inside, [t_end]))
    w = np.interp(knots, t, stream.yaw_rates)
    v = np.interp(knots, t, stream.velocities)
    dt = np.diff(knots)
    dtheta = 0.5 * (w[:-1] + w[1:]) * dt
    theta_end = np.cumsum(dtheta)
    return 0.5 * (v[:-1] + v[1:]) * dt, theta_end - 0.5 * dtheta, theta_end


def checked_windows(stream, t_start, t_end):
    """(dx, dy, heading_change, arc_length) arrays of the windows
    [t_start[k], t_end[k]]: `OdometryStream.check_windows`, then one
    `WindowEnds` over the starts and ends, as the builder composes them
    (not an oracle: it calls the code under test)."""
    from se2fusion.odometry import WindowEnds

    a = np.atleast_1d(np.asarray(t_start, dtype=float))
    b = np.atleast_1d(np.asarray(t_end, dtype=float))
    stream.check_windows(a, b)
    k = np.arange(a.size)
    return WindowEnds(stream, np.concatenate((a, b))).windows(k, k + a.size)


def window_pose(stream, t_start, t_end):
    """The window [t_start, t_end] of checked_windows as a Pose2, for
    composing windows."""
    dx, dy, heading, _ = np.concatenate(
        checked_windows(stream, t_start, t_end))
    return Pose2(dx, dy, heading)


def knot_preintegrate(stream, t_start, t_end):
    """(dx, dy, heading_change, arc_length) of one window by the knot rule."""
    seg, theta_mid, theta_end = knot_increments(stream, t_start, t_end)
    return (float(np.sum(seg * np.cos(theta_mid))),
            float(np.sum(seg * np.sin(theta_mid))),
            float(theta_end[-1]), float(np.sum(np.abs(seg))))


def knot_information(arc):
    """Odometry information matrix of a window with this arc length:
    the drift model, capped per axis at the standstill value 1e5."""
    if arc > 0.0:
        sig = 0.011 * arc
        return np.diag([min(sig ** -2, 1e5), min(sig ** -2, 1e5),
                        min((sig / 2.7) ** -2, 1e5)])
    return np.diag([1e5] * 3)


def knot_screen(readings, stream, heading_tol_deg=1.5,
                displacement_tol_m=15.0, standstill_m=0.5):
    """The outlier gate transcribed over knot_preintegrate.

    Returns (flags, rejection rate in percent, uncovered count) and leaves
    the readings untouched.
    """
    heading_tol = math.radians(heading_tol_deg)
    flags = []
    prev = prevprev = None
    uncovered = 0
    for r in readings:
        if prev is None:
            # the anchor: the first fix whose shortest window is covered
            try:
                knot_increments(stream, r.timestamp,
                                np.nextafter(r.timestamp, np.inf))
            except InsufficientCoverageError:
                flags.append(False)
                uncovered += 1
                continue
            flags.append(True)
            prev = r
            continue
        try:
            _, _, heading, arc = knot_preintegrate(stream, prev.timestamp,
                                                   r.timestamp)
        except InsufficientCoverageError:
            flags.append(False)
            uncovered += 1
            continue
        leg = r.position - prev.position
        disp = math.hypot(leg[0], leg[1])
        ok = abs(disp - arc) < displacement_tol_m
        if ok and prevprev is not None:
            prior = prev.position - prevprev.position
            if math.hypot(prior[0], prior[1]) >= standstill_m \
                    and disp >= standstill_m:
                turn = math.atan2(leg[1], leg[0]) \
                    - math.atan2(prior[1], prior[0]) - heading
                ok = abs(math.remainder(turn, 2.0 * math.pi)) < heading_tol
        flags.append(ok)
        if ok:
            prev, prevprev = r, prev
    rate = 100.0 * flags.count(False) / len(flags) if flags else 0.0
    return flags, rate, uncovered


# ---------------------------------------------------------------------------
# Transverse Mercator oracle: Krueger n-series (6th order)

_WGS84_A = 6378137.0
_WGS84_F = 1.0 / 298.257223563
_K0 = 0.9996


def utm_krueger(lat_deg, lon_deg):
    """Project via the Krueger n-series with conformal latitude.

    Sixth-order expansion in the third flattening; sub-millimeter inside
    a UTM zone, an entirely different series family from the package's
    longitude-power expansion. Returns (easting, northing) for the
    point's natural zone with standard false easting/northing.
    """
    e2 = _WGS84_F * (2.0 - _WGS84_F)
    e = math.sqrt(e2)
    n = _WGS84_F / (2.0 - _WGS84_F)

    zone = min(int((lon_deg + 180.0) // 6.0) + 1, 60)
    lon0 = math.radians(6.0 * zone - 183.0)
    phi = math.radians(lat_deg)
    dlon = math.radians(lon_deg) - lon0

    t = math.tan(phi)
    sigma = math.sinh(e * math.atanh(e * t / math.sqrt(1.0 + t * t)))
    tp = t * math.sqrt(1.0 + sigma * sigma) - sigma * math.sqrt(1.0 + t * t)
    xip = math.atan2(tp, math.cos(dlon))
    etap = math.asinh(math.sin(dlon) / math.hypot(tp, math.cos(dlon)))

    A = _WGS84_A / (1.0 + n) * (1.0 + n * n / 4.0 + n ** 4 / 64.0
                                + n ** 6 / 256.0)
    alpha = (
        n / 2.0 - 2.0 * n ** 2 / 3.0 + 5.0 * n ** 3 / 16.0
        + 41.0 * n ** 4 / 180.0 - 127.0 * n ** 5 / 288.0
        + 7891.0 * n ** 6 / 37800.0,
        13.0 * n ** 2 / 48.0 - 3.0 * n ** 3 / 5.0 + 557.0 * n ** 4 / 1440.0
        + 281.0 * n ** 5 / 630.0 - 1983433.0 * n ** 6 / 1935360.0,
        61.0 * n ** 3 / 240.0 - 103.0 * n ** 4 / 140.0
        + 15061.0 * n ** 5 / 26880.0 + 167603.0 * n ** 6 / 181440.0,
        49561.0 * n ** 4 / 161280.0 - 179.0 * n ** 5 / 168.0
        + 6601661.0 * n ** 6 / 7257600.0,
        34729.0 * n ** 5 / 80640.0 - 3418889.0 * n ** 6 / 1995840.0,
        212378941.0 * n ** 6 / 319334400.0,
    )
    xi = xip
    eta = etap
    for j, a in enumerate(alpha, start=1):
        xi += a * math.sin(2.0 * j * xip) * math.cosh(2.0 * j * etap)
        eta += a * math.cos(2.0 * j * xip) * math.sinh(2.0 * j * etap)

    easting = 500000.0 + _K0 * A * eta
    northing = _K0 * A * xi
    if lat_deg < 0.0:
        northing += 10000000.0
    return easting, northing


def meridian_arc_quad(lat_deg):
    """Meridian arc length from the equator by adaptive quadrature."""
    from scipy.integrate import quad

    e2 = _WGS84_F * (2.0 - _WGS84_F)

    def integrand(phi):
        return _WGS84_A * (1.0 - e2) / (1.0 - e2 * math.sin(phi) ** 2) ** 1.5

    val, _ = quad(integrand, 0.0, math.radians(lat_deg), epsabs=1e-10,
                  epsrel=1e-12, limit=200)
    return val


# ---------------------------------------------------------------------------
# Literal transcriptions of the offset metrics (plain loops, no numpy)

def literal_max_offset(pairs):
    worst = 0.0
    for est, tru in pairs:
        d = math.sqrt((est[0] - tru[0]) ** 2 + (est[1] - tru[1]) ** 2)
        worst = max(worst, d)
    return worst


def literal_accuracy(pairs):
    mx = sum(e[0] - t[0] for e, t in pairs) / len(pairs)
    my = sum(e[1] - t[1] for e, t in pairs) / len(pairs)
    return math.sqrt(mx * mx + my * my), (mx, my)


def literal_precision(pairs):
    """Prose reading: dispersion of the offsets about the mean offset."""
    n = len(pairs)
    mx = sum(e[0] - t[0] for e, t in pairs) / n
    my = sum(e[1] - t[1] for e, t in pairs) / n
    total = 0.0
    for e, t in pairs:
        total += ((e[0] - t[0]) - mx) ** 2 + ((e[1] - t[1]) - my) ** 2
    return math.sqrt(total / (n - 1))


def literal_precision_printed(pairs):
    """Printed-formula reading: mean offset subtracted from the estimates."""
    n = len(pairs)
    mx = sum(e[0] - t[0] for e, t in pairs) / n
    my = sum(e[1] - t[1] for e, t in pairs) / n
    total = 0.0
    for e, t in pairs:
        total += (e[0] - mx) ** 2 + (e[1] - my) ** 2
    return math.sqrt(total / (n - 1))


def literal_improvement(gnss_value, fused_value):
    return 100.0 * (gnss_value - fused_value) / gnss_value


# ---------------------------------------------------------------------------
# PPS matching one estimate at a time (oracle for the vectorized match)

def loop_match_pps(est_times, est_positions, truth_times, truth_positions,
                   tolerance=0.05):
    """PPS matching one estimate at a time (oracle for match_pps).

    Looks at the truth samples either side of each estimate, keeps the
    strictly nearer one (the earlier on a tie) and drops the estimate
    when that one lies farther than the tolerance.  Pairs are
    [t, est_x, est_y, truth_x, truth_y] rows.
    """
    est_times = np.asarray(est_times, dtype=float)
    est_positions = np.asarray(est_positions, dtype=float)
    truth_times = np.asarray(truth_times, dtype=float)
    truth_positions = np.asarray(truth_positions, dtype=float)
    pairs = []
    dropped = 0
    idx = np.searchsorted(truth_times, est_times)
    for k, t in enumerate(est_times):
        best = None
        for j in (idx[k] - 1, idx[k]):
            if 0 <= j < truth_times.size:
                dt = abs(float(truth_times[j] - t))
                if best is None or dt < best[0]:
                    best = (dt, j)
        if best is None or not best[0] <= tolerance:
            dropped += 1
            continue
        j = best[1]
        pairs.append([float(t), float(est_positions[k, 0]),
                      float(est_positions[k, 1]),
                      float(truth_positions[j, 0]),
                      float(truth_positions[j, 1])])
    return pairs, dropped


# ---------------------------------------------------------------------------
# CSV text built one field at a time (oracle for the package's writer)

def oracle_csv(header, rows):
    """The text of a CSV file: the header line, then one line per row
    whose str fields are kept and whose other fields are written as
    format(float(v), '.17g')."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str)
                              else format(float(v), ".17g") for v in row))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Injected outliers by generating the drive twice (oracle for the kept mask)

def twin_injected_indices(seed, profile, gnss_error, *args, **kwargs):
    """Fix indices that received a jump, found by generating the drive as
    given and again with the outliers switched off.  The jumps are drawn
    last, so both drives share every other draw and differ exactly at
    the corrupted fixes."""
    from dataclasses import replace

    from se2fusion.synth import generate_synthetic

    ds = generate_synthetic(seed, profile, gnss_error, *args, **kwargs)
    clean = generate_synthetic(
        seed, profile,
        replace(gnss_error, outlier_rate=0.0, outlier_magnitude=0.0),
        *args, **kwargs)
    return [k for k, (a, b) in enumerate(zip(ds.gnss, clean.gnss))
            if not np.array_equal(a.position, b.position)]


def rotate_dataset(ds, angle):
    """The drive with its fixes and truth rotated by `angle` about the
    map origin, and its odometry, which is in the body frame, left
    alone: the same drive seen in a map frame that points elsewhere."""
    from dataclasses import replace

    from se2fusion.dataset import TruthTrack

    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    gnss = [replace(r, position=rot @ r.position) for r in ds.gnss]
    truth = TruthTrack(ds.truth.timestamps, ds.truth.positions @ rot.T)
    return replace(ds, gnss=gnss, truth=truth)


# ---------------------------------------------------------------------------
# One-row graph adders over the block adders, and a random-graph factory
# shared by solver tests

def add_node(graph, pose, fixed=False):
    """Add one node through PoseGraph.add_nodes; return its id."""
    return graph.add_nodes([(pose.x, pose.y, pose.theta)], fixed)[0]


def add_edge(graph, edge):
    """Add one Edge through PoseGraph.add_edges; return its ordinal."""
    z = edge.measurement
    return graph.add_edges([edge.from_id], [edge.to_id],
                           [(z.x, z.y, z.theta)],
                           np.asarray(edge.information, dtype=float)[None],
                           edge.kind)[0]


def random_pose(rng, span=10.0):
    return Pose2(rng.uniform(-span, span), rng.uniform(-span, span),
                 rng.uniform(-math.pi, math.pi))


def random_chain_graph(rng, n_nodes, n_absolute=3, noise=0.05,
                       perturb=1.0):
    """Chain of relative edges plus a few absolute ties to a fixed anchor.

    Ground-truth poses are drawn at random, measurements are truth-exact
    plus tangent noise, and initial node poses are perturbed truth, so the
    optimum is near (not at) the truth: a generic well-posed instance.
    Returns (graph, truth_poses).
    """
    from se2fusion.graph import Edge, EdgeKind, PoseGraph

    truth = [Pose2(0.0, 0.0, 0.0)]
    for _ in range(n_nodes - 1):
        step = Pose2(rng.uniform(0.5, 3.0), rng.uniform(-1.0, 1.0),
                     rng.uniform(-0.7, 0.7))
        truth.append(compose(truth[-1], step))

    graph = PoseGraph()
    add_node(graph, truth[0], fixed=True)
    for p in truth[1:]:
        d = rng.normal(0.0, perturb, 3) * np.array([1.0, 1.0, 0.3])
        add_node(graph, compose(p, exp_map(d)))

    def noisy(z):
        return compose(z, exp_map(rng.normal(0.0, noise, 3)
                                  * np.array([1.0, 1.0, 0.2])))

    for k in range(n_nodes - 1):
        z = noisy(compose(inverse(truth[k]), truth[k + 1]))
        info = np.diag(rng.uniform(0.5, 4.0, 3))
        add_edge(graph, Edge(k, k + 1, z, info, EdgeKind.ODOMETRY))
    for k in rng.choice(np.arange(1, n_nodes), size=min(n_absolute,
                                                        n_nodes - 1),
                        replace=False):
        z = noisy(truth[int(k)])
        info = np.diag([rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), 0.0])
        add_edge(graph, Edge(0, int(k), z, info, EdgeKind.GNSS_ABSOLUTE))
    return graph, truth


def clone_graph(graph):
    from se2fusion.graph import Edge, PoseGraph

    g = PoseGraph()
    for node in graph.nodes:
        add_node(g, Pose2(node.pose.x, node.pose.y, node.pose.theta),
                 fixed=node.fixed)
    for e in graph.edges:
        add_edge(g, Edge(e.from_id, e.to_id, e.measurement,
                         e.information.copy(), e.kind))
    return g
