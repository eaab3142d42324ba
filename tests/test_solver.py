"""Sparse nonlinear least-squares: the banded linear system and dogleg."""

import dataclasses
import io
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import se2fusion
from se2fusion import solver

from helpers import _dense_solve, add_edge, add_node, band_to_dense, \
    broadcast_slots, clone_graph, dense_optimize, \
    dense_system, dense_to_band, dogleg_rootfind, every_trial_optimize, \
    packed_evaluate, random_chain_graph, random_pose, set_pose, \
    stacked_system, total_error
from se2fusion.builders import BuilderConfig, Strategy, build
from se2fusion.errors import GaugeUnderconstrainedError, SingularSystemError
from se2fusion.graph import Edge, EdgeKind, PoseGraph
from se2fusion.se2 import IDENTITY, Pose2, batch_edge_jacobians, compose, \
    edge_jacobians, edge_residual, exp_map, inverse, retract
from se2fusion.solver import SolveReport, SolverConfig, Termination, \
    _PackedGraph, optimize
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic

# A heading scale near zero; the cases below sit on both sides of it.
SMALL_ANGLE = 1e-4


def _two_node_graph():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3)))
    return g


def test_single_constraint_satisfied_exactly():
    """One free node, one relative measurement: the minimum satisfies the
    measurement outright."""
    g = _two_node_graph()
    report = optimize(g)
    assert report.converged
    assert np.allclose(g.nodes[1].pose.as_array(), [1.0, 0.0, 0.0],
                       atol=1e-12)
    assert report.final_error < 1e-18
    assert report.final_error <= report.initial_error


def test_zero_residual_graph_finishes_in_one_iteration():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.0, 0.5, 0.25))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.5, 0.25), np.eye(3)))
    before = g.nodes[1].pose
    report = optimize(g)
    assert report.converged
    assert report.iterations == 1
    assert g.nodes[1].pose == before


def test_chain_with_absolute_ties_matches_dense_brute_force():
    rng = np.random.default_rng(30)
    g, _ = random_chain_graph(rng, 8, n_absolute=3)
    h = clone_graph(g)
    report = optimize(g)
    assert report.converged
    assert dense_optimize(h)
    for a, b in zip(g.nodes, h.nodes):
        assert np.allclose(a.pose.as_array(), b.pose.as_array(), atol=1e-8)


def test_optimize_requires_a_fixed_node():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3)))
    with pytest.raises(GaugeUnderconstrainedError):
        optimize(g)


def test_graph_with_no_free_node_is_left_untouched():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.5, 0.5, 0.25), fixed=True)
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3)))
    before = g.poses.copy()
    lines = []
    report = optimize(g, trace=lines.append)
    assert report.iterations == 0
    assert report.termination is Termination.STEP_TOL
    assert report.converged
    assert report.final_error == report.initial_error > 0.0
    assert lines == []
    assert np.array_equal(g.poses, before)


def test_a_step_below_step_tol_ends_the_solve_as_step_tol():
    """The free node sits 1e-10 m from its measurement: the first proposed
    step is below step_tol, so the solve ends there without taking it."""
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.0 + 1e-10, 0.0, 0.0))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3)))
    before = g.poses.copy()
    lines = []
    report = optimize(g, SolverConfig(abs_error_tol=0.0), trace=lines.append)
    assert report.termination is Termination.STEP_TOL
    assert report.converged
    assert report.iterations == 1
    assert len(lines) == 1
    assert 0.0 < float(lines[0].split()[2]) <= SolverConfig().step_tol
    assert report.final_error == report.initial_error > 0.0
    assert np.array_equal(g.poses, before)


def test_converged_follows_from_the_termination():
    assert [f.name for f in dataclasses.fields(SolveReport)] == \
        ["iterations", "initial_error", "final_error", "termination"]
    stopped = {Termination.ABS_TOL, Termination.REL_TOL, Termination.STEP_TOL}
    for termination in Termination:
        report = SolveReport(1, 1.0, 0.5, termination)
        assert report.converged == (termination in stopped)


def test_fixed_nodes_bit_exact_after_optimization():
    rng = np.random.default_rng(31)
    g, _ = random_chain_graph(rng, 10, n_absolute=3)
    g.fixed[4] = True
    frozen = [(n.id, n.pose.x, n.pose.y, n.pose.theta)
              for n in g.nodes if n.fixed]
    optimize(g)
    for nid, x, y, theta in frozen:
        p = g.nodes[nid].pose
        assert (p.x, p.y, p.theta) == (x, y, theta)


def _chi_column(lines):
    return [float(line.split()[1]) for line in lines]


def test_accepted_error_sequence_is_monotone():
    g, _ = random_chain_graph(np.random.default_rng(32), 12, n_absolute=4)
    lines = []
    report = optimize(g, trace=lines.append)
    chis = _chi_column(lines)
    assert report.converged
    assert all(b <= a + 1e-12 for a, b in zip(chis, chis[1:]))
    assert chis[-1] == pytest.approx(report.final_error, rel=1e-12)


def test_trace_lines_carry_iteration_chi_step_and_radius():
    g = _two_node_graph()
    sink = io.StringIO()
    optimize(g, SolverConfig(), trace=sink.write)
    lines = sink.getvalue().splitlines()
    assert len(lines) >= 1
    for k, line in enumerate(lines, start=1):
        tokens = line.split()
        assert len(tokens) == 4
        assert int(tokens[0]) == k
        chi, step, radius = map(float, tokens[1:])
        assert chi >= 0.0 and step >= 0.0 and radius > 0.0


def _linear_system(g):
    """(H, b) of the normal equations the solver assembles at the graph's
    poses, H dense, with the free nodes in id order."""
    packed = _PackedGraph(g)
    band, b = packed_evaluate(packed, packed.poses)[1:]
    return band_to_dense(band), b


def test_linear_system_zero_residual_gives_zero_gradient():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.0, 0.0, 0.0))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(3)))
    H, b = _linear_system(g)
    assert H.shape == (3, 3)
    assert np.allclose(b, 0.0, atol=1e-15)
    assert np.linalg.norm(H) > 0.0


def test_linear_system_is_symmetric():
    """The band holds one triangle; the solver's product with it is the
    product with a symmetric matrix, x'(Hy) = y'(Hx)."""
    rng = np.random.default_rng(34)
    for _ in range(10):
        g, _ = random_chain_graph(rng, int(rng.integers(4, 12)))
        packed = _PackedGraph(g)
        band, _ = packed_evaluate(packed, packed.poses)[1:]
        x, y = rng.normal(size=(2, packed.n))
        xHy = float(x @ solver._band_mul(band, y))
        yHx = float(y @ solver._band_mul(band, x))
        assert xHy == pytest.approx(yHx, rel=1e-12, abs=1e-12)


def test_linear_system_matches_dense_assembly():
    rng = np.random.default_rng(35)
    g, _ = random_chain_graph(rng, 10, n_absolute=4)
    H, b = _linear_system(g)
    Hd, bd, _, _ = dense_system(g)
    assert np.allclose(H, Hd, atol=1e-10)
    assert np.allclose(b, bd, atol=1e-10)


def _with_full_information(base, rng, edges):
    """A copy of `base` whose edges at the ordinals `edges` carry a random
    SPD information matrix with non-zero off-diagonal entries."""
    g = PoseGraph()
    for node in base.nodes:
        add_node(g, node.pose, fixed=node.fixed)
    for k, e in enumerate(base.edges):
        info = e.information
        if k in edges:
            root = np.tril(rng.uniform(0.3, 2.0, (3, 3)))
            info = root @ root.T
        add_edge(g, Edge(e.from_id, e.to_id, e.measurement, info, e.kind))
    return g


def test_linear_system_matches_dense_assembly_with_full_information():
    """Every edge carries a random SPD information matrix with non-zero
    off-diagonal entries, so the shear-form blocks and the gradient
    take the full matrix through the band scatter."""
    rng = np.random.default_rng(54)
    base, _ = random_chain_graph(rng, 10, n_absolute=4)
    g = _with_full_information(base, rng, range(len(base.edges)))
    upper = g.information[:, [0, 0, 1], [1, 2, 2]]
    assert np.all(upper != 0.0)
    assert np.all(np.linalg.eigvalsh(g.information) > 0.0)
    H, b = _linear_system(g)
    Hd, bd, _, _ = dense_system(g)
    assert np.allclose(H, Hd, atol=1e-10)
    assert np.allclose(b, bd, atol=1e-10)


def test_linear_model_predicts_small_step_decrease():
    """First-order Taylor check: scale the full step down by 1e-4 and the
    modeled decrease must match the measured one."""
    rng = np.random.default_rng(36)
    for _ in range(5):
        g, _ = random_chain_graph(rng, 8, n_absolute=3)
        H, b = _linear_system(g)
        delta = 1e-4 * np.linalg.solve(H, b)
        predicted = 2.0 * float(b @ delta) - float(delta @ (H @ delta))
        chi0 = total_error(g)
        free = [n for n in g.nodes if not n.fixed]
        for k, node in enumerate(free):
            set_pose(g, node.id, retract(node.pose, delta[3 * k:3 * k + 3]))
        actual = chi0 - total_error(g)
        assert predicted > 0.0
        assert actual == pytest.approx(predicted, rel=1e-2)


def _random_spd(rng, n):
    A = rng.normal(size=(n, n))
    return A @ A.T + n * np.eye(n)


def test_dogleg_step_large_radius_equals_gauss_newton():
    rng = np.random.default_rng(37)
    for _ in range(20):
        H = _random_spd(rng, 6)
        b = rng.normal(size=6)
        gn = np.linalg.solve(H, b)
        step, gn_norm = solver._dogleg_steps(dense_to_band(H), b)
        assert np.allclose(step(1e12)[0], gn, atol=1e-12)
        assert gn_norm == pytest.approx(np.linalg.norm(gn), rel=1e-12)


def test_dogleg_step_tiny_radius_is_scaled_gradient():
    rng = np.random.default_rng(38)
    for _ in range(20):
        H = _random_spd(rng, 5)
        b = rng.normal(size=5)
        radius = 1e-6
        step = solver._dogleg_steps(dense_to_band(H), b)[0](radius)[0]
        assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-12)
        cosine = float(step @ b) / (np.linalg.norm(step) * np.linalg.norm(b))
        assert cosine == pytest.approx(1.0, abs=1e-12)


def test_dogleg_step_intermediate_matches_rootfind_oracle():
    rng = np.random.default_rng(39)
    checked = 0
    for _ in range(200):
        H = _random_spd(rng, 2)
        b = rng.normal(size=2) * 10.0
        gn = np.linalg.solve(H, b)
        cauchy = (float(b @ b) / float(b @ H @ b)) * b
        lo, hi = np.linalg.norm(cauchy), np.linalg.norm(gn)
        if not hi > lo * 1.01:
            continue
        radius = 0.5 * (lo + hi)
        step = solver._dogleg_steps(dense_to_band(H), b)[0](radius)[0]
        oracle = dogleg_rootfind(H, b, radius)
        assert np.allclose(step, oracle, atol=1e-10)
        assert np.linalg.norm(step) == pytest.approx(radius, rel=1e-9)
        checked += 1
    assert checked >= 50


def test_dogleg_step_reports_unsolvable_system():
    """A system the regularization ladder cannot repair is reported, not
    papered over.  Plain rank deficiency stays consistent under the
    diagonal damping, so an unfactorizable matrix is the trigger."""
    H = np.array([[np.nan, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    b = np.ones(3)
    with pytest.raises(SingularSystemError):
        solver._dogleg_steps(dense_to_band(H), b)


def test_dogleg_step_regularizes_plain_rank_deficiency():
    """A zero block with a matching gradient entry is handled by the
    ladder: the step stays finite and inside the trust region."""
    H = np.diag([1.0, 1.0, 0.0])
    b = np.array([1.0, 1.0, 1.0])
    step = solver._dogleg_steps(dense_to_band(H), b)[0](10.0)[0]
    assert np.all(np.isfinite(step))
    assert np.linalg.norm(step) <= 10.0 + 1e-9


def test_solve_returns_the_undamped_product():
    """The solve's second value is H x with H itself, not the damped
    matrix of the rung that solved: for random SPD systems, where H x is
    b to the residual gate, and for one that needs a rung, where it is
    far from b."""
    from scipy.linalg.lapack import dpbtrf
    rng = np.random.default_rng(56)
    systems = [(_random_spd(rng, 6), rng.normal(size=6)) for _ in range(20)]
    rung = (np.diag([1.0, 1.0, 0.0]), np.ones(3))
    assert dpbtrf(dense_to_band(rung[0]))[1] != 0
    for H, b in systems + [rung]:
        x, Hx = solver._solve_normal(dense_to_band(H), b)
        want = H @ x
        assert np.linalg.norm(Hx - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(Hx - rung[1]) > 0.5


def test_dogleg_pred_is_the_dense_model_decrease_on_every_branch():
    """Each step's pred is 2 b'd - d'Hd with the undamped H, on the
    Gauss-Newton, the gradient and the blend branch: for random SPD
    systems, and for two whose solve needs a rung of the ladder, where
    the Gauss-Newton point solves (H + lam D) g = b instead.  On the
    second the Cauchy step is long (b'b / b'Hb = 1500), so the blend's
    b'Hg, which the rung moves off b'b, weighs above the tolerance."""
    from scipy.linalg.lapack import dpbtrf
    rng = np.random.default_rng(55)
    systems = [(_random_spd(rng, 6), rng.normal(size=6)) for _ in range(20)]
    rungs = [(np.diag([1.0, 1.0, 0.0]), np.ones(3)),
             (np.diag([1e-3, 1e-3, 0.0]), np.ones(3))]
    for H, _ in rungs:
        assert dpbtrf(dense_to_band(H))[1] != 0
    for H, b in systems + rungs:
        band = dense_to_band(H)
        gn = solver._solve_normal(band, b)[0]
        gn_norm = np.linalg.norm(gn)
        bnorm = np.linalg.norm(b)
        cauchy_norm = float(b @ b) / float(b @ H @ b) * bnorm
        assert cauchy_norm < 0.99 * gn_norm
        step = solver._dogleg_steps(band, b)[0]
        for branch, radius in (("gauss-newton", 2.0 * gn_norm),
                               ("gradient", 0.5 * cauchy_norm),
                               ("blend", 0.5 * (cauchy_norm + gn_norm))):
            delta, pred = step(radius)
            if branch == "gauss-newton":
                assert np.array_equal(delta, gn)
            elif branch == "gradient":
                assert np.allclose(delta, radius / bnorm * b, rtol=1e-12)
            else:
                assert np.linalg.norm(delta) == pytest.approx(radius,
                                                              rel=1e-9)
                assert not np.allclose(delta, radius / bnorm * b)
            want = 2.0 * float(b @ delta) - float(delta @ H @ delta)
            assert pred == pytest.approx(want, rel=1e-9), branch


def test_sparse_path_equals_dense_path_for_first_iterations():
    rng = np.random.default_rng(40)
    for trial in range(5):
        base, _ = random_chain_graph(rng, int(rng.integers(5, 13)),
                                     n_absolute=3)
        dense = clone_graph(base)
        path = []
        dense_optimize(dense, max_iterations=3, record_steps=path)
        for k, want in enumerate(path[:3], start=1):
            g = clone_graph(base)
            optimize(g, SolverConfig(max_iterations=k))
            got = np.array([n.pose.as_array() for n in g.nodes
                            if not n.fixed])
            assert np.max(np.abs(got - want)) < 1e-9, (trial, k)


def test_noise_free_graph_recovers_ground_truth():
    rng = np.random.default_rng(41)
    for _ in range(3):
        g, truth = random_chain_graph(rng, 10, n_absolute=4, noise=0.0,
                                      perturb=0.0)
        for node in g.nodes:
            if node.fixed:
                continue
            bump = np.array([rng.uniform(-10.0, 10.0),
                             rng.uniform(-10.0, 10.0),
                             rng.uniform(-0.5, 0.5)])
            set_pose(g, node.id, compose(node.pose, exp_map(bump)))
        report = optimize(g, SolverConfig(max_iterations=200,
                                          abs_error_tol=1e-18,
                                          rel_error_tol=1e-14,
                                          step_tol=1e-12))
        assert report.converged
        for node, want in zip(g.nodes, truth):
            assert np.max(np.abs(node.pose.as_array() - want.as_array())) \
                < 1e-8


def test_zero_heading_information_with_odometry_is_solvable():
    """Absolute position ties carry no heading weight; the odometry edge
    supplies it, and the system stays regular."""
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    a = add_node(g, Pose2(0.3, -0.2, 0.1))
    b = add_node(g, Pose2(1.4, 0.3, -0.05))
    add_edge(g, Edge(a, b, Pose2(1.0, 0.0, 0.0), np.diag([4.0, 4.0, 25.0]),
                     EdgeKind.ODOMETRY))
    add_edge(g, Edge(0, a, Pose2(0.0, 0.0, 0.0), np.diag([1.0, 1.0, 0.0]),
                     EdgeKind.GNSS_ABSOLUTE))
    add_edge(g, Edge(0, b, Pose2(1.0, 0.0, 0.0), np.diag([1.0, 1.0, 0.0]),
                     EdgeKind.GNSS_ABSOLUTE))
    report = optimize(g)
    assert report.converged
    assert report.final_error < 1e-9


def test_completely_unconstrained_heading_still_solves():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    a = add_node(g, Pose2(0.3, -0.2, 0.7))
    add_edge(g, Edge(0, a, Pose2(1.0, 2.0, 0.0), np.diag([1.0, 1.0, 0.0]),
                     EdgeKind.GNSS_ABSOLUTE))
    report = optimize(g)
    assert report.converged
    assert report.final_error < 1e-9


def test_max_iterations_is_reported_not_raised():
    rng = np.random.default_rng(42)
    g, _ = random_chain_graph(rng, 12, n_absolute=4, perturb=3.0)
    report = optimize(g, SolverConfig(max_iterations=1))
    assert not report.converged
    assert report.termination is Termination.MAX_ITER
    assert report.iterations == 1


def test_report_error_bookkeeping():
    rng = np.random.default_rng(43)
    g, _ = random_chain_graph(rng, 9)
    before = total_error(g)
    report = optimize(g)
    assert report.initial_error == pytest.approx(before, rel=1e-12)
    assert report.final_error == pytest.approx(total_error(g), rel=1e-9,
                                               abs=1e-15)
    assert report.final_error <= report.initial_error


def _graph_near_branches(rng):
    """Random chain whose node headings sit next to +-pi, and near zero on
    both sides of SMALL_ANGLE, so chi-square and retraction cross every
    heading wrap."""
    g, _ = random_chain_graph(rng, 14, n_absolute=4, perturb=2.0)
    headings = (math.pi - 1e-9, -math.pi + 1e-9, math.pi,
                0.999 * SMALL_ANGLE, -1.001 * SMALL_ANGLE)
    for k, node in enumerate(g.nodes[1::2]):
        p = node.pose
        set_pose(g, node.id,
                 Pose2(p.x, p.y, headings[k % len(headings)]))
    return g


def test_packed_chi2_matches_total_error():
    rng = np.random.default_rng(44)
    for _ in range(10):
        g = _graph_near_branches(rng)
        packed = _PackedGraph(g)
        want = total_error(g)
        chi = packed_evaluate(packed, packed.poses)[0]
        assert chi == pytest.approx(want, rel=1e-12)


def test_packed_retraction_matches_scalar_retract():
    rng = np.random.default_rng(45)
    for _ in range(10):
        g = _graph_near_branches(rng)
        g.fixed[5] = True
        packed = _PackedGraph(g)
        free = [n for n in g.nodes if not n.fixed]
        delta = rng.normal(0.0, 0.5, 3 * len(free))
        delta[2::6] = 1.001 * SMALL_ANGLE
        delta[5::6] = 1e-3
        moved = packed.retract(packed.poses, delta)
        for k, node in enumerate(free):
            want = retract(node.pose, delta[3 * k:3 * k + 3]).as_array()
            np.testing.assert_allclose(moved[node.id], want, rtol=1e-12,
                                       atol=1e-12)
        for node in g.nodes:
            if node.fixed:
                assert np.array_equal(moved[node.id], node.pose.as_array())


def test_a_raised_solve_leaves_the_last_accepted_iterate(monkeypatch):
    rng = np.random.default_rng(49)
    g, _ = random_chain_graph(rng, 12, n_absolute=4, perturb=3.0)
    g.fixed[6] = True
    want = clone_graph(g)
    report = optimize(want, SolverConfig(max_iterations=2))
    assert report.iterations == 2 and not report.converged
    solve = solver._solve_normal
    calls = []

    def third_fails(H, b):
        # dogleg factors once per iteration
        calls.append(None)
        if len(calls) == 3:
            raise SingularSystemError("injected")
        return solve(H, b)

    monkeypatch.setattr(solver, "_solve_normal", third_fails)
    before = g.poses.copy()
    with pytest.raises(SingularSystemError, match="injected"):
        optimize(g)
    assert np.array_equal(g.poses, want.poses)
    assert not np.array_equal(g.poses, before)
    assert np.array_equal(g.poses[g.fixed], before[g.fixed])


def test_optimize_constructs_no_pose_objects(monkeypatch):
    rng = np.random.default_rng(50)
    g, _ = random_chain_graph(rng, 40, n_absolute=8)
    before = [n.pose for n in g.nodes]
    made = []
    post_init = Pose2.__post_init__

    def counted(self):
        made.append(None)
        post_init(self)

    monkeypatch.setattr(Pose2, "__post_init__", counted)
    report = optimize(g)
    assert made == []
    monkeypatch.undo()
    assert report.converged and [n.pose for n in g.nodes] != before


def test_optimize_writes_back_pose_objects():
    rng = np.random.default_rng(46)
    g, _ = random_chain_graph(rng, 9, n_absolute=3)
    report = optimize(g)
    assert all(type(n.pose) is Pose2 for n in g.nodes)
    assert all(type(v) is float for n in g.nodes
               for v in (n.pose.x, n.pose.y, n.pose.theta))
    assert report.final_error == pytest.approx(total_error(g), rel=1e-12)


# no tolerance can stop the solve, so it runs until the radius gives out
_COLLAPSE = SolverConfig(abs_error_tol=0.0, step_tol=0.0, rel_error_tol=-1.0)


def test_dogleg_reports_trust_region_collapse():
    g, _ = random_chain_graph(np.random.default_rng(47), 9, n_absolute=3)
    lines = []
    report = optimize(g, _COLLAPSE, trace=lines.append)
    assert report.termination is Termination.TRUST_REGION_COLLAPSE
    assert not report.converged
    assert report.iterations == len(lines) < 20
    radius = float(lines[-1].split()[3])
    assert 0.5e-12 <= radius < 1e-12
    assert report.final_error == pytest.approx(total_error(g), rel=1e-12)
    assert report.final_error <= report.initial_error


def _trace_with_trials(monkeypatch, graph, config):
    """Solve with a trace; return the report and, per trace line, its
    radius, the number of trial steps its iteration evaluated and the
    norm of its Gauss-Newton point."""
    residual = _PackedGraph.residual
    dogleg = solver._dogleg_steps
    calls, gn_norms = [], []

    def counted(self, poses):
        calls.append(None)
        return residual(self, poses)

    def recorded(H, b):
        step, gn_norm = dogleg(H, b)
        gn_norms.append(gn_norm)
        return step, gn_norm

    monkeypatch.setattr(_PackedGraph, "residual", counted)
    monkeypatch.setattr(solver, "_dogleg_steps", recorded)
    marks = []
    report = optimize(graph, config, trace=lambda line: marks.append(
        (float(line.split()[3]), len(calls))))
    # the first residual pass is of the initial poses, then one per trial
    counts = np.diff([1] + [n for _, n in marks])
    return report, [k for k, _ in marks], counts.tolist(), gn_norms


def test_trace_radius_follows_the_dogleg_update_rule(monkeypatch):
    g, _ = random_chain_graph(np.random.default_rng(48), 9, n_absolute=3)
    report, radii, trials, gn_norms = _trace_with_trials(monkeypatch, g,
                                                         _COLLAPSE)
    assert report.termination is Termination.TRUST_REGION_COLLAPSE
    assert max(trials) > 1
    assert len(gn_norms) == len(radii) == report.iterations
    radius = 1e4
    skipped = 0
    for k, (traced, n, gn_norm) in enumerate(zip(radii, trials, gn_norms)):
        last = k == len(radii) - 1
        # a rejected trial halves the radius.  A halved radius still at
        # or above |g| means the rejected trial was g, the step at every
        # such radius, so it halves on until it is below |g| or collapsed.
        # An accepted trial halves, keeps or doubles it by its gain ratio.
        for _ in range(n if last else n - 1):
            radius *= 0.5
            while gn_norm <= radius and radius >= 1e-12:
                radius *= 0.5
                skipped += 1
        if last:
            assert traced == radius < 1e-12
        else:
            assert traced / radius in (0.5, 1.0, 2.0)
        radius = traced
    assert skipped > 0


def test_each_pose_set_is_evaluated_once(monkeypatch):
    """The residual pass runs once for the initial poses and once per
    trial.  The system pass runs once for the initial poses and once per
    accepted trial, never for a rejected one.  The system factored at
    iteration k + 1 is a fresh evaluation of the poses accepted at
    iteration k, bit for bit."""
    g, _ = random_chain_graph(np.random.default_rng(48), 9, n_absolute=3)
    packed = _PackedGraph(clone_graph(g))
    residual, system = _PackedGraph.residual, _PackedGraph.system
    retract_trial = _PackedGraph.retract
    dogleg = solver._dogleg_steps
    kernels = {"batch_edge_residuals": 0, "batch_edge_jacobians": 0}
    evaluated, built, trials, factored = [], [], [], []
    accepted = [g.poses.copy()]

    def counted(name):
        kernel = getattr(solver, name)

        def call(*args):
            kernels[name] += 1
            return kernel(*args)
        return call

    def recorded_residual(self, poses):
        chi, state = residual(self, poses)
        evaluated.append((poses.copy(), state))
        return chi, state

    def recorded_system(self, state):
        built.append(state)
        return system(self, state)

    def counted_trial(self, poses, delta):
        trials.append(None)
        return retract_trial(self, poses, delta)

    def recorded(H, b):
        factored.append((H.copy(), b.copy()))
        return dogleg(H, b)

    for name in kernels:
        monkeypatch.setattr(solver, name, counted(name))
    monkeypatch.setattr(_PackedGraph, "residual", recorded_residual)
    monkeypatch.setattr(_PackedGraph, "system", recorded_system)
    monkeypatch.setattr(_PackedGraph, "retract", counted_trial)
    monkeypatch.setattr(solver, "_dogleg_steps", recorded)
    report = optimize(g, _COLLAPSE,
                      trace=lambda _: accepted.append(g.poses.copy()))
    assert report.termination is Termination.TRUST_REGION_COLLAPSE
    # one trace line per iteration; each but the last, the collapse,
    # accepted one trial, so the others were rejected
    rejected = len(trials) - (report.iterations - 1)
    assert rejected > 0
    assert kernels["batch_edge_residuals"] == len(evaluated) \
        == 1 + len(trials)
    assert kernels["batch_edge_jacobians"] == len(built) \
        == report.iterations == len(accepted) - 1
    # each system is built from the residual state of the initial poses
    # or of an accepted trial, in that order
    sources = [next(poses for poses, state in evaluated if state is s)
               for s in built]
    for poses, want in zip(sources, accepted):
        assert np.array_equal(poses, want)
    # the collapse moved nothing, so its poses are not factored again
    assert len(factored) == report.iterations
    for poses, (H, b) in zip(accepted, factored):
        _, want_H, want_b = packed_evaluate(packed, poses)
        assert np.array_equal(H, want_H) and np.array_equal(b, want_b)


def test_band_products_run_once_per_solve_and_once_per_cauchy_point(
        monkeypatch):
    """An iteration multiplies by its band once, for the solve's residual
    check, before its first trial, and once more for b'Hb just before its
    first trial that is not the Gauss-Newton point; no trial, rejected
    or accepted, makes a product of its own."""
    g, _ = random_chain_graph(np.random.default_rng(48), 9, n_absolute=3)
    band_mul, dogleg = solver._band_mul, solver._dogleg_steps
    retract_trial = _PackedGraph.retract
    events, points = [], []

    def counted_mul(band, x):
        events.append("M")
        return band_mul(band, x)

    def counted_dogleg(H, b):
        events.append("F")
        step, gn_norm = dogleg(H, b)
        points.append(step(math.inf)[0])
        return step, gn_norm

    def counted_trial(self, poses, delta):
        # G: the iteration's Gauss-Newton point, S: any other step
        events.append("G" if np.array_equal(delta, points[-1]) else "S")
        return retract_trial(self, poses, delta)

    monkeypatch.setattr(solver, "_band_mul", counted_mul)
    monkeypatch.setattr(solver, "_dogleg_steps", counted_dogleg)
    monkeypatch.setattr(_PackedGraph, "retract", counted_trial)
    report = optimize(g, _COLLAPSE)
    assert report.termination is Termination.TRUST_REGION_COLLAPSE
    iterations = "".join(events).split("F")[1:]
    assert len(iterations) == report.iterations
    # the radius only shrinks within an iteration, so once a step is not
    # the Gauss-Newton point, no later one in that iteration is
    for it in iterations:
        assert re.fullmatch("MG*(MS+)?", it), it
    cauchy = sum("S" in it for it in iterations)
    assert 0 < cauchy < report.iterations
    assert sum(it.count("M") for it in iterations) \
        == report.iterations + cauchy
    # some trials were rejected
    trials = sum(len(it) - it.count("M") for it in iterations)
    assert trials > report.iterations


def _jump_chain():
    """The G1 chain of a 20 s straight drive whose fixes jump 50 m at a
    rate of one in ten, unscreened: a large-residual solve whose
    Gauss-Newton point is rejected at radii that would propose it
    again."""
    ds = generate_synthetic(1, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel((0.2, 0.1), 0.95, 0.3, 0.1, 50.0),
                            OdoErrorModel(0.011), 20.0)
    return build(ds.gnss, ds.odometry, BuilderConfig())


def test_no_iteration_evaluates_the_same_step_twice(monkeypatch):
    g = _jump_chain()
    retract_trial = _PackedGraph.retract
    seen, repeats = [], []

    def recorded(self, poses, delta):
        repeats.append(any(np.array_equal(delta, d) for d in seen))
        seen.append(delta.copy())
        return retract_trial(self, poses, delta)

    def end_iteration(_):
        seen.clear()

    monkeypatch.setattr(_PackedGraph, "retract", recorded)
    # evaluating every trial repeats the rejected Gauss-Newton point
    every_trial_optimize(clone_graph(g), trace=end_iteration)
    assert sum(repeats) > 10
    repeats.clear()
    report = optimize(g, trace=end_iteration)
    assert report.converged
    assert len(repeats) > report.iterations
    assert not any(repeats)


@pytest.mark.parametrize("config", [None, _COLLAPSE],
                         ids=["default", "collapse"])
def test_skipped_trials_leave_every_solve_bit_identical(config):
    """optimize() skips the trials that cannot change its course and
    prices the Cauchy point only when a step needs it; the oracle
    evaluates every trial with an eager Cauchy point.  Reports, trace
    lines and poses agree bit for bit: on random chains, and on the jump
    chain, where the Gauss-Newton point is proposed again."""
    graphs = [random_chain_graph(np.random.default_rng(seed), 9,
                                 n_absolute=3)[0] for seed in range(6)]
    for g in graphs + [_jump_chain()]:
        other = clone_graph(g)
        got, want = [], []
        report = optimize(g, config, trace=got.append)
        assert repr(report) == repr(every_trial_optimize(other, config,
                                                         trace=want.append))
        assert got == want
        assert g.poses.tobytes() == other.poses.tobytes()


@pytest.mark.parametrize("strategy, width", [(Strategy.G1, 5),
                                             (Strategy.G2, 8),
                                             (Strategy.G3, 5)])
def test_built_graphs_pack_into_a_narrow_band(strategy, width):
    """build() numbers along its chains: in id order the half-bandwidth
    is one node's neighbour (G1, G3) or two, with each GNSS node between
    two vehicle nodes (G2), and the banded step is the dense one."""
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 0.6),
                            OdoErrorModel(0.011), 12.0)
    g = build(ds.gnss, ds.odometry, BuilderConfig(strategy=strategy))
    packed = _PackedGraph(g)
    assert packed.u == width
    H, b = packed_evaluate(packed, packed.poses)[1:]
    step = solver._solve_normal(H, b)[0]
    Hd, bd, _, free = dense_system(g)
    assert packed.free.tolist() == free
    want = _dense_solve(Hd, bd)
    assert np.linalg.norm(step - want) <= 1e-9 * np.linalg.norm(want)


def test_a_long_g2_drive_packs_into_the_g2_band():
    """On a drive long enough that a Cuthill-McKee seed of least degree
    can land on a GNSS leaf mid-chain (scipy's order gives u = 14 from
    300 s on), build()'s numbering still packs G2 at u = 8, the free
    nodes taken in id order."""
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 1.625),
                            OdoErrorModel(0.011), 300.0)
    g = build(ds.gnss, ds.odometry, BuilderConfig(strategy=Strategy.G2))
    packed = _PackedGraph(g)
    assert packed.u == 8
    assert np.array_equal(packed.free, np.flatnonzero(~g.fixed))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_fix_edges_are_linear(strategy):
    """Every edge from a fixed node (a fix edge of G1 and G2, an identity
    edge of G3) runs from a pose at heading 0 with a measurement at
    heading 0, so under the additive update its Jj is the identity, in
    the batched kernel and the scalar alike, at the seed poses and at
    shaken ones: its residual is p - p_fix, and its (j, j) block is its
    Omega."""
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 0.6),
                            OdoErrorModel(0.011), 60.0)
    g = build(ds.gnss, ds.odometry, BuilderConfig(strategy=strategy))
    packed = _PackedGraph(g)
    fix = np.flatnonzero(g.fixed[g.from_ids])
    assert fix.size == len(ds.gnss)
    eye = np.broadcast_to(np.eye(3), (fix.size, 3, 3))
    rng = np.random.default_rng(63)
    for shake in (0.0, 0.3):
        g.poses[packed.free] += rng.normal(0.0, shake,
                                           (packed.free.size, 3))
        xi, xj = g.poses[g.from_ids[fix]], g.poses[g.to_ids[fix]]
        assert np.any(np.abs(xj[:, 2]) > 0.1)
        kernel = packed.residual(g.poses)[1][0]
        Jj = batch_edge_jacobians(kernel, packed.pair)[0][fix]
        assert np.array_equal(Jj, eye)
        omega = g.information[fix]
        assert np.array_equal(Jj.transpose(0, 2, 1) @ omega @ Jj, omega)
        for a, b, z in zip(xi, xj, g.measurements[fix]):
            a, b, z = Pose2(*a), Pose2(*b), Pose2(*z)
            assert np.array_equal(edge_jacobians(a, b, z)[1], np.eye(3))
            np.testing.assert_allclose(
                edge_residual(a, b, z)[:2],
                (b.x - (a.x + z.x), b.y - (a.y + z.y)), rtol=0.0,
                atol=1e-12)


def _loop_closed_chain(seed, ends=(2, 11)):
    """A random chain plus one edge between nodes 2 and 11 (from the
    first of `ends` to the second), so the free nodes form a cycle and
    the id order is off the chain."""
    rng = np.random.default_rng(seed)
    g, truth = random_chain_graph(rng, 14, n_absolute=3)
    a, b = ends
    add_edge(g, Edge(a, b, compose(inverse(truth[a]), truth[b]),
                     np.diag([2.0, 2.0, 1.0]), EdgeKind.ODOMETRY))
    return g


def test_a_loop_closure_widens_the_band_and_keeps_the_optimum():
    g = _loop_closed_chain(51)
    packed = _PackedGraph(g)
    assert packed.u > 5
    h = clone_graph(g)
    report = optimize(g)
    assert report.converged
    assert dense_optimize(h)
    assert np.max(np.abs(g.poses - h.poses)) < 1e-8


def _isotropic(base):
    """A copy of `base` whose information matrices are diag(a, a, t), a
    the mean of each one's two position entries, so that it packs in the
    closed form."""
    g = clone_graph(base)
    xy = g.information[:, [0, 1], [0, 1]]
    g.information[:, [0, 1], [0, 1]] = xy.mean(axis=1)[:, None]
    return g


def _slot_cases():
    """Built graphs of every strategy (closed form; G2's ties run from a
    later node to an earlier one, so their (i, j) blocks lie below the
    diagonal), a loop-closed chain and a chain with a fixed node inside
    it (edges into and out of a fixed node), each as drawn (stacked form)
    and made isotropic (closed form), and the loop closed from the later
    node (stacked form, a block below the diagonal)."""
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 0.6),
                            OdoErrorModel(0.011), 12.0)
    graphs = [build(ds.gnss, ds.odometry, BuilderConfig(strategy=strategy))
              for strategy in Strategy]
    inner, _ = random_chain_graph(np.random.default_rng(54), 12,
                                  n_absolute=4)
    inner.fixed[6] = True
    loop = _loop_closed_chain(51)
    return graphs + [loop, inner, _isotropic(loop), _isotropic(inner),
                     _loop_closed_chain(51, (11, 2))]


def test_slot_map_equals_the_entry_by_entry_construction():
    """The slots placed by the (row, column) rule are the ones found
    entry by entry (helpers.broadcast_slots).  The sums vector is [b |
    band rows 0..u | one drop slot].  On the stacked form every kept
    entry of H and b is at its place in [b | band], and every dropped one
    (a diagonal block's lower half, a block or segment on a fixed node,
    an (i, j) block's fourth column) in the drop slot, the vector's last
    entry, which system() discards.  On the closed form each
    pose-dependent slot is the oracle's for the same block, row and
    column (b's (j, j) and (i, i) segments, Hii's last column, Hij's last
    row), and the constant band is the oracle's block diagonals summed
    with Omega on the (i, i) and (j, j) blocks and -Omega on the (i, j)
    blocks."""
    below = {True: False, False: False}
    for g in _slot_cases():
        packed = _PackedGraph(g)
        closed = packed.constant is not None
        want = broadcast_slots(packed)
        if closed:
            p, m = packed.pair.size, len(g.edges)
            want = want.reshape(-1, 3, 4)
            ii, jj, ij = want[:p], want[p:p + m], want[p + m:]
            want = np.concatenate((jj[..., 3].T, ii[..., 3].T, ii[..., 2].T,
                                   ij[:, 2, :2].T), axis=None)
            d = g.information[:, [0, 1, 2], [0, 1, 2]]
            dp = d[packed.pair]
            band = np.zeros((packed.u + 2) * packed.n)
            for block, omega in ((ii, dp), (jj, d), (ij, -dp)):
                at = block[:, [0, 1, 2], [0, 1, 2]]
                np.add.at(band, at[at >= 0], omega[at >= 0])
            assert np.array_equal(packed.constant,
                                  band[packed.n:].reshape(packed.u + 1, -1))
        kept = want >= 0
        assert packed.size == (packed.u + 2) * packed.n + 1
        assert packed.slot.shape == want.shape
        assert np.array_equal(packed.slot[kept], want[kept])
        spare = packed.slot[~kept]
        assert np.all(spare >= (packed.u + 2) * packed.n)
        assert np.all(spare < packed.size)
        assert np.all(spare == packed.size - 1)
        # an edge whose from node comes later in id order than its to
        # node puts its (i, j) block below the diagonal
        rank = np.full(len(g.nodes), -1)
        rank[packed.free] = np.arange(packed.free.size)
        i, j = rank[packed.ends]
        below[closed] |= bool(np.any((i > j) & (j >= 0) & (i >= 0)))
    assert below == {True: True, False: True}


def test_linear_system_is_in_id_order_whatever_the_chain_order():
    """A loop closure numbers the graph off its chain; H and b are still
    the dense system's in id order, and the band's product is H's."""
    g = _loop_closed_chain(52)
    packed = _PackedGraph(g)
    band, b = packed_evaluate(packed, packed.poses)[1:]
    Hd, bd = dense_system(g)[:2]
    assert np.allclose(band_to_dense(band), Hd, atol=1e-10)
    assert np.allclose(b, bd, atol=1e-10)
    x = np.random.default_rng(53).normal(size=b.size)
    assert np.allclose(solver._band_mul(band, x), Hd @ x, atol=1e-9)


@pytest.mark.parametrize("outlier_rate", [0.0, 0.1])
def test_system_pass_equals_the_stacked_form(outlier_rate):
    """Every graph build() makes packs in the closed form, whose chi2 and
    Omega e equal, by np.array_equal, those of helpers.stacked_system
    (every edge through the full-Omega matrix products, three blocks per
    edge), and whose H and b equal its H and b to 1e-14 of their largest
    entry: the closed form sums Omega's own entry where the products
    give a (c^2 + s^2).  On the graphs of every strategy, at the seed and
    at perturbed poses, with and without 10 % of the fixes jumping 50 m."""
    ds = generate_synthetic(
        0, TrajectoryProfile.URBAN_LOOP,
        GnssErrorModel((0.3, 0.2), 0.95, 0.6, outlier_rate,
                       50.0 if outlier_rate else 0.0),
        OdoErrorModel(0.011), 60.0)
    rng = np.random.default_rng(62)
    for strategy in Strategy:
        g = build(ds.gnss, ds.odometry, BuilderConfig(strategy=strategy))
        packed = _PackedGraph(g)
        assert packed.diagonal.shape == (len(g.edges), 3)
        assert packed.constant is not None
        for shake in (0.0, 0.3):
            g.poses[packed.free] += rng.normal(0.0, shake,
                                               (packed.free.size, 3))
            chi, oe, H, b = stacked_system(g, packed)
            got_chi, state = packed.residual(g.poses)
            got_H, got_b = packed.system(state)
            assert got_chi == chi
            assert np.array_equal(state[1], oe)
            assert np.max(np.abs(got_H - H)) <= 1e-14 * np.max(np.abs(H))
            assert np.max(np.abs(got_b - b)) <= 1e-14 * np.max(np.abs(b))


def _one_ulp_anisotropic(g):
    """`g` with one pair edge's Omega_yy moved up by one ulp."""
    e = int(np.flatnonzero(~g.fixed[g.from_ids])[3])
    g.information[e, 1, 1] = np.nextafter(g.information[e, 1, 1], np.inf)
    return g


def _rotated_fixed_edge(info):
    """A free chain with isotropic edges, anchored by edges from a fixed
    node at heading 0.3, whose Jj is not the identity."""
    g = PoseGraph()
    anchor = add_node(g, Pose2(0.5, -0.2, 0.3), fixed=True)
    for k in range(4):
        add_node(g, Pose2(k, 0.5 * k, 0.1 * k))
    for k in range(1, 4):
        add_edge(g, Edge(k, k + 1, Pose2(1.1, 0.4, 0.1),
                         np.diag([2.0, 2.0, 1.0]), EdgeKind.ODOMETRY))
    for k in (1, 3):
        add_edge(g, Edge(anchor, k, Pose2(k, 0.3, -0.1), info,
                         EdgeKind.GNSS_ABSOLUTE))
    return g


@pytest.mark.parametrize("case", ["random_chain", "full", "one_ulp",
                                  "rotated_fixed_edge"])
def test_graphs_off_the_closed_form_keep_the_stacked_bits(case):
    """A graph takes the stacked products, and gives helpers
    stacked_system's chi2, Omega e, H and b bit for bit, when any edge
    has a full Omega, an anisotropic diagonal Omega on an edge from a
    free node (a random chain; a built graph with one Omega_yy moved by
    one ulp), or an anisotropic one on an edge from a fixed node whose
    Jj is not the identity.  The same rotated edge with an isotropic
    Omega takes the closed form."""
    rng = np.random.default_rng(64)
    ds = generate_synthetic(0, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 0.6),
                            OdoErrorModel(0.011), 30.0)
    g = {"random_chain": lambda: random_chain_graph(rng, 10)[0],
         "full": lambda: _with_full_information(
             random_chain_graph(rng, 10)[0], rng, [2]),
         "one_ulp": lambda: _one_ulp_anisotropic(
             build(ds.gnss, ds.odometry, BuilderConfig(Strategy.G2))),
         "rotated_fixed_edge": lambda: _rotated_fixed_edge(
             np.diag([1.0, 2.0, 0.5]))}[case]()
    packed = _PackedGraph(g)
    assert packed.constant is None
    for shake in (0.0, 0.2):
        g.poses[packed.free] += rng.normal(0.0, shake, (packed.free.size, 3))
        chi, oe, H, b = stacked_system(g, packed)
        got_chi, state = packed.residual(g.poses)
        assert got_chi == chi and np.array_equal(state[1], oe)
        got_H, got_b = packed.system(state)
        assert np.array_equal(got_H, H) and np.array_equal(got_b, b)
    if case == "rotated_fixed_edge":
        g = _rotated_fixed_edge(np.diag([2.0, 2.0, 0.5]))
        assert _PackedGraph(g).constant is not None
        Hd, bd = dense_system(g)[:2]
        H, b = _linear_system(g)
        assert np.allclose(H, Hd, atol=1e-12)
        assert np.allclose(b, bd, atol=1e-12)


def test_isotropic_loops_and_inner_fixed_nodes_solve_as_dense():
    """The closed form on graphs build() does not make: a loop-closed
    chain, whose blocks fall on both sides of the diagonal, and a chain
    with a fixed node inside it, whose edges run into and out of a fixed
    node.  Their normal equations equal the dense assembly to 1e-10 and
    their optimum the dense solver's to 1e-8."""
    inner = _edges_into_a_fixed_node(65)
    for g in (_isotropic(_loop_closed_chain(51)), _isotropic(inner)):
        assert _PackedGraph(g).constant is not None
        H, b = _linear_system(g)
        Hd, bd = dense_system(g)[:2]
        assert np.allclose(H, Hd, atol=1e-10)
        assert np.allclose(b, bd, atol=1e-10)
        h = clone_graph(g)
        assert optimize(g).converged
        assert dense_optimize(h)
        assert np.max(np.abs(g.poses - h.poses)) < 1e-8


@pytest.mark.parametrize("strategy", list(Strategy))
def test_the_pipeline_takes_the_closed_form(monkeypatch, strategy):
    """run_experiment solves every strategy, screened and unscreened,
    without the stacked products' Jacobian kernel: a builder change that
    left the closed form would fall back to the slower path silently."""
    from se2fusion import ExperimentConfig, run_experiment

    def refused(*args):
        raise AssertionError("the stacked system pass ran")

    monkeypatch.setattr(solver, "batch_edge_jacobians", refused)
    ds = generate_synthetic(5, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 0.6, 0.1, 50.0),
                            OdoErrorModel(0.011), 60.0)
    for screen in (True, False):
        solve = run_experiment(ds, ExperimentConfig(
            strategy=strategy, outlier_rejection=screen))[3]
        assert solve.iterations > 0


def _edges_into_a_fixed_node(seed):
    """A random chain whose node 6 is fixed, so the edge 5 -> 6 runs from
    a free node into a fixed one, plus an edge from node 9 into the
    anchor."""
    rng = np.random.default_rng(seed)
    g, truth = random_chain_graph(rng, 12, n_absolute=4)
    g.fixed[6] = True
    add_edge(g, Edge(9, 0, compose(inverse(truth[9]), truth[0]),
                     np.diag([2.0, 2.0, 1.0]), EdgeKind.ODOMETRY))
    return g


def _free_nodes_on_fixed_ones_only():
    """Four free nodes, each tied to the fixed anchor alone: no edge has
    a free from node, so there is no (i, i) or (i, j) block at all."""
    g = PoseGraph()
    anchor = add_node(g, IDENTITY, fixed=True)
    for k in range(4):
        add_node(g, Pose2(k, 0.5 * k, 0.1 * k))
        add_edge(g, Edge(anchor, k + 1, Pose2(k + 0.3, 0.5 * k, 0.0),
                         np.diag([1.0, 2.0, 0.5]), EdgeKind.GNSS_ABSOLUTE))
    return g


@pytest.mark.parametrize("case", ["every_full", "one_full", "into_fixed",
                                  "no_pair"])
def test_full_omega_and_fixed_node_edges_solve_as_dense(case):
    """The matrix-product path, taken by a graph where every Omega has
    off-diagonal entries and by one where a single such Omega sits among
    diagonal ones, the edges from a free node into a fixed one, and a
    graph with no free-free pair give the stacked form's bits, the dense
    normal equations to 1e-10 and the dense solver's optimum to 1e-8.
    The graph with no pair takes the closed form (its edges run from a
    fixed node at heading 0 with measurements at heading 0, so Jj is the
    identity), and keeps the bits, since each entry has one term."""
    rng = np.random.default_rng(63)
    if case == "into_fixed":
        g = _edges_into_a_fixed_node(63)
        assert np.any(~g.fixed[g.from_ids] & g.fixed[g.to_ids])
    elif case == "no_pair":
        g = _free_nodes_on_fixed_ones_only()
    else:
        base, _ = random_chain_graph(rng, 10, n_absolute=4)
        edges = range(len(base.edges)) if case == "every_full" else [3]
        g = _with_full_information(base, rng, edges)
    packed = _PackedGraph(g)
    assert (packed.diagonal is None) == case.endswith("full")
    assert (packed.pair.size == 0) == (case == "no_pair")
    assert (packed.constant is None) == (case != "no_pair")
    chi, oe, H, b = stacked_system(g, packed)
    got_chi, state = packed.residual(g.poses)
    assert got_chi == chi and np.array_equal(state[1], oe)
    got_H, got_b = packed.system(state)
    assert np.array_equal(got_H, H) and np.array_equal(got_b, b)
    H, b = _linear_system(g)
    Hd, bd, chi_d, _ = dense_system(g)
    assert np.allclose(H, Hd, atol=1e-10)
    assert np.allclose(b, bd, atol=1e-10)
    assert chi == pytest.approx(chi_d, rel=1e-12)
    h = clone_graph(g)
    assert optimize(g).converged
    assert dense_optimize(h)
    assert np.max(np.abs(g.poses - h.poses)) < 1e-8


# one G2 solve of a 1800 s urban loop: 5.4k edges, so the solver's vector
# reductions are long enough for OpenBLAS to split them across threads,
# and 16 iterations, so a thread-dependent rounding has steps to grow in
_THREADED_SOLVE = """
from se2fusion import ExperimentConfig, GnssErrorModel, OdoErrorModel, \\
    TrajectoryProfile, generate_synthetic, run_experiment
ds = generate_synthetic(3, TrajectoryProfile.URBAN_LOOP,
                        GnssErrorModel((0.3, 0.2), 0.95, 0.6),
                        OdoErrorModel(0.011), 1800.0)
lines = []
trajectory = run_experiment(ds, ExperimentConfig(outlier_rejection=False),
                            lines.append)[0]
print("".join(lines))
print([(t, p.x, p.y, p.theta) for t, p in trajectory])
"""


def test_solve_is_independent_of_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(se2fusion.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _THREADED_SOLVE],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].count(b"\n") > 10
    assert outputs[0] == outputs[1]
