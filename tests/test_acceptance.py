"""Acceptance gate: ten end-to-end criteria with runtime budgets.

Each test prints one pass/fail line including its elapsed time; running
over budget fails the criterion exactly like a wrong number would.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from helpers import clone_graph, dense_optimize, fd_edge_jacobians, \
    literal_accuracy, literal_max_offset, literal_precision, \
    literal_precision_printed, random_chain_graph, random_pose, set_pose
from se2fusion.builders import BuilderConfig, Strategy, build, \
    full_rate_trajectory, vehicle_trajectory
from se2fusion.dataset import ExperimentConfig, run_experiment
from se2fusion.cli import main
from se2fusion.metrics import MetricsReport, accuracy, improvements, \
    max_offset, precision
from se2fusion.se2 import compose, edge_jacobians, exp_map, inverse, \
    log_map
from se2fusion.solver import SolverConfig, optimize
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic, injected_outlier_indices

DEEP = SolverConfig(max_iterations=200, abs_error_tol=1e-18,
                    rel_error_tol=1e-14, step_tol=1e-12)


@contextlib.contextmanager
def _criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {num:02d} {label}: FAIL ({elapsed:.2f} s)")
        raise
    elapsed = time.perf_counter() - start
    over = elapsed >= budget_s
    status = "FAIL (over budget)" if over else "PASS"
    print(f"criterion {num:02d} {label}: {status} "
          f"({elapsed:.2f} s, budget {budget_s:g} s)")
    assert not over


def test_criterion_01_manifold_correctness():
    with _criterion(1, "manifold correctness", 1.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(5000):
            delta = np.array([rng.uniform(-20.0, 20.0),
                              rng.uniform(-20.0, 20.0),
                              rng.uniform(-math.pi, math.pi)])
            back = log_map(exp_map(delta))
            worst = max(worst, float(np.max(np.abs(back - delta))))
        for _ in range(5000):
            p = random_pose(rng)
            q = exp_map(log_map(p))
            worst = max(worst, float(np.max(np.abs(q.as_array()
                                                   - p.as_array()))))
        assert worst < 1e-10

        for _ in range(300):
            a, b, c = random_pose(rng), random_pose(rng), random_pose(rng)
            ident = compose(a, inverse(a)).as_array()
            assert np.max(np.abs(ident)) < 1e-10
            left = compose(compose(a, b), c).as_array()
            right = compose(a, compose(b, c)).as_array()
            assert np.max(np.abs(left - right)) < 1e-10


def test_criterion_02_jacobian_correctness():
    with _criterion(2, "jacobian correctness", 5.0):
        rng = np.random.default_rng(102)
        worst = 0.0
        for _ in range(1000):
            xi = random_pose(rng)
            xj = random_pose(rng)
            z = random_pose(rng, span=3.0)
            Ji, Jj = edge_jacobians(xi, xj, z)
            Fi, Fj = fd_edge_jacobians(xi, xj, z)
            scale = max(1.0, float(np.max(np.abs(Ji))),
                        float(np.max(np.abs(Jj))))
            worst = max(worst,
                        float(np.max(np.abs(Ji - Fi))) / scale,
                        float(np.max(np.abs(Jj - Fj))) / scale)
        assert worst < 1e-5


def test_criterion_03_solver_oracle_equivalence():
    with _criterion(3, "solver oracle equivalence", 10.0):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(4, 13))
            g, _ = random_chain_graph(rng, n, n_absolute=3)
            h = clone_graph(g)
            report = optimize(g)
            assert report.converged
            assert dense_optimize(h)
            for a, b in zip(g.nodes, h.nodes):
                assert np.allclose(a.pose.as_array(), b.pose.as_array(),
                                   atol=1e-8)


def test_criterion_04_noise_free_recovery():
    with _criterion(4, "noise-free recovery", 10.0):
        rng = np.random.default_rng(104)
        for _ in range(5):
            g, truth = random_chain_graph(rng, 10, n_absolute=4,
                                          noise=0.0, perturb=0.0)
            for node in g.nodes:
                if node.fixed:
                    continue
                bump = np.array([rng.uniform(-10.0, 10.0),
                                 rng.uniform(-10.0, 10.0),
                                 rng.uniform(-0.5, 0.5)])
                set_pose(g, node.id, compose(node.pose, exp_map(bump)))
            report = optimize(g, DEEP)
            assert report.converged
            for node, want in zip(g.nodes, truth):
                err = np.max(np.abs(node.pose.as_array()
                                    - want.as_array()))
                assert err < 1e-8


def test_criterion_05_strategy_equivalence():
    with _criterion(5, "strategy equivalence", 30.0):
        # Noisy problems stop on the relative-error test, never the
        # absolute one, so the relative tolerance is what sets how close
        # each run gets to its optimum.  1e-12 converges formally on all
        # thirty solves and leaves the strategies agreeing fifty times
        # tighter than the 1e-4 gate below.
        cfg = SolverConfig(max_iterations=200, abs_error_tol=1e-18,
                           rel_error_tol=1e-12, step_tol=1e-12)
        gerr = GnssErrorModel(ar1_rho=0.9, ar1_sigma=0.8)
        oerr = OdoErrorModel(drift_fraction=0.011)
        for seed in range(10):
            ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                                    gerr, oerr, duration=50.0)
            trajectories = []
            for strat in (Strategy.G1, Strategy.G2, Strategy.G3):
                graph = build(ds.gnss, ds.odometry,
                              BuilderConfig(strategy=strat))
                report = optimize(graph, cfg)
                assert report.converged
                trajectories.append(vehicle_trajectory(graph))
            for other in trajectories[1:]:
                for a, b in zip(trajectories[0], other):
                    assert abs(a.x - b.x) < 1e-4
                    assert abs(a.y - b.y) < 1e-4
                    assert abs(a.theta - b.theta) < 1e-4


def test_criterion_06_bias_persists_precision_improves():
    with _criterion(6, "bias persistence + precision gain", 120.0):
        b = 0.7 / math.sqrt(2.0)
        gerr = GnssErrorModel(bias=(b, b), ar1_rho=0.95, ar1_sigma=1.625)
        oerr = OdoErrorModel(drift_fraction=0.011)
        cfg = ExperimentConfig(strategy=Strategy.G1,
                               outlier_rejection=False)
        accs = []
        prec_gains = []
        for seed in range(10):
            ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                                    gerr, oerr, duration=3600.0,
                                    speed=5.0)
            _, fused, raw, solve = run_experiment(ds, cfg)
            assert solve.converged
            assert fused.precision < raw.precision
            accs.append(fused.accuracy)
            prec_gains.append(100.0 * (raw.precision - fused.precision)
                              / raw.precision)
        mean_acc = float(np.mean(accs))
        assert 0.7 * 0.85 < mean_acc < 0.7 * 1.15
        assert float(np.mean(prec_gains)) >= 10.0


def test_criterion_07_outlier_rejection_efficacy():
    with _criterion(7, "outlier-rejection efficacy", 120.0):
        gerr = GnssErrorModel(bias=(0.2, 0.1), ar1_rho=0.95,
                              ar1_sigma=0.3, outlier_rate=0.10,
                              outlier_magnitude=50.0)
        oerr = OdoErrorModel(drift_fraction=0.011)
        for seed in range(10):
            injected = set(injected_outlier_indices(
                seed, TrajectoryProfile.STRAIGHT, gerr, oerr,
                duration=600.0))
            assert injected

            ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                                    gerr, oerr, duration=600.0)
            cfg_on = ExperimentConfig(strategy=Strategy.G1,
                                      outlier_rejection=True)
            _, fused_on, _, solve_on = run_experiment(ds, cfg_on)
            assert solve_on.converged
            flagged = {k for k, r in enumerate(ds.gnss) if not r.accepted}
            assert injected <= flagged

            ds_off = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                                        gerr, oerr, duration=600.0)
            cfg_off = ExperimentConfig(strategy=Strategy.G1,
                                       outlier_rejection=False)
            _, fused_off, _, _ = run_experiment(ds_off, cfg_off)
            assert fused_on.max_offset < fused_off.max_offset
            assert fused_on.precision < fused_off.precision


def test_criterion_08_metrics_arithmetic():
    with _criterion(8, "metrics arithmetic", 1.0):
        def report(mx, acc, prec):
            return MetricsReport(max_offset=mx, accuracy=acc,
                                 precision=prec, mean_offset=(0.0, 0.0),
                                 n=10)

        imp = improvements(report(7.170, 1.0, 1.336),
                           report(23.531, 2.0, 1.625))
        assert imp[0] == pytest.approx(69.528, abs=0.01)
        assert imp[2] == pytest.approx(17.79, abs=0.01)

        rng = np.random.default_rng(108)
        for _ in range(50):
            pairs = []
            for _ in range(int(rng.integers(3, 60))):
                tru = tuple(rng.uniform(-50.0, 50.0, size=2))
                est = (tru[0] + rng.normal(0.0, 3.0),
                       tru[1] + rng.normal(0.0, 3.0))
                pairs.append((est, tru))
            poses = [[float(k), *e, *t] for k, (e, t) in enumerate(pairs)]
            assert max_offset(poses) == pytest.approx(
                literal_max_offset(pairs), rel=1e-12)
            acc, mu = accuracy(poses)
            want, want_mu = literal_accuracy(pairs)
            assert acc == pytest.approx(want, abs=1e-12)
            assert mu == pytest.approx(want_mu, abs=1e-12)
            assert precision(poses) == pytest.approx(
                literal_precision(pairs), abs=1e-12)
            assert precision(poses, literal=True) == pytest.approx(
                literal_precision_printed(pairs), abs=1e-12)


def test_criterion_09_zero_velocity_lock():
    with _criterion(9, "zero-velocity lock", 10.0):
        gerr = GnssErrorModel(bias=(0.3, 0.2), ar1_rho=0.9999,
                              ar1_sigma=1.625)
        cfg = ExperimentConfig(strategy=Strategy.G1,
                               outlier_rejection=True)
        for seed in range(3):
            ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                                    gerr, None, duration=660.0,
                                    standstill=(300.0, 30.0))
            out = run_experiment(ds, cfg, keep_graph=True)
            graph = out[4]
            assert out[3].converged
            accepted = [r for r in ds.gnss if r.accepted]
            times, poses = full_rate_trajectory(graph, accepted,
                                                ds.odometry)
            times = np.asarray(times)
            a = int(np.argmin(np.abs(times - 300.0)))
            b = int(np.argmin(np.abs(times - 330.0)))
            drift = math.hypot(poses[b].x - poses[a].x,
                               poses[b].y - poses[a].y)
            assert drift < 1e-3


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    with _criterion(10, "end-to-end determinism", 60.0):
        args = ["batch", "--synth", "straight", "--duration", "60",
                "--ar1-sigma", "0.6", "--ar1-rho", "0.8",
                "--bias", "0.2,0.1", "--drift", "0.011", "--seed", "5"]
        assert main(args + ["--out", str(tmp_path / "first")]) == 0
        assert main(args + ["--out", str(tmp_path / "second")]) == 0
        capsys.readouterr()
        for name in ("batch_record.txt", "batch_table.txt"):
            with open(tmp_path / "first" / name, "rb") as fh:
                first = fh.read()
            with open(tmp_path / "second" / name, "rb") as fh:
                second = fh.read()
            assert first == second
            assert len(first) > 100
