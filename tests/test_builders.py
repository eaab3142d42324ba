"""Graph construction in the three wiring strategies."""

import dataclasses
import math

import numpy as np
import pytest

from helpers import dense_system, integrate_fine, scan_rigid_fit, \
    total_error, window_pose
from se2fusion.builders import BuilderConfig, Strategy, _vehicle_poses, \
    build, fill_g2, full_rate_trajectory, reduce_g2, vehicle_trajectory
from se2fusion.dataset import Dataset
from se2fusion.errors import InsufficientCoverageError, \
    TooFewReadingsError
from se2fusion.gnss import GnssReading, gnss_information
from se2fusion.graph import EdgeKind, PoseGraph, load, save
from se2fusion.odometry import OdometryStream
from se2fusion.se2 import Pose2, compose, edge_residual, inverse, \
    wrap_angle, wrap_angles
from se2fusion.solver import SolverConfig, optimize
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic

DEEP = SolverConfig(max_iterations=200, abs_error_tol=1e-18,
                    rel_error_tol=1e-14, step_tol=1e-12)


def _drive(n_fixes, speed=10.0, noise=0.0, seed=0):
    t = np.arange(0.0, float(n_fixes), 0.04)
    stream = OdometryStream(t, np.zeros_like(t), np.full_like(t, speed))
    rng = np.random.default_rng(seed)
    readings = []
    for k in range(n_fixes):
        pos = np.array([speed * k, 0.0])
        if noise:
            pos = pos + rng.normal(0.0, noise, size=2)
        readings.append(GnssReading(float(k), pos, 2.0, 2.0))
    return readings, stream


def _roles(graph):
    """Each node's role read off its edges: "vehicle" on the odometry
    chain, "gnss" at the start of an identity edge, "origin" otherwise."""
    roles = ["origin"] * len(graph.poses)
    for e in graph.edges:
        if e.kind is EdgeKind.ODOMETRY:
            roles[e.from_id] = roles[e.to_id] = "vehicle"
        elif e.kind is EdgeKind.VIRTUAL_IDENTITY:
            roles[e.from_id] = "gnss"
    return roles


def _kinds(graph):
    return _roles(graph), [e.kind for e in graph.edges]


def _wiring(graph):
    return [(e.from_id, e.to_id, e.kind) for e in graph.edges]


ODO, ABS, TIE = (EdgeKind.ODOMETRY, EdgeKind.GNSS_ABSOLUTE,
                 EdgeKind.VIRTUAL_IDENTITY)


def test_g1_structure():
    """The fixed origin 0 touches no odometry edge, the vehicle nodes
    1..3 are the chain and the only rows _vehicle_poses selects."""
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    assert _roles(graph) == ["origin"] + ["vehicle"] * 3
    assert _wiring(graph) == [(1, 2, ODO), (2, 3, ODO),
                              (0, 1, ABS), (0, 2, ABS), (0, 3, ABS)]
    assert graph.fixed.tolist() == [True, False, False, False]
    assert np.array_equal(_vehicle_poses(graph), graph.poses[1:4])


def test_g2_structure():
    """Each GNSS node comes right after its vehicle node (vehicle i is
    node 2i + 1, GNSS i node 2i + 2): free, pinned to the origin and
    tied to the chain."""
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G2))
    assert _roles(graph) == ["origin"] + ["vehicle", "gnss"] * 3
    assert _wiring(graph) == [(1, 3, ODO), (3, 5, ODO),
                              (0, 2, ABS), (0, 4, ABS), (0, 6, ABS),
                              (2, 1, TIE), (4, 3, TIE), (6, 5, TIE)]
    assert graph.fixed.tolist() == [True] + [False] * 6
    assert np.array_equal(_vehicle_poses(graph), graph.poses[1::2])


def test_g3_structure():
    """GNSS nodes 4..6 are the rest: fixed and tied to the chain; the
    origin touches no edge."""
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G3))
    assert _roles(graph) == ["origin"] + ["vehicle"] * 3 + ["gnss"] * 3
    assert _wiring(graph) == [(1, 2, ODO), (2, 3, ODO),
                              (4, 1, TIE), (5, 2, TIE), (6, 3, TIE)]
    assert graph.fixed.tolist() == [True] + [False] * 3 + [True] * 3
    assert np.array_equal(_vehicle_poses(graph), graph.poses[1:4])


def _seeds(readings, stream):
    # the dead-reckoned vehicle poses of a freshly built graph
    return vehicle_trajectory(build(readings, stream))


def test_straight_drive_seeds():
    readings, stream = _drive(3)
    seeds = _seeds(readings, stream)
    assert [s.x for s in seeds] == pytest.approx([0.0, 10.0, 20.0],
                                                 abs=1e-9)
    assert [s.y for s in seeds] == pytest.approx([0.0, 0.0, 0.0], abs=1e-9)


def test_standstill_seeds_all_equal():
    readings, stream = _drive(4, speed=0.0)
    # fixes spread 1 m apart while the vehicle stands still: the seed is
    # the standing chain moved as one rigid body, so the nodes stay one
    # point and do not follow the fixes apart
    for k, r in enumerate(readings):
        r.position = np.array([float(k), 0.0])
    seeds = _seeds(readings, stream)
    first = seeds[0].as_array()
    for s in seeds[1:]:
        assert np.allclose(s.as_array(), first, atol=1e-12)


def test_curved_seeds_match_fine_integrator():
    t = np.arange(0.0, 60.04, 0.04)
    w = 0.05 * np.sin(0.1 * t)
    v = 10.0 + 0.5 * np.sin(0.07 * t)
    stream = OdometryStream(t, w, v)
    readings = [GnssReading(float(k), (10.0 * k, 0.0), 2.0, 2.0)
                for k in range(61)]
    seeds = _seeds(readings, stream)
    for k in (10, 30, 60):
        # the chain's shape: the fit moves it as one rigid body
        shape = compose(inverse(seeds[0]), seeds[k])
        dx, dy, _, _ = integrate_fine(t, w, v, 0.0, float(k))
        assert shape.x == pytest.approx(dx, abs=1e-3)
        assert shape.y == pytest.approx(dy, abs=1e-3)


def _curved_drive():
    """A drive that turns through several radians, with every fix time
    between two odometry samples."""
    t = np.arange(0.0, 20.0, 0.04)
    stream = OdometryStream(t, 0.4 + 0.3 * np.sin(0.3 * t),
                            8.0 + np.cos(0.2 * t))
    readings = [GnssReading(k + 0.013, (8.0 * k, 0.5 * k * k), 2.0, 2.0)
                for k in range(19)]
    return readings, stream


def test_odometry_residuals_start_at_zero():
    """The dead-reckoned seeds satisfy every odometry edge to rounding,
    on a straight drive and on a curved one."""
    for readings, stream in (_drive(8, noise=1.0, seed=4), _curved_drive()):
        for strategy in Strategy:
            graph = build(readings, stream, BuilderConfig(strategy=strategy))
            odometry = [e for e in graph.edges
                        if e.kind is EdgeKind.ODOMETRY]
            assert len(odometry) >= len(readings) - 1
            for e in odometry:
                r = edge_residual(graph.nodes[e.from_id].pose,
                                  graph.nodes[e.to_id].pose, e.measurement)
                assert np.abs(r).max() <= 1e-9


def _weighted_drive(seed, duration=120.0):
    """An urban drive whose fixes each carry their own accuracy, so the
    seed fit weighs them unequally."""
    ds = generate_synthetic(seed, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel((0.3, 0.2), 0.95, 1.0),
                            OdoErrorModel(0.011), duration)
    rng = np.random.default_rng(seed)
    for r in ds.gnss:
        r.epx, r.epy = rng.uniform(0.5, 6.0, size=2)
    return ds.gnss, ds.odometry


def _fit_gap(graph):
    """Largest gap, in metres or radians, between a G1 graph's seeds at
    its fix nodes and the oracle's weighted fit of the chain's shape (each
    vehicle seed seen from the first) onto the fixes."""
    fix_edges = [e for e in graph.edges if e.kind is ABS]
    first = graph.nodes[1].pose
    shape = [compose(inverse(first), graph.nodes[e.to_id].pose)
             for e in fix_edges]
    theta, tx, ty = scan_rigid_fit(
        [(p.x, p.y) for p in shape],
        [(e.measurement.x, e.measurement.y) for e in fix_edges],
        [(e.information[0, 0] + e.information[1, 1]) / 2.0
         for e in fix_edges])
    gap = 0.0
    for e, p in zip(fix_edges, shape):
        fit = compose(Pose2(tx, ty, theta), p)
        seed = graph.nodes[e.to_id].pose
        gap = max(gap, abs(fit.x - seed.x), abs(fit.y - seed.y),
                  abs(wrap_angle(fit.theta - seed.theta)))
    return gap


def test_seeds_are_the_weighted_rigid_fit_of_the_chain_to_the_fixes():
    """The fix nodes start where the oracle's weighted rigid fit of the
    dead-reckoned chain puts them, on a drive that turns, with noisy and
    unequally accurate fixes, and on a two-fix drive."""
    for readings, stream in (_weighted_drive(3), _drive(2, noise=1.0)):
        graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
        assert np.all(np.isfinite(graph.poses))
        assert _fit_gap(graph) <= 1e-9


def test_a_fix_of_negligible_weight_barely_moves_the_seeds():
    """A 58 m jump on one fix with a millionth of the others' weight moves
    no seed by 10 micrometres; at their weight it moves the seeds by
    decimetres, so the fit does weigh its fixes."""
    readings, stream = _drive(40, noise=1.0, seed=7)
    for scale, lo, hi in ((1e3, 0.0, 1e-5), (1.0, 0.1, math.inf)):
        # a fix's weight goes as its accuracy to the power -2
        light = list(readings)
        light[20] = dataclasses.replace(light[20], epx=2.0 * scale,
                                        epy=2.0 * scale)
        moved = list(light)
        moved[20] = dataclasses.replace(
            light[20], position=light[20].position + (50.0, -30.0))
        shift = np.hypot(*(_vehicle_poses(build(moved, stream))[:, :2]
                           - _vehicle_poses(build(light, stream))[:, :2]).T)
        assert lo <= shift.max() <= hi


def test_a_drive_at_a_standstill_seeds_the_fixes_centroid_unturned():
    """A zero odometry chord fixes no rotation: the seeds are finite, all
    at heading 0 and on the fixes' weighted centroid."""
    readings, stream = _drive(5, speed=0.0, noise=1.0, seed=2)
    for k, r in enumerate(readings):
        r.epx = r.epy = 1.0 + k
    poses = _vehicle_poses(build(readings, stream))
    weights = [r.epx ** -2 for r in readings]
    centroid = np.average([r.position for r in readings], axis=0,
                          weights=weights)
    assert np.all(np.isfinite(poses))
    assert np.array_equal(poses[:, 2], np.zeros(len(readings)))
    assert np.allclose(poses[:, :2], centroid, rtol=0.0, atol=1e-12)


def test_g2_gnss_nodes_start_on_their_vehicle_nodes():
    """Every GNSS node of G2 starts on its vehicle node's row, so its
    identity edge starts at zero residual (to rounding), and the vehicle
    seeds are G1's."""
    readings, stream = _weighted_drive(4)
    g2 = build(readings, stream, BuilderConfig(strategy=Strategy.G2))
    ties = [e for e in g2.edges if e.kind is TIE]
    assert len(ties) == len(readings)
    for e in ties:
        assert np.array_equal(g2.poses[e.from_id], g2.poses[e.to_id])
        r = edge_residual(g2.nodes[e.from_id].pose,
                          g2.nodes[e.to_id].pose, e.measurement)
        assert np.abs(r).max() <= 1e-12
    g1 = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    assert np.array_equal(_vehicle_poses(g2), _vehicle_poses(g1))


@pytest.mark.parametrize("seed", range(6))
def test_a_standstill_start_seeds_the_truth_heading(seed):
    """A drive that waits 20 s before it moves gives no bearing between
    its first fixes; the seeded chain still heads along the route, within
    1 degree."""
    ds = generate_synthetic(seed, TrajectoryProfile.STRAIGHT,
                            GnssErrorModel((0.3, 0.2), 0.95, 1.0),
                            OdoErrorModel(0.011), 300.0, standstill=(0, 20))
    graph = build(ds.gnss, ds.odometry, BuilderConfig(strategy=Strategy.G1))
    (x0, y0), (x1, y1) = ds.truth.positions[0], ds.truth.positions[-1]
    route = math.atan2(y1 - y0, x1 - x0)
    heading = _vehicle_poses(graph)[:, 2]
    assert np.abs(np.degrees(wrap_angles(heading - route))).max() <= 1.0


def test_strategies_share_the_optimum():
    readings, stream = _drive(10, noise=0.8, seed=11)
    results = {}
    for strat in (Strategy.G1, Strategy.G2, Strategy.G3):
        graph = build(readings, stream, BuilderConfig(strategy=strat))
        report = optimize(graph, DEEP)
        results[strat] = (total_error(graph), vehicle_trajectory(graph))
        assert report.final_error <= report.initial_error
    err_ref, traj_ref = results[Strategy.G1]
    for strat in (Strategy.G2, Strategy.G3):
        err, traj = results[strat]
        assert err == pytest.approx(err_ref, rel=1e-6)
        for a, b in zip(traj, traj_ref):
            assert a.x == pytest.approx(b.x, abs=1e-4)
            assert a.y == pytest.approx(b.y, abs=1e-4)
            assert a.theta == pytest.approx(b.theta, abs=1e-4)


def _g2_drives():
    """Drives of 120 s, seed 0, rho 0.95, bias (0.3, 0.2) m, drift 0.011,
    on the three profiles at sigma 0.3 and 1.625 m."""
    for profile in TrajectoryProfile:
        for sigma in (0.3, 1.625):
            yield generate_synthetic(
                0, profile, GnssErrorModel((0.3, 0.2), 0.95, sigma),
                OdoErrorModel(0.011), duration=120.0)


def _pose_gap(a, b):
    """Largest position or heading difference between two pose arrays."""
    return max(np.abs(a[:, :2] - b[:, :2]).max(),
               np.abs(wrap_angles(a[:, 2] - b[:, 2])).max())


def test_the_g2_reduction_solves_to_the_direct_g2_solve():
    # criterion 05's solver settings
    tight = SolverConfig(max_iterations=200, abs_error_tol=1e-18,
                         rel_error_tol=1e-12, step_tol=1e-12)
    default = BuilderConfig().identity_edge_strength
    for ds in _g2_drives():
        for s in (1.0, 1e4, default):
            cfg = BuilderConfig(Strategy.G2, s)
            graph = build(ds.gnss, ds.odometry, cfg)
            reduced = reduce_g2(graph)
            got = optimize(reduced, tight)
            fill_g2(graph, reduced)
            direct = build(ds.gnss, ds.odometry, cfg)
            want = optimize(direct, tight)
            assert total_error(graph) == pytest.approx(got.final_error,
                                                       rel=1e-12)
            if s == default:
                assert (got.iterations, got.termination) == \
                    (want.iterations, want.termination)
            if s >= 1e4:
                assert _pose_gap(graph.poses, direct.poses) < 1e-8
            else:
                # G2 at s = 1 has a slow tail: the direct solve meets
                # rel_tol up to 2.9e-6 m short of the optimum, at a chi2
                # no lower than the reduced solve's
                assert got.final_error <= want.final_error * (1 + 1e-13)
                assert _pose_gap(graph.poses, direct.poses) < 1e-5


@pytest.mark.parametrize("s", [1.0, 1e4, 1e6])
def test_the_g2_fill_puts_each_gnss_node_at_its_conditional_optimum(s):
    for ds in _g2_drives():
        graph = build(ds.gnss, ds.odometry, BuilderConfig(Strategy.G2, s))
        seed = graph.poses.copy()
        reduced = reduce_g2(graph)
        # the origin and the vehicle rows
        kept = np.r_[0, 1:len(seed):2]
        assert np.array_equal(reduced.poses, seed[kept])
        fill_g2(graph, reduced)
        assert np.array_equal(graph.poses[kept], reduced.poses)
        # at the seed, the reduced chi2 is G2's with every GNSS node at
        # its optimum given the vehicle nodes: G2's own gradient in the
        # GNSS coordinates vanishes, a Newton step there moving them by
        # no more than rounding
        H, b, chi, _ = dense_system(graph)
        # the GNSS nodes are every second free node, from the second on
        gnss = (b / np.diag(H)).reshape(-1, 3)[1::2]
        assert chi == pytest.approx(total_error(reduced), rel=1e-12)
        assert np.abs(gnss).max() < 1e-11
        assert chi <= total_error(build(ds.gnss, ds.odometry,
                                        BuilderConfig(Strategy.G2, s)))


def test_g3_gnss_nodes_never_move():
    readings, stream = _drive(6, noise=1.5, seed=2)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G3))
    gnss = [k for k, role in enumerate(_roles(graph)) if role == "gnss"]
    assert gnss == list(range(7, 13))
    before, vehicle = graph.poses[gnss], _vehicle_poses(graph)
    optimize(graph, DEEP)
    assert np.array_equal(graph.poses[gnss], before)
    # the solve moved the chain, not the fixed GNSS nodes
    assert not np.array_equal(_vehicle_poses(graph), vehicle)


def test_rejected_readings_leave_no_trace():
    readings, stream = _drive(5)
    readings[1].accepted = False
    readings[3].accepted = False
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    nodes, edges = _kinds(graph)
    assert nodes == ["origin"] + ["vehicle"] * 3
    assert len(_vehicle_poses(graph)) == 3
    assert edges.count(EdgeKind.GNSS_ABSOLUTE) == 3
    assert edges.count(EdgeKind.ODOMETRY) == 2


def test_too_few_accepted_readings():
    readings, stream = _drive(3)
    readings[1].accepted = False
    readings[2].accepted = False
    with pytest.raises(TooFewReadingsError):
        build(readings, stream)


def test_identity_strength_must_be_positive():
    with pytest.raises(ValueError):
        BuilderConfig(identity_edge_strength=0.0)
    with pytest.raises(ValueError):
        BuilderConfig(identity_edge_strength=-5.0)
    with pytest.raises(ValueError):
        BuilderConfig(identity_edge_strength=float("inf"))


def test_g2_tie_information():
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G2))
    ties = [e for e in graph.edges if e.kind is EdgeKind.VIRTUAL_IDENTITY]
    for e in ties:
        assert np.allclose(e.information, np.diag([1e6, 1e6, 1e6]))
    graph = build(readings, stream,
                  BuilderConfig(strategy=Strategy.G2,
                                identity_edge_strength=1e3))
    ties = [e for e in graph.edges if e.kind is EdgeKind.VIRTUAL_IDENTITY]
    assert ties[0].information[0, 0] == 1e3


def test_g1_absolute_edge_payload():
    readings, stream = _drive(3, noise=0.5, seed=9)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    absolute = [e for e in graph.edges if e.kind is EdgeKind.GNSS_ABSOLUTE]
    for e, r in zip(absolute, readings):
        assert e.from_id == 0
        assert e.measurement.x == r.position[0]
        assert e.measurement.y == r.position[1]
        assert e.measurement.theta == 0.0
        assert np.array_equal(e.information, gnss_information([r])[0])


def test_g3_identity_edges_carry_fix_information():
    readings, stream = _drive(3)
    readings[1].epx = 6.0
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G3))
    ties = [e for e in graph.edges if e.kind is EdgeKind.VIRTUAL_IDENTITY]
    assert ties[1].information[0, 0] == pytest.approx((6.0 / 2.0) ** -2)
    assert ties[1].information[2, 2] == 0.0
    for e in ties:
        assert np.array_equal(e.measurement.as_array(), np.zeros(3))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_a_reloaded_dump_is_the_graph_it_came_from(tmp_path, strategy):
    """load(save(g)) equals g in every column the graph stores and saves
    to the same bytes, and the reloaded graph gives the same vehicle
    track and the same re-chain."""
    ds = generate_synthetic(4, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel(ar1_rho=0.9, ar1_sigma=1.0),
                            OdoErrorModel(0.011), duration=30.0)
    graph = build(ds.gnss, ds.odometry, BuilderConfig(strategy=strategy))
    optimize(graph)
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    save(graph, first)
    loaded = load(first)
    for table in (graph._nodes, graph._edges):
        again = loaded._nodes if table is graph._nodes else loaded._edges
        assert again.size == table.size
        for name in table._buf:
            a, b = table.rows(name), again.rows(name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    save(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    track = vehicle_trajectory(loaded)
    assert track == vehicle_trajectory(graph)
    assert len(track) == 30
    assert full_rate_trajectory(loaded, ds.gnss, ds.odometry) == \
        full_rate_trajectory(graph, ds.gnss, ds.odometry)


def test_full_rate_trajectory_interpolates():
    readings, stream = _drive(5)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    optimize(graph, DEEP)
    out_t, out_p = full_rate_trajectory(graph, readings, stream)
    assert all(b > a for a, b in zip(out_t, out_t[1:]))
    assert out_t[0] == 0.0 and out_t[-1] == 4.0
    nodes = vehicle_trajectory(graph)
    for k, t in enumerate(out_t):
        if t == int(t):
            assert out_p[k] == nodes[int(t)]
        else:
            assert out_p[k].x == pytest.approx(10.0 * t, abs=1e-6)
            assert out_p[k].y == pytest.approx(0.0, abs=1e-6)


def _off_grid_drive():
    """A curved drive whose fixes fall between odometry samples."""
    t = np.arange(0.0, 12.0, 0.04)
    stream = OdometryStream(t, 0.2 * np.sin(0.5 * t),
                            6.0 + np.cos(0.3 * t))
    fix_t = 0.013 + 0.97 * np.arange(12)
    readings = [GnssReading(float(tk), [6.0 * tk, 0.3 * tk * tk], 2.0, 2.0)
                for tk in fix_t]
    return readings, stream


def test_full_rate_trajectory_equals_per_sample_preintegration():
    # curved drive with fixes between odometry samples, two of them
    # rejected before the graph is built
    readings, stream = _off_grid_drive()
    t = stream.timestamps
    for k in (3, 7):
        readings[k].position = readings[k].position + 40.0
        readings[k].accepted = False
    kept = [r for r in readings if r.accepted]
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    optimize(graph, DEEP)
    nodes = vehicle_trajectory(graph)

    out_t, out_p = full_rate_trajectory(graph, readings, stream)
    assert all(b > a for a, b in zip(out_t, out_t[1:]))
    inside = t[(t > kept[0].timestamp) & (t < kept[-1].timestamp)]
    assert len(out_t) == inside.size + len(kept)
    k = -1
    for tau, pose in zip(out_t, out_p):
        if k + 1 < len(kept) and tau == kept[k + 1].timestamp:
            k += 1
            assert pose == nodes[k]
            continue
        want = compose(nodes[k], window_pose(stream, kept[k].timestamp, tau))
        assert np.max(np.abs(pose.as_array() - want.as_array())) <= 1e-12
    assert k == len(kept) - 1


@pytest.mark.parametrize("on_grid", [True, False])
def test_full_rate_trajectory_is_on_the_rechain_grid(on_grid):
    """The re-chain's timestamps are exactly the fix times joined with
    the odometry samples strictly between the first and the last fix,
    whether the fixes fall on odometry samples or between them, and a fix
    time that is also a sample time appears once."""
    if on_grid:
        ds = generate_synthetic(1, TrajectoryProfile.URBAN_LOOP,
                                duration=40.0)
    else:
        ds = Dataset("off-grid", *_off_grid_drive())
    fix_t = np.array([r.timestamp for r in ds.gnss])
    samples = ds.odometry.timestamps
    on_samples = np.isin(fix_t, samples)
    assert on_samples.all() if on_grid else not on_samples.any()
    inside = samples[(samples > fix_t[0]) & (samples < fix_t[-1])]
    graph = build(ds.gnss, ds.odometry, BuilderConfig(strategy=Strategy.G1))
    out_t, _ = full_rate_trajectory(graph, ds.gnss, ds.odometry)
    assert out_t == np.union1d(fix_t, inside).tolist()
    assert len(out_t) == len(set(out_t)) == \
        len(fix_t) + inside.size - np.isin(inside, fix_t).sum()


def test_full_rate_trajectory_wants_matching_graph():
    readings, stream = _drive(5)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    with pytest.raises(ValueError):
        full_rate_trajectory(graph, readings[:3], stream)


@pytest.mark.parametrize("hole", [(1.5, 1.7), (1.0, 2.0), (0.9, 2.1)])
def test_full_rate_trajectory_refuses_an_uncovered_fix_gap(hole):
    """Odometry missing inside one fix gap is refused, whether samples
    remain between the hole and the fixes or the gap holds none."""
    readings, stream = _drive(5)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    t = stream.timestamps
    keep = (t < hole[0]) | (t > hole[1])
    gappy = OdometryStream(t[keep], stream.yaw_rates[keep],
                           stream.velocities[keep])
    with pytest.raises(InsufficientCoverageError, match="odometry gap") \
            as rechain:
        full_rate_trajectory(graph, readings, gappy)
    # the build checks the same fix gaps
    with pytest.raises(InsufficientCoverageError) as built:
        build(readings, gappy)
    assert str(built.value) == str(rechain.value)


def test_build_refuses_readings_out_of_time_order():
    readings, stream = _drive(5)
    readings[2], readings[3] = readings[3], readings[2]
    with pytest.raises(ValueError, match="^need t_start < t_end$"):
        build(readings, stream)


def test_build_work_does_not_grow_with_the_drive(monkeypatch):
    """Clock-free cost check: graph insertion calls and pose objects made
    by build are the same for a 3600-fix drive as for a 60-fix one."""
    calls = []
    for name in ("add_nodes", "add_edges"):
        method = getattr(PoseGraph, name)

        def counted(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(PoseGraph, name, counted)
    post_init = Pose2.__post_init__

    def made(self):
        calls.append("Pose2")
        post_init(self)

    monkeypatch.setattr(Pose2, "__post_init__", made)
    long_drive = _drive(3600)
    short_drive = _drive(60)
    for strat in Strategy:
        counts = []
        for readings, stream in (long_drive, short_drive):
            calls.clear()
            graph = build(readings, stream, BuilderConfig(strategy=strat))
            counts.append(sorted(calls))
            assert len(vehicle_trajectory(graph)) == len(readings)
        assert counts[0] == counts[1], strat
        assert len(counts[0]) <= 6, strat


def test_config_takes_a_member_or_its_value():
    """A strategy given by its value builds the same graph as its member;
    any other value is refused instead of falling through to another
    wiring."""
    readings, stream = _drive(3)
    by_value = BuilderConfig(strategy="g1")
    assert by_value.strategy is Strategy.G1
    by_member = BuilderConfig(strategy=Strategy.G1)
    assert _kinds(build(readings, stream, by_value)) == \
        _kinds(build(readings, stream, by_member))
    for bad in (dict(strategy="G1"), dict(strategy="g4"), dict(strategy=1)):
        with pytest.raises(ValueError):
            BuilderConfig(**bad)
    with pytest.raises(ValueError):
        dataclasses.replace(by_member, strategy="g0")
