"""Graph construction in the three wiring strategies."""

import dataclasses

import numpy as np
import pytest

from helpers import integrate_fine, total_error, window_pose
from se2fusion.builders import BuilderConfig, NodeRate, Strategy, build, \
    full_rate_trajectory, vehicle_trajectory
from se2fusion.errors import TooFewReadingsError
from se2fusion.gnss import GnssReading, gnss_information
from se2fusion.graph import EdgeKind, NodeKind, PoseGraph
from se2fusion.odometry import OdometryStream
from se2fusion.se2 import Pose2, compose, edge_residual
from se2fusion.solver import SolverConfig, optimize

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


def _kinds(graph):
    nodes = [n.kind for n in graph.nodes]
    edges = [e.kind for e in graph.edges]
    return nodes, edges


def test_g1_structure():
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    nodes, edges = _kinds(graph)
    assert nodes == [NodeKind.UTM_ORIGIN] + [NodeKind.VEHICLE_POSE] * 3
    assert edges == [EdgeKind.ODOMETRY] * 2 + [EdgeKind.GNSS_ABSOLUTE] * 3
    assert graph.nodes[0].fixed
    assert not any(n.fixed for n in graph.nodes[1:])


def test_g2_structure():
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G2))
    nodes, edges = _kinds(graph)
    assert nodes == [NodeKind.UTM_ORIGIN] + [NodeKind.VEHICLE_POSE] * 3 \
        + [NodeKind.GNSS_POSE] * 3
    assert edges == [EdgeKind.ODOMETRY] * 2 \
        + [EdgeKind.GNSS_ABSOLUTE] * 3 + [EdgeKind.VIRTUAL_IDENTITY] * 3
    assert not any(n.fixed for n in graph.nodes[1:])


def test_g3_structure():
    readings, stream = _drive(3)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G3))
    nodes, edges = _kinds(graph)
    assert nodes == [NodeKind.UTM_ORIGIN] + [NodeKind.VEHICLE_POSE] * 3 \
        + [NodeKind.GNSS_POSE] * 3
    assert edges == [EdgeKind.ODOMETRY] * 2 + [EdgeKind.VIRTUAL_IDENTITY] * 3
    assert all(n.fixed for n in graph.nodes if n.kind is NodeKind.GNSS_POSE)


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
    for k, r in enumerate(readings):
        r.position = np.array([float(k), 0.0])  # bearings need motion
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
        dx, dy, _, _ = integrate_fine(t, w, v, 0.0, float(k))
        assert seeds[k].x == pytest.approx(dx, abs=1e-3)
        assert seeds[k].y == pytest.approx(dy, abs=1e-3)


def test_odometry_residuals_start_at_zero():
    readings, stream = _drive(8, noise=1.0, seed=4)
    for cfg in (BuilderConfig(strategy=Strategy.G1),
                BuilderConfig(strategy=Strategy.G2),
                BuilderConfig(strategy=Strategy.G3)):
        graph = build(readings, stream, cfg)
        for e in graph.edges:
            if e.kind is not EdgeKind.ODOMETRY:
                continue
            r = edge_residual(graph.nodes[e.from_id].pose,
                              graph.nodes[e.to_id].pose, e.measurement)
            assert np.allclose(r, 0.0, atol=1e-9)


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


def test_g3_gnss_nodes_never_move():
    readings, stream = _drive(6, noise=1.5, seed=2)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G3))
    before = [n.pose.as_array() for n in graph.nodes
              if n.kind is NodeKind.GNSS_POSE]
    optimize(graph, DEEP)
    after = [n.pose.as_array() for n in graph.nodes
             if n.kind is NodeKind.GNSS_POSE]
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_rejected_readings_leave_no_trace():
    readings, stream = _drive(5)
    readings[1].accepted = False
    readings[3].accepted = False
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    nodes, edges = _kinds(graph)
    assert nodes.count(NodeKind.VEHICLE_POSE) == 3
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


def test_per_odometry_sample_node_rate():
    readings, stream = _drive(3)
    cfg = BuilderConfig(strategy=Strategy.G1,
                        node_rate=NodeRate.PER_ODOMETRY_SAMPLE)
    graph = build(readings, stream, cfg)
    t = stream.timestamps
    merged = np.union1d(np.array([0.0, 1.0, 2.0]),
                        t[(t > 0.0) & (t < 2.0)])
    n_vehicle = sum(1 for n in graph.nodes
                    if n.kind is NodeKind.VEHICLE_POSE)
    assert n_vehicle == merged.size
    assert n_vehicle > 40
    nodes, edges = _kinds(graph)
    assert edges.count(EdgeKind.ODOMETRY) == n_vehicle - 1
    assert edges.count(EdgeKind.GNSS_ABSOLUTE) == 3


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


def test_full_rate_trajectory_equals_per_sample_preintegration():
    # curved drive with fixes between odometry samples, two of them
    # rejected before the graph is built
    t = np.arange(0.0, 12.0, 0.04)
    stream = OdometryStream(t, 0.2 * np.sin(0.5 * t),
                            6.0 + np.cos(0.3 * t))
    fix_t = 0.013 + 0.97 * np.arange(12)
    readings = [GnssReading(float(tk), [6.0 * tk, 0.3 * tk * tk], 2.0, 2.0)
                for tk in fix_t]
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


def test_full_rate_trajectory_wants_matching_graph():
    readings, stream = _drive(5)
    graph = build(readings, stream, BuilderConfig(strategy=Strategy.G1))
    with pytest.raises(ValueError):
        full_rate_trajectory(graph, readings[:3], stream)


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
    """A strategy or node rate given by its value builds the same graph as
    its member; any other value is refused instead of falling through to
    another wiring."""
    readings, stream = _drive(3)
    by_value = BuilderConfig(strategy="g1", node_rate="per_odometry_sample")
    assert by_value.strategy is Strategy.G1
    assert by_value.node_rate is NodeRate.PER_ODOMETRY_SAMPLE
    by_member = BuilderConfig(strategy=Strategy.G1,
                              node_rate=NodeRate.PER_ODOMETRY_SAMPLE)
    assert _kinds(build(readings, stream, by_value)) == \
        _kinds(build(readings, stream, by_member))
    for bad in (dict(strategy="G1"), dict(strategy="g4"),
                dict(strategy=1), dict(node_rate="per_second")):
        with pytest.raises(ValueError):
            BuilderConfig(**bad)
    with pytest.raises(ValueError):
        dataclasses.replace(by_member, strategy="g0")
