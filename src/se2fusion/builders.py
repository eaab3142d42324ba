"""Pose-graph construction from accepted GNSS fixes plus odometry.

Three ways to wire the same information into a graph:

* G1: one vehicle node per fix; GNSS enters as absolute position edges
  from a fixed origin node to the vehicle nodes.
* G2: GNSS fixes become their own free nodes, pinned to the origin by
  absolute edges and tied to the vehicle nodes by strong identity edges.
* G3: GNSS fixes become fixed nodes; the per-fix uncertainty moves onto
  the identity edges tying them to the vehicle nodes.

All three share the odometry chain between consecutive vehicle nodes and
are initialized by dead reckoning from the first fix, so odometry-edge
residuals start at exactly zero.

The G2 identity edges weight heading as well as position.  With a free
heading the auxiliary nodes could rotate to wherever their absolute edge
is cheapest, which measurably moves the G2 optimum away from G1/G3; tying
the heading keeps the three strategies' minima coincident.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewReadingsError
from .gnss import gnss_information
from .graph import Edge, EdgeKind, NodeKind, PoseGraph
from .odometry import OdometryStream, arc_information, integrate_windows
from .se2 import Pose2, compose, wrap_angle, wrap_angles


class Strategy(enum.Enum):
    G1 = "g1"
    G2 = "g2"
    G3 = "g3"


class NodeRate(enum.Enum):
    PER_GNSS_FIX = "per_gnss_fix"
    PER_ODOMETRY_SAMPLE = "per_odometry_sample"


@dataclass
class BuilderConfig:
    strategy: Strategy = Strategy.G2
    node_rate: NodeRate = NodeRate.PER_GNSS_FIX
    identity_edge_strength: float = 1e6

    def __post_init__(self):
        if not self.identity_edge_strength > 0.0:
            raise ValueError("identity_edge_strength must be positive")


def _accepted(readings):
    kept = [r for r in readings if r.accepted]
    if len(kept) < 2:
        raise TooFewReadingsError(
            f"need at least 2 accepted GNSS readings, got {len(kept)}")
    return kept


def _first_heading(readings) -> float:
    d = readings[1].position - readings[0].position
    return math.atan2(d[1], d[0])


def _dead_reckon(readings, stream: OdometryStream, times):
    """Odometry deltas and arc lengths between consecutive times, and the
    poses chained through them from the first accepted reading."""
    times = np.asarray(times, dtype=float)
    dx, dy, heading, arcs = integrate_windows(stream, times[:-1], times[1:])
    deltas = [Pose2(x, y, wrap_angle(th)) for x, y, th in
              zip(dx.tolist(), dy.tolist(), heading.tolist())]
    p0 = readings[0].position
    poses = [Pose2(p0[0], p0[1], _first_heading(readings))]
    for delta in deltas:
        poses.append(compose(poses[-1], delta))
    return deltas, arcs, poses


def initialize_from_odometry(readings, odo: OdometryStream) -> list[Pose2]:
    """Dead-reckoned seed pose per accepted reading.

    The first pose sits at the first accepted fix, heading along the
    bearing to the second; each following pose chains the preintegrated
    odometry of the gap.
    """
    readings = _accepted(readings)
    return _dead_reckon(readings, odo, [r.timestamp for r in readings])[2]


def _node_times(readings, stream: OdometryStream, rate: NodeRate):
    """Vehicle-node timestamps; always includes every reading timestamp."""
    fix_times = [r.timestamp for r in readings]
    if rate is NodeRate.PER_GNSS_FIX:
        return fix_times
    t = stream.timestamps
    inside = t[(t > fix_times[0]) & (t < fix_times[-1])]
    merged = np.union1d(np.asarray(fix_times), inside)
    return [float(x) for x in merged]


def build(readings, odo, config: BuilderConfig | None = None) -> PoseGraph:
    """Assemble the pose graph for the configured strategy.

    Node order: fixed origin first, then one vehicle node per timestamp
    (per accepted fix by default), then for G2/G3 one GNSS node per fix.
    Edge order: odometry chain, then absolute GNSS edges, then identity
    edges.  Needs at least two accepted readings and odometry covering
    their span.
    """
    cfg = config if config is not None else BuilderConfig()
    readings = _accepted(readings)
    times = _node_times(readings, odo, cfg.node_rate)
    deltas, arcs, poses = _dead_reckon(readings, odo, times)

    graph = PoseGraph()
    graph.add_node(Pose2(0.0, 0.0, 0.0), fixed=True, kind=NodeKind.UTM_ORIGIN)
    vehicle_ids = [graph.add_node(p, kind=NodeKind.VEHICLE_POSE)
                   for p in poses]

    fix_node = dict(zip(times, vehicle_ids))

    for k, (delta, info) in enumerate(zip(deltas, arc_information(arcs))):
        graph.add_edge(Edge(vehicle_ids[k], vehicle_ids[k + 1], delta, info,
                            EdgeKind.ODOMETRY))

    if cfg.strategy is Strategy.G1:
        for r in readings:
            meas = Pose2(r.position[0], r.position[1], 0.0)
            graph.add_edge(Edge(0, fix_node[r.timestamp], meas,
                                gnss_information(r), EdgeKind.GNSS_ABSOLUTE))
    elif cfg.strategy is Strategy.G2:
        s = cfg.identity_edge_strength
        tie = np.diag([s, s, s])
        gnss_ids = []
        for r in readings:
            gnss_ids.append(graph.add_node(
                Pose2(r.position[0], r.position[1], 0.0),
                kind=NodeKind.GNSS_POSE))
        for r, gid in zip(readings, gnss_ids):
            meas = Pose2(r.position[0], r.position[1], 0.0)
            graph.add_edge(Edge(0, gid, meas, gnss_information(r),
                                EdgeKind.GNSS_ABSOLUTE))
        for r, gid in zip(readings, gnss_ids):
            graph.add_edge(Edge(gid, fix_node[r.timestamp], Pose2(0.0, 0.0, 0.0),
                                tie, EdgeKind.VIRTUAL_IDENTITY))
    else:
        gnss_ids = []
        for r in readings:
            gnss_ids.append(graph.add_node(
                Pose2(r.position[0], r.position[1], 0.0),
                fixed=True, kind=NodeKind.GNSS_POSE))
        for r, gid in zip(readings, gnss_ids):
            graph.add_edge(Edge(gid, fix_node[r.timestamp], Pose2(0.0, 0.0, 0.0),
                                gnss_information(r),
                                EdgeKind.VIRTUAL_IDENTITY))
    return graph


def vehicle_trajectory(graph: PoseGraph) -> list[Pose2]:
    """Vehicle-node poses in id (time) order."""
    return [n.pose for n in graph.nodes if n.kind is NodeKind.VEHICLE_POSE]


def full_rate_trajectory(graph: PoseGraph, readings, odo: OdometryStream):
    """Re-chain odometry between optimized nodes for a dense trajectory.

    Each odometry sample between consecutive accepted fixes gets the
    optimized earlier node composed with the odometry integrated up to
    the sample, read from the stream's running integrals for every
    sample of every fix gap in one pass (equal to `preintegrate` up to
    rounding).  Node poses appear unchanged at the fix times.  Returns
    (timestamps, poses).  Assumes the graph was built per GNSS fix, so
    vehicle nodes pair up with accepted readings one to one.
    """
    readings = _accepted(readings)
    poses = vehicle_trajectory(graph)
    if len(poses) != len(readings):
        raise ValueError("graph vehicle nodes do not match accepted readings")
    fix_t = np.array([r.timestamp for r in readings], dtype=float)
    odo.check_windows(fix_t[:-1], fix_t[1:])
    # every raw sample strictly inside a fix gap, and the gap it lies in
    t = odo.timestamps
    sample_t = t[(t > fix_t[0]) & (t < fix_t[-1]) & ~np.isin(t, fix_t)]
    gap = np.searchsorted(fix_t, sample_t) - 1
    dx, dy, heading, _ = integrate_windows(odo, fix_t[gap], sample_t)
    node = np.array([(p.x, p.y, p.theta) for p in poses])[gap]
    c = np.cos(node[:, 2])
    s = np.sin(node[:, 2])
    placed = [Pose2(x, y, th) for x, y, th in
              zip((node[:, 0] + c * dx - s * dy).tolist(),
                  (node[:, 1] + s * dx + c * dy).tolist(),
                  (node[:, 2] + wrap_angles(heading)).tolist())]
    # node poses and placed samples merged in time order
    times = np.concatenate((fix_t, sample_t))
    order = np.argsort(times, kind="stable")
    every = poses + placed
    return times[order].tolist(), [every[k] for k in order.tolist()]
