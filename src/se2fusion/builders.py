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
residuals start at exactly zero.  build() adds whole blocks to the graph
(vehicle nodes, odometry edges, GNSS nodes and edges), so the number of
graph calls it makes does not depend on the length of the drive.

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
from .graph import NODE_KINDS, EdgeKind, NodeKind, PoseGraph
from .odometry import OdometryStream, arc_information, integrate_windows
from .se2 import Pose2, wrap_angle, wrap_angles


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
        # a member or its value; anything else raises ValueError
        self.strategy = Strategy(self.strategy)
        self.node_rate = NodeRate(self.node_rate)
        if not self.identity_edge_strength > 0.0:
            raise ValueError("identity_edge_strength must be positive")


def _accepted(readings):
    kept = [r for r in readings if r.accepted]
    if len(kept) < 2:
        raise TooFewReadingsError(
            f"need at least 2 accepted GNSS readings, got {len(kept)}")
    return kept


def _dead_reckon(readings, stream: OdometryStream, times):
    """Odometry deltas (k, 3) and arc lengths between consecutive times,
    and the (x, y, theta) poses chained through them from the first
    accepted reading, as `compose` chains them."""
    times = np.asarray(times, dtype=float)
    dx, dy, heading, arcs = integrate_windows(stream, times[:-1], times[1:])
    deltas = np.stack((dx, dy, wrap_angles(heading)), axis=1)
    # the first pose heads along the bearing to the second fix
    (x, y), (x1, y1) = readings[0].position.tolist(), \
        readings[1].position.tolist()
    theta = wrap_angle(math.atan2(y1 - y, x1 - x))
    poses = [(x, y, theta)]
    for ddx, ddy, dtheta in deltas.tolist():
        c = math.cos(theta)
        s = math.sin(theta)
        x, y, theta = (x + c * ddx - s * ddy, y + s * ddx + c * ddy,
                       wrap_angle(theta + dtheta))
        poses.append((x, y, theta))
    return deltas, arcs, poses


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
    graph.add_nodes([(0.0, 0.0, 0.0)], fixed=True, kind=NodeKind.UTM_ORIGIN)
    vehicle = graph.add_nodes(poses, kind=NodeKind.VEHICLE_POSE)
    graph.add_edges(vehicle[:-1], vehicle[1:], deltas, arc_information(arcs),
                    EdgeKind.ODOMETRY)

    # every fix time is a node time, so its node is found exactly
    fix_node = vehicle.start + np.searchsorted(
        times, [r.timestamp for r in readings])
    fixes = np.array([(r.position[0], r.position[1], 0.0) for r in readings])
    info = gnss_information(readings)
    origin = np.zeros(len(readings), dtype=np.intp)
    identity = np.zeros_like(fixes)
    if cfg.strategy is Strategy.G1:
        graph.add_edges(origin, fix_node, fixes, info, EdgeKind.GNSS_ABSOLUTE)
    elif cfg.strategy is Strategy.G2:
        s = cfg.identity_edge_strength
        tie = np.broadcast_to(np.diag([s, s, s]), info.shape)
        gnss = graph.add_nodes(fixes, kind=NodeKind.GNSS_POSE)
        graph.add_edges(origin, gnss, fixes, info, EdgeKind.GNSS_ABSOLUTE)
        graph.add_edges(gnss, fix_node, identity, tie,
                        EdgeKind.VIRTUAL_IDENTITY)
    else:
        gnss = graph.add_nodes(fixes, fixed=True, kind=NodeKind.GNSS_POSE)
        graph.add_edges(gnss, fix_node, identity, info,
                        EdgeKind.VIRTUAL_IDENTITY)
    return graph


def _vehicle_poses(graph: PoseGraph) -> np.ndarray:
    # (k, 3) vehicle-node rows in id (time) order
    vehicle = NODE_KINDS.index(NodeKind.VEHICLE_POSE)
    return graph.poses[graph.node_kinds == vehicle]


def vehicle_trajectory(graph: PoseGraph) -> list[Pose2]:
    """Vehicle-node poses in id (time) order."""
    return [Pose2(x, y, th) for x, y, th in
            zip(*_vehicle_poses(graph).T.tolist())]


def full_rate_trajectory(graph: PoseGraph, readings, odo: OdometryStream):
    """Re-chain odometry between optimized nodes for a dense trajectory.

    Each odometry sample between consecutive accepted fixes gets the
    optimized earlier node composed with the odometry integrated up to
    the sample, read from the stream's running integrals for every
    sample of every fix gap in one pass (equal to `integrate_windows`
    from the fix to the sample, up to rounding).  Node poses appear
    unchanged at the fix times.  Returns (timestamps, poses).  Assumes
    the graph was built per GNSS fix, so vehicle nodes pair up with
    accepted readings one to one.
    """
    readings = _accepted(readings)
    nodes = _vehicle_poses(graph)
    if len(nodes) != len(readings):
        raise ValueError("graph vehicle nodes do not match accepted readings")
    fix_t = np.array([r.timestamp for r in readings], dtype=float)
    odo.check_windows(fix_t[:-1], fix_t[1:])
    # every raw sample strictly inside a fix gap, and the gap it lies in
    t = odo.timestamps
    sample_t = t[(t > fix_t[0]) & (t < fix_t[-1]) & ~np.isin(t, fix_t)]
    gap = np.searchsorted(fix_t, sample_t) - 1
    dx, dy, heading, _ = integrate_windows(odo, fix_t[gap], sample_t)
    node = nodes[gap]
    c = np.cos(node[:, 2])
    s = np.sin(node[:, 2])
    placed = np.stack((node[:, 0] + c * dx - s * dy,
                       node[:, 1] + s * dx + c * dy,
                       node[:, 2] + wrap_angles(heading)), axis=1)
    # node poses and placed samples merged in time order
    times = np.concatenate((fix_t, sample_t))
    order = np.argsort(times, kind="stable")
    every = np.concatenate((nodes, placed))[order]
    return times[order].tolist(), [Pose2(x, y, th) for x, y, th in
                                   zip(*every.T.tolist())]
