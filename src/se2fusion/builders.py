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
from .odometry import OdometryStream, odometry_information, preintegrate
from .se2 import Pose2, compose


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


def initialize_from_odometry(readings, odo) -> list[Pose2]:
    """Dead-reckoned seed pose per accepted reading.

    The first pose sits at the first accepted fix, heading along the
    bearing to the second; each following pose chains the preintegrated
    odometry of the gap.
    """
    readings = _accepted(readings)
    stream = OdometryStream.coerce(odo)
    p0 = readings[0].position
    poses = [Pose2(p0[0], p0[1], _first_heading(readings))]
    for prev, cur in zip(readings, readings[1:]):
        pre = preintegrate(stream, prev.timestamp, cur.timestamp)
        poses.append(compose(poses[-1], pre.delta))
    return poses


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
    stream = OdometryStream.coerce(odo)

    times = _node_times(readings, stream, cfg.node_rate)
    pres = [preintegrate(stream, a, b) for a, b in zip(times, times[1:])]

    graph = PoseGraph()
    graph.add_node(Pose2(0.0, 0.0, 0.0), fixed=True, kind=NodeKind.UTM_ORIGIN)

    p0 = readings[0].position
    pose = Pose2(p0[0], p0[1], _first_heading(readings))
    vehicle_ids = [graph.add_node(pose, kind=NodeKind.VEHICLE_POSE)]
    for pre in pres:
        pose = compose(pose, pre.delta)
        vehicle_ids.append(graph.add_node(pose, kind=NodeKind.VEHICLE_POSE))

    fix_node = {}
    time_to_id = dict(zip(times, vehicle_ids))
    for r in readings:
        fix_node[id(r)] = time_to_id[r.timestamp]

    for k, pre in enumerate(pres):
        graph.add_edge(Edge(vehicle_ids[k], vehicle_ids[k + 1], pre.delta,
                            odometry_information(pre), EdgeKind.ODOMETRY))

    if cfg.strategy is Strategy.G1:
        for r in readings:
            meas = Pose2(r.position[0], r.position[1], 0.0)
            graph.add_edge(Edge(0, fix_node[id(r)], meas,
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
            graph.add_edge(Edge(gid, fix_node[id(r)], Pose2(0.0, 0.0, 0.0),
                                tie, EdgeKind.VIRTUAL_IDENTITY))
    else:
        gnss_ids = []
        for r in readings:
            gnss_ids.append(graph.add_node(
                Pose2(r.position[0], r.position[1], 0.0),
                fixed=True, kind=NodeKind.GNSS_POSE))
        for r, gid in zip(readings, gnss_ids):
            graph.add_edge(Edge(gid, fix_node[id(r)], Pose2(0.0, 0.0, 0.0),
                                gnss_information(r),
                                EdgeKind.VIRTUAL_IDENTITY))
    return graph


def vehicle_trajectory(graph: PoseGraph) -> list[Pose2]:
    """Vehicle-node poses in id (time) order."""
    return [n.pose for n in graph.nodes if n.kind is NodeKind.VEHICLE_POSE]


def full_rate_trajectory(graph: PoseGraph, readings, odo):
    """Re-chain odometry between optimized nodes for a dense trajectory.

    For each odometry sample time between consecutive accepted fixes the
    pose is the optimized earlier node composed with the preintegrated
    delta up to that time.  Returns (timestamps, poses).  Assumes the
    graph was built per GNSS fix, so vehicle nodes pair up with accepted
    readings one to one.
    """
    readings = _accepted(readings)
    stream = OdometryStream.coerce(odo)
    poses = vehicle_trajectory(graph)
    if len(poses) != len(readings):
        raise ValueError("graph vehicle nodes do not match accepted readings")
    t = stream.timestamps
    out_t = [readings[0].timestamp]
    out_p = [poses[0]]
    for k in range(len(readings) - 1):
        ta = readings[k].timestamp
        tb = readings[k + 1].timestamp
        for tau in t[(t > ta) & (t < tb)]:
            pre = preintegrate(stream, ta, float(tau))
            out_t.append(float(tau))
            out_p.append(compose(poses[k], pre.delta))
        out_t.append(tb)
        out_p.append(poses[k + 1])
    return out_t, out_p
