"""Pose-graph construction from accepted GNSS fixes plus odometry.

Three ways to wire the same information into a graph:

* G1: one vehicle node per fix; GNSS enters as absolute position edges
  from a fixed origin node to the vehicle nodes.
* G2: GNSS fixes become their own free nodes, pinned to the origin by
  absolute edges and tied to the vehicle nodes by strong identity edges.
* G3: GNSS fixes become fixed nodes; the per-fix uncertainty moves onto
  the identity edges tying them to the vehicle nodes.

All three share the odometry chain between consecutive vehicle nodes.
The seed dead-reckons that chain from the origin, then moves it as one
rigid body onto the fixes (the weighted least-squares fit of its
nodes), so odometry-edge residuals start at rounding level and the
start heading rests on every fix rather than on the bearing between the
first two.  G2's GNSS nodes start on their vehicle nodes, so the
identity edges start at zero.  build() and the re-chain check
coverage once, over the gaps between accepted fixes, and price their
windows with one `WindowEnds`.  No node stores its role: the vehicle
nodes are the chain's, which is how the track is read back.  build()
adds whole blocks to the graph (vehicle nodes, odometry edges, GNSS
nodes and edges), so the number of graph calls it makes does not depend
on the length of the drive.

The G2 identity edges weight heading as well as position.  With a free
heading the auxiliary nodes could rotate to wherever their absolute edge
is cheapest, which measurably moves the G2 optimum away from G1/G3; tying
the heading keeps the three strategies' minima coincident.

build() numbers the nodes along the chain: the fixed origin, then the
vehicle nodes in time order, with each G2 GNSS node right after its
vehicle node.  The solver takes the free nodes in id order, so this
numbering is what gives its band a half-bandwidth of 5 (G1, G3) or 8
(G2).

G2's GNSS nodes eliminate exactly (`reduce_g2`, `fill_g2`), and the
pipeline solves G2 so; build() still returns the G2 graph.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooFewReadingsError
from .gnss import gnss_information
from .graph import EDGE_KINDS, EdgeKind, PoseGraph
from .odometry import OdometryStream, WindowEnds, arc_information
from .se2 import Pose2, _compose_cols, poses_from_rows, wrap_angles


class Strategy(enum.Enum):
    G1 = "g1"
    G2 = "g2"
    G3 = "g3"


@dataclass
class BuilderConfig:
    """How build() wires the graph.

    identity_edge_strength is the stiffness s of G2's fix-to-vehicle
    identity edges, any value in (0, inf).  G2 is exactly G1 with each
    fix's variance raised by 1/s (`reduce_g2`).  Measured on 18 drives of 300 s (the three profiles, seeds
    0-2, sigma 0.3 and 1.625 m, rho 0.95, screen off): G2's fused
    precision is G1's to 5e-5 relative at s = 1e4, 5e-7 at the default
    1e6 and 5e-11 at 1e10, and every solve converges in 3 to 6
    iterations, as G1's do.  At s = 1 it differs by up to 19 %.  A
    direct optimize() of the G2 graph itself meets the stiff ties: at
    s = 1e10 it ends at max_iter on all 9 sigma 1.625 m drives.
    """

    strategy: Strategy = Strategy.G2
    identity_edge_strength: float = 1e6

    def __post_init__(self):
        # a member or its value; anything else raises ValueError
        self.strategy = Strategy(self.strategy)
        if not 0.0 < self.identity_edge_strength < math.inf:
            raise ValueError("identity_edge_strength must lie in (0, inf)")


def _accepted_fixes(readings, odo: OdometryStream):
    """The accepted readings and their times, checked as windows between
    consecutive fixes (`check_windows`).  These are the odometry edges'
    windows, and they cover every re-chain window: each lies in a fix
    gap, `reach` never falls as a start moves later, and the grid keeps
    the samples on both sides of any recording hole."""
    kept = [r for r in readings if r.accepted]
    if len(kept) < 2:
        raise TooFewReadingsError(
            f"need at least 2 accepted GNSS readings, got {len(kept)}")
    fix_t = np.array([r.timestamp for r in kept], dtype=float)
    odo.check_windows(fix_t[:-1], fix_t[1:])
    return kept, fix_t


def _dead_reckon(stream: OdometryStream, times):
    """Odometry deltas (k, 3) and arc lengths between consecutive fix
    times, covered (`_accepted_fixes`) and priced by one `WindowEnds`,
    and the (k + 1, 3) poses chained through them from the origin at
    heading 0 as one prefix product, headings left unwrapped."""
    k = np.arange(times.size)
    dx, dy, heading, arcs = WindowEnds(stream, times).windows(k[:-1], k[1:])
    deltas = np.stack((dx, dy, wrap_angles(heading)), axis=1)
    # cumulative headings, and cumulative steps rotated by them
    theta = np.cumsum(np.append(0.0, deltas[:, 2]))
    c, s = np.cos(theta[:-1]), np.sin(theta[:-1])
    poses = np.stack((np.cumsum(np.append(0.0, c * dx - s * dy)),
                      np.cumsum(np.append(0.0, s * dx + c * dy)), theta),
                     axis=1)
    return deltas, arcs, poses


def _fit_to_fixes(chain, fixes, weights):
    """The (k, 3) chain moved by the one rigid SE(2) motion that puts its
    rows closest to the (k, 2) fixes in weighted least squares: the
    closed-form 2-D Procrustes fit (Umeyama 1991).  The rotation is the
    angle of the weighted cross-covariance of the centred point sets, 0
    when the chain's points coincide (a drive at a standstill); the
    motion takes the chain's weighted centroid onto the fixes'."""
    w = weights / np.sum(weights)
    p = chain[:, :2].copy()  # `w @` a strided view rounds differently
    p_bar, q_bar = w @ p, w @ fixes
    (px, py), (qx, qy) = (p - p_bar).T, (fixes - q_bar).T
    phi = math.atan2(w @ (px * qy - py * qx), w @ (px * qx + py * qy))
    c, s = math.cos(phi), math.sin(phi)
    tx = q_bar[0] - (c * p_bar[0] - s * p_bar[1])
    ty = q_bar[1] - (s * p_bar[0] + c * p_bar[1])
    return np.stack(_compose_cols(tx, ty, phi, *chain.T), axis=1)


def _rechain_times(fix_t: np.ndarray, stream: OdometryStream):
    """The re-chain's timestamps, sorted: every fix time (increasing) and
    every raw odometry sample strictly between the first and the last
    fix.  The one definition of the odometry-rate grid."""
    t = stream.timestamps
    return np.union1d(fix_t, t[(t > fix_t[0]) & (t < fix_t[-1])])


def build(readings, odo, config: BuilderConfig | None = None) -> PoseGraph:
    """Assemble the pose graph for the configured strategy.

    Node order: fixed origin first, then one vehicle node per accepted
    fix; G2 puts each fix's GNSS node right after its vehicle node
    (vehicle i is node 2i + 1, GNSS i node 2i + 2), G3 appends its fixed
    GNSS nodes after the vehicle nodes.  So the free nodes in id order
    run along the chain, the order the solver's band takes them in.
    Edge order: odometry chain, then absolute GNSS edges, then identity
    edges.  Needs at least two accepted readings, in time order, and
    odometry covering every gap between them (`_accepted_fixes`).
    """
    cfg = config if config is not None else BuilderConfig()
    readings, fix_t = _accepted_fixes(readings, odo)
    deltas, arcs, chain = _dead_reckon(odo, fix_t)
    fixes = np.array([(r.position[0], r.position[1], 0.0) for r in readings])
    info = gnss_information(readings)
    poses = _fit_to_fixes(chain, fixes[:, :2],
                          (info[:, 0, 0] + info[:, 1, 1]) / 2.0)

    graph = PoseGraph()
    graph.add_nodes([(0.0, 0.0, 0.0)], fixed=True)
    if cfg.strategy is Strategy.G2:
        # each GNSS node right after its vehicle node, starting on it so
        # that its identity edge starts at zero
        nodes = graph.add_nodes(np.repeat(poses, 2, axis=0))
        vehicle, gnss = nodes[::2], nodes[1::2]
    else:
        vehicle = graph.add_nodes(poses)
    graph.add_edges(vehicle[:-1], vehicle[1:], deltas, arc_information(arcs),
                    EdgeKind.ODOMETRY)

    origin = np.zeros(len(readings), dtype=np.intp)
    identity = np.zeros_like(fixes)
    if cfg.strategy is Strategy.G1:
        graph.add_edges(origin, vehicle, fixes, info, EdgeKind.GNSS_ABSOLUTE)
    elif cfg.strategy is Strategy.G2:
        s = cfg.identity_edge_strength
        tie = np.broadcast_to(np.diag([s, s, s]), info.shape)
        graph.add_edges(origin, gnss, fixes, info, EdgeKind.GNSS_ABSOLUTE)
        graph.add_edges(gnss, vehicle, identity, tie,
                        EdgeKind.VIRTUAL_IDENTITY)
    else:
        gnss = graph.add_nodes(fixes, fixed=True)
        graph.add_edges(gnss, vehicle, identity, info,
                        EdgeKind.VIRTUAL_IDENTITY)
    return graph


def _g2_layout(graph: PoseGraph):
    """k, the fix edges and the ties of a G2 graph in build()'s layout:
    the origin, then k vehicle nodes (rows 1::2) each followed by its
    GNSS node (rows 2::2); k - 1 odometry edges, then k fix edges and k
    ties, the k-th of each on the k-th GNSS node."""
    k = (len(graph.poses) - 1) // 2
    return k, slice(k - 1, 2 * k - 1), slice(2 * k - 1, 3 * k - 1)


def reduce_g2(graph: PoseGraph) -> PoseGraph:
    """The G1 graph that a G2 graph of build() reduces to exactly.

    A GNSS node g has two edges: its fix, origin -> g with z and Omega =
    diag(a, b, 0), and its tie g -> v with s I.  Only the tie holds
    theta_g, so theta_g = theta_v at the optimum, and the tie's position
    block is isotropic, so minimizing over p_g is a quadratic problem
    (variable elimination; Triggs et al. 1999, 6.1).  It leaves the fix
    edge origin -> v with Omega_eff = diag((1/a + 1/s)^-1, (1/b +
    1/s)^-1, 0), for the nonlinear problem, not only its linear step.
    The reduced graph keeps the origin, the vehicle nodes (node 2i + 1
    becomes node i + 1, so every id maps to (id + 1) // 2) and the
    odometry edges, and runs each fix edge to its vehicle node with
    Omega_eff.  Its chi2 at any vehicle poses is G2's with every GNSS
    node at its conditional optimum (`fill_g2`), so both graphs have
    one minimum and it is G2's.
    """
    k, fix, tie = _g2_layout(graph)
    omega = graph.information[fix]
    s = graph.information[tie][:, :1, :1]
    reduced = PoseGraph()
    keep = np.r_[0, 1:2 * k:2]
    reduced.add_nodes(graph.poses[keep], graph.fixed[keep])
    ends = (np.stack((graph.from_ids, graph.to_ids)) + 1) // 2
    odometry = slice(0, k - 1)
    reduced.add_edges(*ends[:, odometry], graph.measurements[odometry],
                      graph.information[odometry], EdgeKind.ODOMETRY)
    # Omega is diagonal, so Omega_eff is its entries' (1/a + 1/s)^-1
    reduced.add_edges(ends[0, fix], ends[1, tie],
                      graph.measurements[fix], omega * s / (omega + s),
                      EdgeKind.GNSS_ABSOLUTE)
    return reduced


def fill_g2(graph: PoseGraph, reduced: PoseGraph) -> None:
    """Move a G2 graph onto the poses of its reduction (`reduce_g2`): the
    vehicle rows are copied, and each GNSS node goes to its conditional
    optimum, p_g = (Omega + s I)^-1 (Omega z + s p_v) and theta_g =
    theta_v."""
    _, fix, tie = _g2_layout(graph)
    vehicle = reduced.poses[1:]
    omega = np.diagonal(graph.information[fix], axis1=1, axis2=2)[:, :2]
    s = graph.information[tie][:, :1, 0]
    graph.poses[1::2] = vehicle
    graph.poses[2::2, :2] = ((omega * graph.measurements[fix][:, :2]
                              + s * vehicle[:, :2]) / (omega + s))
    graph.poses[2::2, 2] = vehicle[:, 2]


def _vehicle_poses(graph: PoseGraph) -> np.ndarray:
    """(k, 3) vehicle-node rows in id (time) order: the endpoints of the
    ODOMETRY edges, which the origin and GNSS nodes never touch, so a
    reloaded dump selects the same rows.  No odometry edge, no rows."""
    odometry = graph.edge_kinds == EDGE_KINDS.index(EdgeKind.ODOMETRY)
    return graph.poses[np.union1d(graph.from_ids[odometry],
                                  graph.to_ids[odometry])]


def vehicle_trajectory(graph: PoseGraph) -> list[Pose2]:
    """Vehicle-node poses in id (time) order, equal to a Pose2 made from
    each node's row and built in bulk by `poses_from_rows`."""
    return poses_from_rows(_vehicle_poses(graph))


def full_rate_trajectory(graph: PoseGraph, readings, odo: OdometryStream):
    """Re-chain odometry between optimized nodes for a dense trajectory.

    The timestamps are every accepted fix and every odometry sample
    between the first and the last (`_rechain_times`).  Each sample gets
    the optimized node of the last fix before it composed with the
    odometry integrated from that fix, all windows priced by one
    `WindowEnds` over the grid, and node poses appear unchanged at the
    fix times.  Returns (timestamps,
    poses), the poses built in bulk by `poses_from_rows`.  The graph's
    vehicle nodes must pair up with the accepted readings one to one.
    """
    readings, fix_t = _accepted_fixes(readings, odo)
    nodes = _vehicle_poses(graph)
    if len(nodes) != len(readings):
        raise ValueError("graph vehicle nodes do not match accepted readings")
    times = _rechain_times(fix_t, odo)
    # each grid time's gap (the last fix at or before it) and that fix's
    # grid index, which for a fix is its own
    gap = np.searchsorted(fix_t, times, side="right") - 1
    start = np.searchsorted(times, fix_t)[gap]
    sample = np.flatnonzero(start != np.arange(times.size))
    dx, dy, heading, _ = WindowEnds(odo, times).windows(start[sample], sample)
    poses = nodes[gap]
    poses[sample] = np.stack(_compose_cols(*poses[sample].T, dx, dy,
                                           wrap_angles(heading)), axis=1)
    return times.tolist(), poses_from_rows(poses)
