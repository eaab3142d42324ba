"""Pose-graph container: typed nodes and edges, chi-square, text dump/load."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import BadInformationError, ParseError, UnknownNodeError
from .se2 import Pose2, edge_residual


class NodeKind(enum.Enum):
    VEHICLE_POSE = "VEHICLE_POSE"
    UTM_ORIGIN = "UTM_ORIGIN"
    GNSS_POSE = "GNSS_POSE"


class EdgeKind(enum.Enum):
    ODOMETRY = "ODOMETRY"
    GNSS_ABSOLUTE = "GNSS_ABSOLUTE"
    VIRTUAL_IDENTITY = "VIRTUAL_IDENTITY"


@dataclass
class Node:
    id: int
    pose: Pose2
    fixed: bool = False
    kind: NodeKind = NodeKind.VEHICLE_POSE


@dataclass
class Edge:
    from_id: int
    to_id: int
    measurement: Pose2
    information: np.ndarray
    kind: EdgeKind = EdgeKind.ODOMETRY


@dataclass
class PoseGraph:
    """Nodes with dense ids plus typed edges, in insertion order."""

    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def add_node(self, pose: Pose2, fixed: bool = False,
                 kind: NodeKind = NodeKind.VEHICLE_POSE) -> int:
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, pose, fixed, kind))
        return node_id

    def add_edge(self, edge: Edge) -> int:
        n = len(self.nodes)
        if not (0 <= edge.from_id < n) or not (0 <= edge.to_id < n):
            raise UnknownNodeError(
                f"edge endpoints ({edge.from_id}, {edge.to_id}) with "
                f"{n} nodes in the graph")
        if edge.from_id == edge.to_id:
            raise ValueError(f"self edge on node {edge.from_id}")
        info = np.asarray(edge.information, dtype=float)
        if info.shape != (3, 3):
            raise BadInformationError(f"information shape {info.shape}")
        if np.abs(info - info.T).max() > 1e-9:
            raise BadInformationError("information matrix not symmetric")
        if np.diag(info).min() < 0.0:
            raise BadInformationError("negative diagonal information entry")
        edge.information = info.copy()
        self.edges.append(edge)
        return len(self.edges) - 1

    def total_error(self) -> float:
        """Sum of e' Omega e over all edges at the current node poses."""
        chi = 0.0
        for edge in self.edges:
            e = edge_residual(self.nodes[edge.from_id].pose,
                              self.nodes[edge.to_id].pose, edge.measurement)
            chi += float(e @ edge.information @ e)
        return chi


def _fmt(x: float) -> str:
    # 17 significant digits read back as the same double; every text
    # output of the package formats its floats here
    return format(float(x), ".17g")


def save(graph: PoseGraph, path) -> None:
    """Write the graph as plain text, one VERTEX_SE2/EDGE_SE2 record per line."""
    lines = []
    for node in graph.nodes:
        p = node.pose
        rec = f"VERTEX_SE2 {node.id} {_fmt(p.x)} {_fmt(p.y)} {_fmt(p.theta)}"
        if node.fixed:
            rec += " FIXED"
        lines.append(rec)
    for edge in graph.edges:
        z = edge.measurement
        i = edge.information
        lines.append(
            "EDGE_SE2 "
            f"{edge.from_id} {edge.to_id} {_fmt(z.x)} {_fmt(z.y)} {_fmt(z.theta)} "
            f"{_fmt(i[0, 0])} {_fmt(i[0, 1])} {_fmt(i[0, 2])} "
            f"{_fmt(i[1, 1])} {_fmt(i[1, 2])} {_fmt(i[2, 2])} {edge.kind.value}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> PoseGraph:
    """Read a graph written by save().

    File vertex ids may be arbitrary; they are remapped to dense ids in
    order of appearance.  Vertex records carry no kind, so loaded nodes
    default to VEHICLE_POSE.
    """
    graph = PoseGraph()
    id_map: dict[int, int] = {}
    pending: list[tuple[int, Edge]] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            tag = tokens[0]
            try:
                if tag == "VERTEX_SE2":
                    fixed = False
                    if tokens[-1] == "FIXED":
                        fixed = True
                        tokens = tokens[:-1]
                    if len(tokens) != 5:
                        raise ValueError("bad field count")
                    file_id = int(tokens[1])
                    if file_id in id_map:
                        raise ValueError(f"duplicate vertex id {file_id}")
                    pose = Pose2(float(tokens[2]), float(tokens[3]),
                                 float(tokens[4]))
                    id_map[file_id] = graph.add_node(pose, fixed=fixed)
                elif tag == "EDGE_SE2":
                    if len(tokens) != 13:
                        raise ValueError("bad field count")
                    z = Pose2(float(tokens[3]), float(tokens[4]),
                              float(tokens[5]))
                    i11, i12, i13, i22, i23, i33 = map(float, tokens[6:12])
                    info = np.array([[i11, i12, i13],
                                     [i12, i22, i23],
                                     [i13, i23, i33]])
                    kind = EdgeKind(tokens[12])
                    pending.append((lineno, Edge(int(tokens[1]),
                                                 int(tokens[2]), z, info,
                                                 kind)))
                else:
                    raise ValueError(f"unknown record tag {tag!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    for lineno, edge in pending:
        try:
            edge.from_id = id_map[edge.from_id]
            edge.to_id = id_map[edge.to_id]
        except KeyError as exc:
            raise ParseError(
                f"{path}:{lineno}: edge references unknown vertex {exc}") from exc
        graph.add_edge(edge)
    return graph
