"""Pose-graph container: node and edge arrays, read-only object views,
text dump/load.

Nodes are `poses` (n, 3) and the `fixed` mask; edges are `from_ids`/
`to_ids`, `measurements` (m, 3), `information` (m, 3, 3) and
`edge_kinds`, codes into EDGE_KINDS.  A node carries no role, as a g2o
VERTEX_SE2 carries none: its role follows from its edges, so save()
writes every column, and load(save(g)) equals g.  Each column is a
writable view of the live rows, taken after building, since an add may
move the storage.  add_nodes() and add_edges() are the only way in: they
validate, copy and append whole blocks, wrapping headings.  `nodes` and
`edges` make Node and Edge objects on access, for readers outside the
package; nothing in it reads them.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import BadInformationError, ParseError, UnknownNodeError
from .se2 import Pose2, wrap_angles


class EdgeKind(enum.Enum):
    ODOMETRY = "ODOMETRY"
    GNSS_ABSOLUTE = "GNSS_ABSOLUTE"
    VIRTUAL_IDENTITY = "VIRTUAL_IDENTITY"


EDGE_KINDS = tuple(EdgeKind)


@dataclass(frozen=True)
class Node:
    id: int
    pose: Pose2
    fixed: bool = False


@dataclass(frozen=True)
class Edge:
    from_id: int
    to_id: int
    measurement: Pose2
    information: np.ndarray
    kind: EdgeKind = EdgeKind.ODOMETRY


class _Table:
    """Equal-length columns in buffers that grow by doubling."""

    def __init__(self, **columns):
        # name -> (row shape, dtype)
        self.size = 0
        self._buf = {name: np.empty((0,) + shape, dtype)
                     for name, (shape, dtype) in columns.items()}

    def rows(self, name: str) -> np.ndarray:
        return self._buf[name][:self.size]

    def append(self, count: int, **blocks) -> range:
        start, end = self.size, self.size + count
        for name, block in blocks.items():
            buf = self._buf[name]
            if end > len(buf):
                self._buf[name] = np.empty(
                    (max(end, 2 * len(buf)),) + buf.shape[1:], buf.dtype)
                self._buf[name][:start] = buf[:start]
            self._buf[name][start:end] = block
        self.size = end
        return range(start, end)


def _column(table: str, name: str) -> property:
    return property(lambda graph: getattr(graph, table).rows(name))


class _View(Sequence):
    """Read-only sequence of objects made from table rows on access."""

    def __init__(self, table: _Table, make):
        self._table = table
        self._make = make

    def __len__(self) -> int:
        return self._table.size

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self._make(i) for i in range(*k.indices(len(self)))]
        return self._make(range(len(self))[k])


class PoseGraph:
    """Nodes with dense ids plus typed edges, in insertion order."""

    poses = _column("_nodes", "poses")
    fixed = _column("_nodes", "fixed")
    from_ids = _column("_edges", "from_ids")
    to_ids = _column("_edges", "to_ids")
    measurements = _column("_edges", "measurements")
    information = _column("_edges", "information")
    edge_kinds = _column("_edges", "edge_kinds")

    def __init__(self):
        self._nodes = _Table(poses=((3,), float), fixed=((), bool))
        self._edges = _Table(from_ids=((), np.intp), to_ids=((), np.intp),
                             measurements=((3,), float),
                             information=((3, 3), float),
                             edge_kinds=((), np.int8))

    @property
    def nodes(self) -> _View:
        return _View(self._nodes, lambda k: Node(
            k, Pose2(*self.poses[k].tolist()), bool(self.fixed[k])))

    @property
    def edges(self) -> _View:
        return _View(self._edges, self._edge)

    def _edge(self, k: int) -> Edge:
        info = self.information[k]
        info.flags.writeable = False
        return Edge(int(self.from_ids[k]), int(self.to_ids[k]),
                    Pose2(*self.measurements[k].tolist()), info,
                    EDGE_KINDS[self.edge_kinds[k]])

    def add_nodes(self, poses, fixed=False) -> range:
        """Append (x, y, theta) rows as nodes; return their ids.

        `fixed` is one flag for the block or one per node.
        """
        poses = np.array(poses, dtype=float)
        if poses.ndim != 2 or poses.shape[1] != 3:
            raise ValueError(f"poses shape {poses.shape}, expected (n, 3)")
        _check_finite(poses, "pose")
        poses[:, 2] = wrap_angles(poses[:, 2])
        return self._nodes.append(len(poses), poses=poses, fixed=fixed)

    def add_edges(self, from_ids, to_ids, measurements, information,
                  kind: EdgeKind = EdgeKind.ODOMETRY) -> range:
        """Append a block of edges of one kind; return their ordinals.

        Endpoints must be existing, distinct nodes; measurements must be
        finite; each information matrix must be 3x3, finite, symmetric to
        1e-9 and have a non-negative diagonal; it is stored as (Omega +
        Omega') / 2.  Nothing is added when any edge of the block fails.
        """
        i = np.asarray(from_ids, dtype=np.intp)
        j = np.asarray(to_ids, dtype=np.intp)
        z = np.array(measurements, dtype=float)
        info = np.asarray(information, dtype=float)
        m = len(i)
        if i.shape != (m,) or j.shape != (m,) or z.shape != (m, 3) \
                or len(info) != m:
            raise ValueError(f"edge block of {m} from ids needs as many to "
                             "ids, measurement rows and information matrices")
        n = self._nodes.size
        bad = (i < 0) | (i >= n) | (j < 0) | (j >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise UnknownNodeError(f"edge endpoints ({i[k]}, {j[k]}) with "
                                   f"{n} nodes in the graph")
        if (i == j).any():
            raise ValueError(f"self edge on node {i[np.argmax(i == j)]}")
        if info.shape[1:] != (3, 3):
            raise BadInformationError(f"information shape {info.shape[1:]}")
        _check_finite(z, "measurement")
        if not np.isfinite(info).all():
            raise BadInformationError("non-finite information entry")
        asym = np.abs(info - info.transpose(0, 2, 1))
        if (asym.max(axis=(1, 2), initial=0.0) > 1e-9).any():
            raise BadInformationError("information matrix not symmetric")
        if (np.diagonal(info, axis1=1, axis2=2) < 0.0).any():
            raise BadInformationError("negative diagonal information entry")
        z[:, 2] = wrap_angles(z[:, 2])
        # save() writes the upper triangle: store what reloads
        info = 0.5 * (info + info.transpose(0, 2, 1))
        return self._edges.append(m, from_ids=i, to_ids=j, measurements=z,
                                  information=info,
                                  edge_kinds=EDGE_KINDS.index(kind))


def _check_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite {what}")


# 17 significant digits read back as the same double; every text
# output of the package formats its floats with this
FLOAT_FORMAT = "%.17g"


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % float(x)


def save(graph: PoseGraph, path) -> None:
    """Write the graph as plain text, one VERTEX_SE2/EDGE_SE2 record per line."""
    lines = []
    for k, ((x, y, theta), fixed) in enumerate(
            zip(graph.poses.tolist(), graph.fixed.tolist())):
        rec = f"VERTEX_SE2 {k} {_fmt(x)} {_fmt(y)} {_fmt(theta)}"
        if fixed:
            rec += " FIXED"
        lines.append(rec)
    for i, j, z, info, kind in zip(
            graph.from_ids.tolist(), graph.to_ids.tolist(),
            graph.measurements.tolist(), graph.information.tolist(),
            graph.edge_kinds.tolist()):
        lines.append(
            "EDGE_SE2 "
            f"{i} {j} {_fmt(z[0])} {_fmt(z[1])} {_fmt(z[2])} "
            f"{_fmt(info[0][0])} {_fmt(info[0][1])} {_fmt(info[0][2])} "
            f"{_fmt(info[1][1])} {_fmt(info[1][2])} {_fmt(info[2][2])} "
            f"{EDGE_KINDS[kind].value}")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load(path) -> PoseGraph:
    """Read a graph written by save().

    File vertex ids may be arbitrary; they are remapped to dense ids in
    order of appearance.  The vertices are added as one block, then
    each edge as a block of one, so an invalid vertex or edge names its
    own line.
    """
    id_map: dict[int, int] = {}
    poses, fixed, edges = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            tag = tokens[0]
            try:
                if tag == "VERTEX_SE2":
                    fixed.append(tokens[-1] == "FIXED")
                    if fixed[-1]:
                        tokens = tokens[:-1]
                    if len(tokens) != 5:
                        raise ValueError("bad field count")
                    file_id = int(tokens[1])
                    if file_id in id_map:
                        raise ValueError(f"duplicate vertex id {file_id}")
                    id_map[file_id] = len(poses)
                    poses.append([float(v) for v in tokens[2:5]])
                    # the vertices go in as one block, so each line is
                    # checked here to name it
                    _check_finite(poses[-1], "pose")
                elif tag == "EDGE_SE2":
                    if len(tokens) != 13:
                        raise ValueError("bad field count")
                    z = [float(v) for v in tokens[3:6]]
                    i11, i12, i13, i22, i23, i33 = map(float, tokens[6:12])
                    info = [[i11, i12, i13], [i12, i22, i23], [i13, i23, i33]]
                    edges.append((lineno, int(tokens[1]), int(tokens[2]),
                                  z, info, EdgeKind(tokens[12])))
                else:
                    raise ValueError(f"unknown record tag {tag!r}")
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
    graph = PoseGraph()
    graph.add_nodes(np.reshape(poses, (-1, 3)), fixed)
    for lineno, i, j, z, info, kind in edges:
        try:
            graph.add_edges([id_map[i]], [id_map[j]], [z], [info], kind)
        except KeyError as exc:
            raise ParseError(f"{path}:{lineno}: edge references unknown "
                             f"vertex {exc}") from exc
        except ValueError as exc:
            # add_edges' validation: self edge, non-finite value, bad
            # information matrix
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return graph
