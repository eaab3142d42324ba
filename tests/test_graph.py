"""Pose-graph container: nodes, typed edges, chi-square, text round trips."""

import dataclasses
import math
import re

import numpy as np
import pytest

from helpers import add_edge, add_node, from_homogeneous, homogeneous, \
    random_chain_graph, random_pose, total_error
from se2fusion.errors import BadInformationError, ParseError, UnknownNodeError
from se2fusion.graph import Edge, EdgeKind, Node, PoseGraph, load, save
from se2fusion.se2 import Pose2, compose


def _unit_info():
    return np.eye(3)


def test_add_node_assigns_dense_ids():
    g = PoseGraph()
    assert add_node(g, Pose2(0.0, 0.0, 0.0)) == 0
    assert add_node(g, Pose2(1.0, 0.0, 0.0), fixed=True) == 1
    assert add_node(g, Pose2(2.0, 0.0, 0.0)) == 2
    assert [n.id for n in g.nodes] == [0, 1, 2]
    assert g.nodes[1].fixed and not g.nodes[0].fixed
    # a node is its id, pose and flag; its role follows from its edges
    assert [f.name for f in dataclasses.fields(Node)] == \
        ["id", "pose", "fixed"]
    assert g.nodes[2] == Node(2, Pose2(2.0, 0.0, 0.0), False)


def test_many_nodes_keep_poses_bit_exact():
    rng = np.random.default_rng(20)
    g = PoseGraph()
    xs = rng.uniform(-1e6, 1e6, 100000)
    for x in xs:
        add_node(g, Pose2(float(x), float(-x), 0.125))
    for k in (0, 1, 77, 4999, 99999):
        assert g.nodes[k].pose.x == float(xs[k])
        assert g.nodes[k].pose.y == float(-xs[k])


def test_add_edge_returns_ordinals():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.0, 0.0, 0.0))
    e = Edge(0, 1, Pose2(1.0, 0.0, 0.0), _unit_info(), EdgeKind.ODOMETRY)
    assert add_edge(g, e) == 0
    e2 = Edge(1, 0, Pose2(-1.0, 0.0, 0.0), _unit_info(), EdgeKind.ODOMETRY)
    assert add_edge(g, e2) == 1


def test_edge_unknown_endpoint_rejected():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    with pytest.raises(UnknownNodeError):
        add_edge(g, Edge(0, 99, Pose2(0.0, 0.0, 0.0), _unit_info()))


def test_edge_self_loop_rejected():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        add_edge(g, Edge(0, 0, Pose2(0.0, 0.0, 0.0), _unit_info()))


def test_negative_diagonal_information_rejected():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    info = np.eye(3)
    info[1, 1] = -1.0
    with pytest.raises(BadInformationError):
        add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), info))


def test_asymmetric_information_rejected():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    info = np.eye(3)
    info[0, 1] = 1e-6
    with pytest.raises(BadInformationError):
        add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), info))
    # asymmetry below the tolerance is accepted (measurement roundoff)
    info = np.eye(3)
    info[0, 1] = 1e-12
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), info))


def test_wrong_information_shape_rejected():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    with pytest.raises(BadInformationError):
        add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), np.eye(2)))


def test_information_copied_on_add():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0))
    add_node(g, Pose2(1.0, 0.0, 0.0))
    info = np.eye(3)
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), info))
    info[0, 0] = 777.0
    assert g.edges[0].information[0, 0] == 1.0


def test_total_error_zero_when_measurements_satisfied():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.0, 2.0, 0.3))
    z = compose(Pose2(0.0, 0.0, 0.0), Pose2(1.0, 2.0, 0.3))
    add_edge(g, Edge(0, 1, z, _unit_info()))
    assert total_error(g) < 1e-24


def test_total_error_single_unit_edge():
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(2.0, 0.0, 0.0))
    add_edge(g, Edge(0, 1, Pose2(1.0, 0.0, 0.0), _unit_info()))
    assert total_error(g) == pytest.approx(1.0, abs=1e-12)


def test_total_error_matches_homogeneous_matrix_oracle():
    """Recompute every residual through homogeneous matrices and sum
    independently."""
    rng = np.random.default_rng(21)
    g, _ = random_chain_graph(rng, 15, n_absolute=6)
    assert len(g.edges) >= 20
    total = 0.0
    for e in g.edges:
        Ti = homogeneous(g.nodes[e.from_id].pose)
        Tj = homogeneous(g.nodes[e.to_id].pose)
        Tz = homogeneous(e.measurement)
        err = from_homogeneous(np.linalg.inv(Tz) @ np.linalg.inv(Ti) @ Tj)
        v = err.as_array()
        total += float(v @ e.information @ v)
    assert total_error(g) == pytest.approx(total, rel=1e-9)


def test_total_error_invariant_under_insertion_order():
    poses = [Pose2(0.0, 0.0, 0.0), Pose2(1.1, 0.2, 0.1),
             Pose2(2.3, -0.4, -0.2)]
    z01 = Pose2(1.0, 0.0, 0.05)
    z12 = Pose2(1.2, 0.1, -0.15)
    a = PoseGraph()
    for p in poses:
        add_node(a, p)
    add_edge(a, Edge(0, 1, z01, np.diag([1.0, 2.0, 3.0])))
    add_edge(a, Edge(1, 2, z12, np.diag([2.0, 1.0, 0.5])))

    b = PoseGraph()
    add_node(b, poses[2])
    add_node(b, poses[0])
    add_node(b, poses[1])
    add_edge(b, Edge(2, 0, z12, np.diag([2.0, 1.0, 0.5])))
    add_edge(b, Edge(1, 2, z01, np.diag([1.0, 2.0, 3.0])))
    assert total_error(a) == pytest.approx(total_error(b), rel=1e-12)


def test_total_error_nonnegative():
    rng = np.random.default_rng(22)
    for _ in range(20):
        g, _ = random_chain_graph(rng, int(rng.integers(3, 10)))
        assert total_error(g) >= 0.0


def test_save_load_roundtrip(tmp_path):
    """load(save(g)) equals g in every column, also for an information
    matrix that is asymmetric inside add_edges' 1e-9 tolerance: it is
    stored as its symmetric part, which is what save() writes."""
    rng = np.random.default_rng(23)
    g, _ = random_chain_graph(rng, 9, n_absolute=3)
    info = np.diag([4.0, 3.0, 2.0])
    info[0, 1] = 1e-12
    g.add_edges([1], [2], [(1.0, 0.5, 0.25)], [info], EdgeKind.GNSS_ABSOLUTE)
    assert g.information[-1, 0, 1] == g.information[-1, 1, 0] == 5e-13
    path = tmp_path / "graph.txt"
    save(g, path)
    h = load(path)
    assert len(h.nodes) == len(g.nodes)
    assert len(h.edges) == len(g.edges)
    assert total_error(h) == pytest.approx(total_error(g), rel=1e-12)
    assert list(h.nodes) == list(g.nodes)
    for a, b in zip(g.edges, h.edges):
        assert a.kind is b.kind
        assert (a.from_id, a.to_id) == (b.from_id, b.to_id)
        assert np.array_equal(a.information, b.information)
    for table, again in ((g._nodes, h._nodes), (g._edges, h._edges)):
        assert again.size == table.size
        for name in table._buf:
            a, b = table.rows(name), again.rows(name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_save_format_is_line_oriented_text(tmp_path):
    g = PoseGraph()
    add_node(g, Pose2(0.0, 0.0, 0.0), fixed=True)
    add_node(g, Pose2(1.5, -2.25, 0.5))
    add_edge(g, Edge(0, 1, Pose2(1.5, -2.25, 0.5), np.diag([1.0, 2.0, 0.0]),
                     EdgeKind.GNSS_ABSOLUTE))
    path = tmp_path / "g.txt"
    save(g, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0].split() == ["VERTEX_SE2", "0", "0", "0", "0", "FIXED"]
    assert lines[1].split()[0] == "VERTEX_SE2"
    assert "FIXED" not in lines[1]
    tokens = lines[2].split()
    assert tokens[0] == "EDGE_SE2"
    assert len(tokens) == 13
    assert tokens[-1] == "GNSS_ABSOLUTE"
    assert float(tokens[3]) == 1.5


def test_save_uses_17_significant_digits(tmp_path):
    x = 1.0 / 3.0
    g = PoseGraph()
    add_node(g, Pose2(x, 0.0, 0.0), fixed=True)
    path = tmp_path / "g.txt"
    save(g, path)
    token = path.read_text().splitlines()[0].split()[2]
    assert float(token) == x


def test_load_remaps_arbitrary_vertex_ids(tmp_path):
    path = tmp_path / "weird.txt"
    path.write_text(
        "VERTEX_SE2 100 0 0 0 FIXED\n"
        "VERTEX_SE2 7 1 0 0\n"
        "VERTEX_SE2 42 2 0 0\n"
        "EDGE_SE2 100 7 1 0 0 1 0 0 1 0 1 ODOMETRY\n"
        "EDGE_SE2 7 42 1 0 0 1 0 0 1 0 1 ODOMETRY\n")
    g = load(path)
    assert [n.id for n in g.nodes] == [0, 1, 2]
    assert g.nodes[0].fixed
    assert g.nodes[0].pose.x == 0.0 and g.nodes[2].pose.x == 2.0
    assert (g.edges[0].from_id, g.edges[0].to_id) == (0, 1)
    assert (g.edges[1].from_id, g.edges[1].to_id) == (1, 2)
    assert total_error(g) < 1e-24


def test_load_reports_path_and_line_on_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0\n"
                    "VERTEX_SE2 1 1 0\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2:"):
        load(path)


def test_load_rejects_unknown_tag(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE3 0 0 0 0 0 0 0\n")
    with pytest.raises(ParseError, match=":1:"):
        load(path)


def test_load_rejects_duplicate_vertex_id(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 5 0 0 0\nVERTEX_SE2 5 1 0 0\n")
    with pytest.raises(ParseError, match="duplicate"):
        load(path)


def test_load_rejects_edge_to_undeclared_vertex(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0\n"
                    "VERTEX_SE2 1 1 0 0\n"
                    "EDGE_SE2 0 9 1 0 0 1 0 0 1 0 1 ODOMETRY\n")
    with pytest.raises(ParseError, match=":3:"):
        load(path)


def test_load_rejects_an_edge_with_the_wrong_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0\n"
                    "VERTEX_SE2 1 1 0 0\n"
                    "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1\n")
    with pytest.raises(ParseError, match=r"bad\.txt:3: bad field count"):
        load(path)


@pytest.mark.parametrize("edge, why", [
    ("EDGE_SE2 0 0 1 0 0 1 0 0 1 0 1 ODOMETRY", "self edge on node 0"),
    ("EDGE_SE2 0 1 1 0 0 1 0 0 -1 0 1 ODOMETRY", "negative diagonal"),
    ("EDGE_SE2 0 1 1 nan 0 1 0 0 1 0 1 ODOMETRY", "non-finite measurement"),
    ("EDGE_SE2 0 1 1 0 0 nan 0 0 1 0 1 ODOMETRY",
     "non-finite information entry"),
    ("EDGE_SE2 0 1 1 0 0 1 0 0 inf 0 1 ODOMETRY",
     "non-finite information entry"),
])
def test_load_names_the_line_of_an_invalid_edge(tmp_path, edge, why):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0 FIXED\n"
                    "VERTEX_SE2 1 1 0 0\n"
                    "\n"
                    f"{edge}\n")
    with pytest.raises(ParseError, match=rf"bad\.txt:4: {why}") as err:
        load(path)
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("vertex", ["VERTEX_SE2 1 nan 0 0",
                                    "VERTEX_SE2 1 1 -inf 0 FIXED"])
def test_load_names_the_line_of_a_non_finite_vertex(tmp_path, vertex):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0 FIXED\n"
                    f"{vertex}\n"
                    "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1 ODOMETRY\n")
    with pytest.raises(ParseError, match=r"bad\.txt:2: non-finite pose"):
        load(path)


def test_load_rejects_unknown_edge_kind(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("VERTEX_SE2 0 0 0 0\n"
                    "VERTEX_SE2 1 1 0 0\n"
                    "EDGE_SE2 0 1 1 0 0 1 0 0 1 0 1 TELEPATHY\n")
    with pytest.raises(ParseError, match=":3:"):
        load(path)


def _block_graph():
    g = PoseGraph()
    g.add_nodes([(0.0, 0.0, 0.0)], fixed=True)
    g.add_nodes([(1.0, 2.0, 0.5), (3.0, -1.0, 7.0), (4.0, 0.5, -math.pi)])
    g.add_edges([0, 1, 2], [1, 2, 3],
                [(1.0, 2.0, 0.5), (2.0, -3.0, 6.5), (1.0, 1.5, -4.0)],
                np.stack([np.diag([1.0, 2.0, 3.0])] * 3))
    return g


def test_block_adders_equal_one_row_adders():
    rng = np.random.default_rng(24)
    poses = rng.uniform(-20.0, 20.0, (30, 3))
    fixed = rng.random(30) < 0.3
    z = rng.uniform(-20.0, 20.0, (29, 3))
    info = np.stack([np.diag(d) for d in rng.uniform(0.0, 5.0, (29, 3))])
    info[:, 0, 1] = info[:, 1, 0] = 0.25
    block = PoseGraph()
    assert block.add_nodes(poses, fixed) == range(30)
    assert block.add_edges(range(29), range(1, 30), z, info,
                           EdgeKind.GNSS_ABSOLUTE) == range(29)
    rows = PoseGraph()
    for p, f in zip(poses, fixed):
        add_node(rows, Pose2(*p), bool(f))
    for k in range(29):
        add_edge(rows, Edge(k, k + 1, Pose2(*z[k]), info[k],
                            EdgeKind.GNSS_ABSOLUTE))
    for name in ("poses", "fixed", "from_ids", "to_ids", "measurements",
                 "information", "edge_kinds"):
        assert np.array_equal(getattr(block, name), getattr(rows, name)), \
            name
    # headings are wrapped as Pose2 wraps them
    assert block.poses[:, 2].tolist() == [Pose2(*p).theta for p in poses]
    assert block.measurements[:, 2].tolist() == [Pose2(*r).theta for r in z]


def test_block_adders_copy_their_inputs():
    poses = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    info = np.eye(3)[None].copy()
    z = np.array([[1.0, 0.0, 0.0]])
    g = PoseGraph()
    g.add_nodes(poses, fixed=[True, False])
    g.add_edges([0], [1], z, info)
    poses[1, 0] = info[0, 0, 0] = z[0, 0] = 777.0
    assert g.poses[1, 0] == 1.0
    assert g.information[0, 0, 0] == 1.0
    assert g.measurements[0, 0] == 1.0


def test_block_validation_matches_one_row_validation():
    """A bad row anywhere in a block raises what add_edge raises for it,
    and the block adds nothing."""
    good = np.eye(3)
    asym = np.eye(3)
    asym[0, 1] = 1e-6
    negative = np.diag([1.0, -1.0, 1.0])
    not_finite = np.eye(3)
    not_finite[1, 1] = math.nan
    origin = Pose2(0.0, 0.0, 0.0)
    cases = [((0, 9), origin, good), ((-1, 1), origin, good),
             ((2, 2), origin, good), ((0, 1), origin, np.eye(2)),
             ((0, 1), origin, asym), ((0, 1), origin, negative),
             ((0, 1), origin, not_finite),
             ((0, 1), Pose2(0.0, math.nan, 0.0), good)]
    for (i, j), z, bad in cases:
        one = _block_graph()
        with pytest.raises(ValueError) as want:
            add_edge(one, Edge(i, j, z, bad))
        # a stack of 3x3 matrices cannot hold one 2x2: all three are bad
        info = np.stack([good, good, bad] if bad.shape == (3, 3)
                        else [bad] * 3)
        g = _block_graph()
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            g.add_edges([0, 1, i], [1, 2, j],
                        [(0.0, 0.0, 0.0)] * 2 + [(z.x, z.y, z.theta)], info)
        assert len(g.edges) == len(one.edges) == 3
    # a non-finite pose raises the same as one row and in a block
    for pose in ((math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)):
        one = _block_graph()
        with pytest.raises(ValueError, match="^non-finite pose$"):
            one.add_nodes([pose])
        g = _block_graph()
        with pytest.raises(ValueError, match="^non-finite pose$"):
            g.add_nodes([(1.0, 1.0, 0.0), pose, (2.0, 2.0, 0.0)])
        assert len(g.poses) == len(one.poses) == 4
    # asymmetry below the tolerance is accepted, as one row and in a block
    near = np.eye(3)
    near[0, 1] = 1e-12
    g = _block_graph()
    g.add_edges([0, 1], [1, 2], np.zeros((2, 3)), np.stack([good, near]))
    with pytest.raises(ValueError):
        g.add_edges([0, 1], [1], np.zeros((2, 3)), np.stack([good] * 2))
    with pytest.raises(ValueError):
        g.add_nodes([(1.0, 2.0)])


def test_views_index_slice_and_iterate():
    g = _block_graph()
    assert len(g.nodes) == 4 and len(g.edges) == 3
    assert g.nodes[-1].id == 3 and g.nodes[-1] == g.nodes[3]
    assert g.nodes[0] == Node(0, Pose2(0.0, 0.0, 0.0), True)
    assert [n.id for n in g.nodes[1:]] == [1, 2, 3]
    assert [n.id for n in g.nodes[::-2]] == [3, 1]
    assert [n.id for n in g.nodes] == [0, 1, 2, 3]
    assert g.nodes[2].pose == Pose2(3.0, -1.0, 7.0)
    assert type(g.nodes[2].pose.x) is float
    e = g.edges[-2]
    assert (e.from_id, e.to_id, e.kind) == (1, 2, EdgeKind.ODOMETRY)
    assert e.measurement == Pose2(2.0, -3.0, 6.5)
    assert [e.to_id for e in g.edges[:2]] == [1, 2]
    with pytest.raises(IndexError):
        g.nodes[4]
    with pytest.raises(IndexError):
        g.edges[-4]
    # views follow the graph as it grows
    nodes = g.nodes
    add_node(g, Pose2(9.0, 9.0, 0.0))
    assert len(nodes) == 5 and nodes[-1].pose.x == 9.0


def test_writes_through_views_raise():
    g = _block_graph()
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes[1].pose = Pose2(5.0, 5.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.nodes[1].fixed = True
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges[0].measurement = Pose2(5.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        g.edges[0].information[0, 0] = 5.0
    with pytest.raises(TypeError):
        g.nodes[1] = g.nodes[2]
    with pytest.raises(AttributeError):
        g.nodes = []
    with pytest.raises(AttributeError):
        g.poses = np.zeros((4, 3))
    assert g.nodes[1].pose == Pose2(1.0, 2.0, 0.5) and not g.nodes[1].fixed
    assert g.information[0, 0, 0] == 1.0


def test_array_writes_show_in_the_views():
    g = _block_graph()
    g.poses[1] = (5.0, 6.0, 0.25)
    g.fixed[2] = True
    g.information[1, 2, 2] = 9.0
    assert g.nodes[1].pose == Pose2(5.0, 6.0, 0.25)
    assert g.nodes[2].fixed
    assert g.edges[1].information[2, 2] == 9.0
