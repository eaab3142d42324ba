"""CSV ingestion, experiment orchestration and result export."""

import csv
import dataclasses
import math
import os

import numpy as np
import pytest

from helpers import loop_match_pps, oracle_csv, rotate_dataset, \
    total_error, utm_krueger
from se2fusion import dataset as dataset_module
from se2fusion import solver as solver_module
from se2fusion.builders import Strategy, vehicle_trajectory
from se2fusion.dataset import GNSS_UTM_HEADER, ODO_HEADER, TRUTH_HEADER, \
    Dataset, ExperimentConfig, export_results, load_dataset, \
    render_metrics_record, render_table, run_batch, run_experiment, \
    write_dataset
from se2fusion.errors import EmptyInputError, MixedUtmZonesError, \
    NeedTwoPosesError, NonMonotonicTimestampsError, OutOfUtmDomainError, \
    ParseError
from se2fusion.graph import EDGE_KINDS, EdgeKind
from se2fusion.graph import load as load_graph
from se2fusion.metrics import MetricsReport, compute_metrics, match_pps
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic


def _write(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return str(path)


def _odo_csv(tmp_path, n=100, v=10.0):
    rows = [(0.04 * k, 0.0, v) for k in range(n)]
    return _write(tmp_path / "odo.csv", "t,yaw_rate,velocity", rows)


def test_load_utm_schema(tmp_path):
    gnss = _write(tmp_path / "run1.csv",
                  "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 1000.0, 2000.0, "32N", 2.0, 3.0, 4.0),
                   (1.0, 1010.0, 2000.5, "32N", 2.5, 3.5, 4.5),
                   (2.0, 1020.0, 2001.0, "32N", 2.0, 3.0, 4.0)])
    ds = load_dataset(gnss, _odo_csv(tmp_path))
    assert ds.name == "run1"
    assert len(ds.gnss) == 3
    assert ds.frame_origin == (1000.0, 2000.0)
    assert np.allclose(ds.gnss[0].position, (0.0, 0.0))
    assert np.allclose(ds.gnss[1].position, (10.0, 0.5))
    assert ds.gnss[1].epx == 2.5
    assert ds.gnss[1].epy == 3.5
    assert ds.gnss[1].epv == 4.5
    assert ds.truth is None


def test_geo_and_utm_inputs_agree(tmp_path):
    lats = [48.10 + 2e-5 * k for k in range(5)]
    lons = [11.60 + 3e-5 * k for k in range(5)]
    geo = _write(tmp_path / "geo.csv", "t,lat,lon,epx,epy,epv",
                 [(float(k), lats[k], lons[k], 2.0, 2.0, 3.0)
                  for k in range(5)])
    utm_rows = []
    for k in range(5):
        e, n = utm_krueger(lats[k], lons[k])
        utm_rows.append((float(k), e, n, "32N", 2.0, 2.0, 3.0))
    utm = _write(tmp_path / "utm.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                 utm_rows)
    odo = _odo_csv(tmp_path, n=120, v=2.0)
    a = load_dataset(geo, odo)
    b = load_dataset(utm, odo)
    for ra, rb in zip(a.gnss, b.gnss):
        assert np.allclose(ra.position, rb.position, atol=0.01)


def test_gnss_out_of_order_names_the_line(tmp_path):
    gnss = _write(tmp_path / "bad.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (2.0, 1.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 2.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    with pytest.raises(NonMonotonicTimestampsError, match="line 4"):
        load_dataset(gnss, _odo_csv(tmp_path))

    # blank lines 2 and 3 push the rows to lines 4-6; the repeat on line 6
    # is named by its own line, not by its place among the rows
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("t,utm_x,utm_y,zone,epx,epy,epv\n\n\n"
                      "0.0,0.0,0.0,32N,2.0,2.0,2.0\n"
                      "1.0,1.0,0.0,32N,2.0,2.0,2.0\n"
                      "1.0,2.0,0.0,32N,2.0,2.0,2.0\n")
    with pytest.raises(NonMonotonicTimestampsError, match=r"line 6\b"):
        load_dataset(str(spaced), _odo_csv(tmp_path))
    good = _write(tmp_path / "good.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 1.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    odo = tmp_path / "spaced_odo.csv"
    odo.write_text("t,yaw_rate,velocity\n\n\n"
                   "0.0,0.0,1.0\n0.04,0.0,1.0\n0.04,0.0,1.0\n")
    with pytest.raises(NonMonotonicTimestampsError, match=r"line 6\b"):
        load_dataset(good, str(odo))
    truth = tmp_path / "spaced_truth.csv"
    truth.write_text("t,utm_x,utm_y\n\n\n0.0,0.0,0.0\n1.0,1.0,0.0\n"
                     "1.0,2.0,0.0\n")
    with pytest.raises(NonMonotonicTimestampsError,
                       match=r"spaced_truth\.csv: .*line 6\b"):
        load_dataset(good, _odo_csv(tmp_path), str(truth))


def test_parse_errors_carry_position(tmp_path):
    p = _write(tmp_path / "short.csv", "t,yaw_rate,velocity",
               [(0.0, 0.0, 1.0), (0.04, 0.0)])
    gnss = _write(tmp_path / "g.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 1.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    with pytest.raises(ParseError, match=r"short\.csv:3:"):
        load_dataset(gnss, p)

    bad_header = _write(tmp_path / "h.csv", "time,lat,lon,epx,epy,epv",
                        [(0.0, 48.0, 11.0, 2.0, 2.0, 2.0)])
    with pytest.raises(ParseError,
                       match=r"h\.csv:1: expected header t,lat,lon,epx,epy,"
                             r"epv or t,utm_x,utm_y,zone,epx,epy,epv, got "
                             r"time,lat,lon"):
        load_dataset(bad_header, _odo_csv(tmp_path))

    nonnum = _write(tmp_path / "n.csv", "t,yaw_rate,velocity",
                    [(0.0, 0.0, 1.0), (0.04, "fast", 1.0)])
    with pytest.raises(ParseError, match=r"n\.csv:3:"):
        load_dataset(gnss, nonnum)

    empty = str(tmp_path / "e.csv")
    open(empty, "w").close()
    with pytest.raises(ParseError, match=r"e\.csv:1:"):
        load_dataset(gnss, empty)


def test_header_only_files_rejected(tmp_path):
    gnss = _write(tmp_path / "g.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    no_fixes = _write(tmp_path / "hg.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                      [])
    with pytest.raises(ParseError, match=r"hg\.csv: no GNSS readings"):
        load_dataset(no_fixes, _odo_csv(tmp_path))
    no_samples = _write(tmp_path / "ho.csv", "t,yaw_rate,velocity", [])
    with pytest.raises(ParseError, match=r"ho\.csv: no odometry samples"):
        load_dataset(gnss, no_samples)


def test_non_numeric_gnss_field_names_the_line(tmp_path):
    gnss = _write(tmp_path / "ng.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, "east", 0.0, "32N", 2.0, 2.0, 2.0)])
    with pytest.raises(ParseError, match=r"ng\.csv:3: non-numeric field"):
        load_dataset(gnss, _odo_csv(tmp_path))


GOOD_UTM = ("t,utm_x,utm_y,zone,epx,epy,epv", "0,0,0,32N,2,2,2")
GOOD_GEO = ("t,lat,lon,epx,epy,epv", "0,48.1,11.6,2,2,2")


@pytest.mark.parametrize("kind, bad_row, why, cause", [
    ("gnss", GOOD_UTM + ("1,1,0,32N,0,2,2",),
     "epx and epy must be positive", ValueError),
    ("gnss", GOOD_GEO + ("1,85,11.6,2,2,2",),
     "latitude 85 outside the UTM domain", OutOfUtmDomainError),
    ("gnss", GOOD_UTM + ("nan,1,0,32N,2,2,2",), "non-finite t", None),
    ("odo", ("t,yaw_rate,velocity", "0,0,1", "0.04,0,nan"),
     "non-finite velocity", None),
    ("truth", ("t,utm_x,utm_y", "0,0,0", "1,inf,0"),
     "non-finite utm_x", None),
])
def test_bad_row_names_its_line(tmp_path, kind, bad_row, why, cause):
    """Every row the loader cannot use stops it with a ParseError that
    names the row's line, chained from the error the row raised."""
    paths = {"gnss": tmp_path / "g.csv", "odo": tmp_path / "o.csv",
             "truth": tmp_path / "t.csv"}
    paths["gnss"].write_text("\n".join(GOOD_UTM + ("1,1,0,32N,2,2,2",))
                             + "\n")
    paths["odo"].write_text(
        "t,yaw_rate,velocity\n"
        + "".join(f"{0.04 * k:g},0,1\n" for k in range(40)))
    paths["truth"].write_text("t,utm_x,utm_y\n0,0,0\n1,1,0\n")
    paths[kind].write_text("\n".join(bad_row) + "\n")
    with pytest.raises(ParseError,
                       match=rf"{paths[kind].name}:3: {why}") as err:
        load_dataset(*(str(paths[k]) for k in ("gnss", "odo", "truth")))
    if cause is None:
        assert err.value.__cause__ is None
    else:
        assert type(err.value.__cause__) is cause


def test_mixed_zones_rejected(tmp_path):
    gnss = _write(tmp_path / "mz.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 1.0, 0.0, "33N", 2.0, 2.0, 2.0)])
    with pytest.raises(MixedUtmZonesError):
        load_dataset(gnss, _odo_csv(tmp_path))
    geo = _write(tmp_path / "mzg.csv", "t,lat,lon,epx,epy,epv",
                 [(0.0, 48.0, 11.9, 2.0, 2.0, 2.0),
                  (1.0, 48.0, 12.1, 2.0, 2.0, 2.0)])
    with pytest.raises(MixedUtmZonesError):
        load_dataset(geo, _odo_csv(tmp_path))


def test_truth_track_in_local_frame(tmp_path):
    gnss = _write(tmp_path / "g.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 500.0, 700.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 510.0, 700.0, "32N", 2.0, 2.0, 2.0)])
    truth = _write(tmp_path / "t.csv", "t,utm_x,utm_y",
                   [(0.0, 500.5, 700.5), (1.0, 510.5, 700.5)])
    ds = load_dataset(gnss, _odo_csv(tmp_path), truth)
    assert np.allclose(ds.truth.positions[0], (0.5, 0.5))
    assert np.allclose(ds.truth.positions[1], (10.5, 0.5))
    assert list(ds.truth.timestamps) == [0.0, 1.0]


@pytest.mark.parametrize("last, error, message", [
    ("0.08,0,x", ParseError, "ql.csv:5: non-numeric field"),
    ("0.04,0,1", NonMonotonicTimestampsError,
     "ql.csv: timestamp at data line 5 not increasing"),
])
def test_a_quoted_newline_does_not_shift_line_numbers(tmp_path, last, error,
                                                      message):
    """A record whose quoted field holds a newline spans two lines; the
    rows after it are named by their line in the file."""
    gnss = tmp_path / "g.csv"
    gnss.write_text("\n".join(GOOD_UTM + ("1,1,0,32N,2,2,2",)) + "\n")
    odo = tmp_path / "ql.csv"
    odo.write_text(f't,yaw_rate,velocity\n"0\n",0,1\n0.04,0,1\n{last}\n')
    with pytest.raises(error, match=message):
        load_dataset(str(gnss), str(odo))


def test_odometry_must_be_monotonic(tmp_path):
    gnss = _write(tmp_path / "g.csv", "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 1.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    odo = _write(tmp_path / "o.csv", "t,yaw_rate,velocity",
                 [(0.0, 0.0, 1.0), (0.04, 0.0, 1.0), (0.04, 0.0, 1.0)])
    with pytest.raises(NonMonotonicTimestampsError):
        load_dataset(gnss, odo)


def _row_loop(path, header):
    """The loader's row-by-row reading: the reference the one-pass parse
    of an odometry or truth file must agree with."""
    _, rows = dataset_module._read_rows(path, header)
    values = dataset_module._numbers(path, rows, header)
    dataset_module._check_increasing(path, values[:, 0],
                                     [lineno for _, lineno in rows])
    return values


def _outcome(load, path, header):
    try:
        values = load(path, header)
    except (ParseError, NonMonotonicTimestampsError) as exc:
        return type(exc), str(exc)
    return values.shape, values.tobytes()


_SEVENTEEN = "".join(f"{0.04 * k:.17g},{math.sin(k) / 3.0:.17g},"
                     f"{10.0 + math.cos(k) * 1e-7:.17g}\n" for k in range(50))


@pytest.mark.parametrize("body, expect", [
    ("0,0,1\r\n0.04,0,1\r\n", "ok"),
    ("0,0,1\r\n\r\n0.04,0,1\r\n", "ok"),
    ("0,0,1\r0.04,0,1\r", "ok"),
    ("0,0,1\n0.04,0,1", "ok"),
    ("0,0,1\n\n0.04,0,1\n", "ok"),
    ("0,0,1\n  \t\n0.04,0,1\n", "ok"),
    ("\t0,0,1\n0.04,+1,1\n", "ok"),
    ("0,0,1\n0.04,0,1e-400\n0.08,-0,4.9e-324\n", "ok"),
    ("0,0,1\x0c\n0.04,0,1\n", "ok"),
    ("0,0,1_0\n0.04,0,1\n", "ok"),
    ("0,0,\x1c1\n0.04,0,1\n", ParseError),
    ("0,0,1\n0.04,0,1,\n", ParseError),
    ('0,0,1\n0.04,"0",1\n', "ok"),
    ("0,0,1\n# c\n0.04,0,1\n", ParseError),
    ("0,0,1\n0.04,,1\n", ParseError),
    ("0,nan,1\n0.04,0,1\n", ParseError),
    ("0,0,1\n0.04,0,inf\n", ParseError),
    ("", "ok"),
    ("\n\n", "ok"),
    ("0,0\n0.04,0\n", ParseError),
    ("0,0,1\n\n0.04,0,1\n0.04,0,1\n", NonMonotonicTimestampsError),
    ("0,0,1\n0.04,0,1\n0.02,0,1\n", NonMonotonicTimestampsError),
    ("0,0,1\n", "ok"),
    (_SEVENTEEN, "ok"),
])
@pytest.mark.parametrize("header", ["odo", "truth"])
def test_one_pass_parse_matches_the_row_loop(tmp_path, body, expect, header):
    """Whatever a file holds, the numeric loader returns the row loop's
    array bit for bit, or raises its exception with its text."""
    header = {"odo": dataset_module.ODO_HEADER,
              "truth": dataset_module.TRUTH_HEADER}[header]
    path = tmp_path / "f.csv"
    newline = "\r\n" if body.startswith("0,0,1\r\n") else "\n"
    path.write_bytes((",".join(header) + newline + body).encode())
    got = _outcome(dataset_module._load_numeric, str(path), header)
    assert got == _outcome(_row_loop, str(path), header)
    if expect == "ok":
        assert got[0] in ((0, 3), (body.count(",") // 2, 3))
    else:
        assert got[0] is expect


def test_well_formed_numeric_files_skip_the_row_loop(tmp_path, monkeypatch):
    """Odometry and truth files as the benchmark writes them are parsed in
    the one pass: a silent fall back to the row loop would keep every
    result and lose the speed."""
    ds = generate_synthetic(4, TrajectoryProfile.URBAN_LOOP,
                            odo_error=OdoErrorModel(drift_fraction=0.011),
                            duration=120.0)
    s = ds.odometry
    files = {
        dataset_module.ODO_HEADER: np.column_stack(
            (s.timestamps, s.yaw_rates, s.velocities)),
        dataset_module.TRUTH_HEADER: np.column_stack(
            (ds.truth.timestamps, ds.truth.positions)),
    }

    def no_row_loop(*args):
        raise AssertionError("a well-formed file reached the row loop")

    monkeypatch.setattr(dataset_module, "_read_rows", no_row_loop)
    for header, want in files.items():
        path = tmp_path / f"{header[1]}.csv"
        path.write_text(",".join(header) + "\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n"
            for row in want.tolist()))
        got = dataset_module._load_numeric(str(path), header)
        assert got.tobytes() == want.tobytes()


def test_explicit_name_override(tmp_path):
    gnss = _write(tmp_path / "whatever.csv",
                  "t,utm_x,utm_y,zone,epx,epy,epv",
                  [(0.0, 0.0, 0.0, "32N", 2.0, 2.0, 2.0),
                   (1.0, 1.0, 0.0, "32N", 2.0, 2.0, 2.0)])
    ds = load_dataset(gnss, _odo_csv(tmp_path), name="monday")
    assert ds.name == "monday"


def test_noise_free_experiment_recovers_truth():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=60.0)
    cfg = ExperimentConfig(strategy=Strategy.G1)
    trajectory, fused, raw, solve = run_experiment(ds, cfg)
    assert solve.converged
    for (t, pose), tru in zip(trajectory, ds.truth.positions):
        assert abs(pose.x - tru[0]) < 1e-6
        assert abs(pose.y - tru[1]) < 1e-6
    assert fused.max_offset < 1e-6
    assert raw.max_offset == 0.0
    # perfect raw GNSS leaves the improvement percentages undefined
    assert fused.improvement_vs_gnss is None


def test_bias_survives_but_dispersion_shrinks():
    b = 0.7 / math.sqrt(2.0)
    g = GnssErrorModel(bias=(b, b), ar1_rho=0.95, ar1_sigma=1.625)
    o = OdoErrorModel(drift_fraction=0.011)
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, g, o,
                            duration=600.0)
    cfg = ExperimentConfig(strategy=Strategy.G1, outlier_rejection=False)
    _, fused, raw, solve = run_experiment(ds, cfg)
    assert solve.converged
    # fusion smooths the noise but cannot observe the constant offset
    assert abs(fused.accuracy - raw.accuracy) < 0.05
    assert fused.precision < raw.precision


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("profile", list(TrajectoryProfile))
def test_a_rotated_map_frame_moves_no_metric(profile, strategy):
    """Fixes and truth turned about the origin, odometry as it was: the
    same drive in a map frame that points elsewhere.  A fix's position
    residual must weigh the same whichever way the vehicle heads, so the
    fused track turns with the frame and every metric stays."""
    g = GnssErrorModel(bias=(0.3, 0.2), ar1_rho=0.95, ar1_sigma=1.625)
    o = OdoErrorModel(drift_fraction=0.011)
    cfg = ExperimentConfig(strategy=strategy, outlier_rejection=False)
    for seed in (0, 2):
        ds = generate_synthetic(seed, profile, g, o, duration=600.0)
        _, want, _, _ = run_experiment(ds, cfg)
        for angle in (math.pi / 2.0, math.pi - 0.05, -2.0):
            _, got, _, solve = run_experiment(rotate_dataset(ds, angle),
                                              cfg)
            assert solve.converged
            for name in ("accuracy", "precision", "max_offset"):
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), abs=1e-6), (seed, angle, name)


def test_rejection_strictly_helps_on_corrupted_data():
    g = GnssErrorModel(bias=(0.2, 0.1), ar1_rho=0.95, ar1_sigma=0.3,
                       outlier_rate=0.1, outlier_magnitude=50.0)
    o = OdoErrorModel(drift_fraction=0.011)

    def run(reject):
        ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, g, o,
                                duration=300.0)
        cfg = ExperimentConfig(strategy=Strategy.G2,
                               outlier_rejection=reject)
        return run_experiment(ds, cfg)

    _, on, raw_on, _ = run(True)
    _, off, _, _ = run(False)
    assert on.max_offset < off.max_offset
    assert on.precision < off.precision
    assert on.rejection_rate > 0.0
    assert raw_on.rejection_rate == 0.0


def test_keep_graph_returns_the_graph():
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    out = run_experiment(ds, ExperimentConfig(strategy=Strategy.G1),
                         keep_graph=True)
    assert len(out) == 5
    graph = out[4]
    assert len(graph.nodes) == 31


def _drive_set():
    """Drives of 120 s on the three profiles, seed 1, sigma 1.625 m, rho
    0.95, bias (0.3, 0.2) m, drift 0.011."""
    return [generate_synthetic(1, profile,
                               GnssErrorModel((0.3, 0.2), 0.95, 1.625),
                               OdoErrorModel(0.011), duration=120.0)
            for profile in TrajectoryProfile]


def test_g3_fuses_as_g1_bit_for_bit():
    """A G3 identity edge from a fixed node at (z, 0) has the residual of
    G1's fix edge from the origin with measurement z, so the two solves
    are one solve."""
    for ds in _drive_set():
        for screen in (True, False):
            (t1, _, _, r1), (t3, _, _, r3) = (
                run_experiment(ds, ExperimentConfig(
                    strategy=strategy, outlier_rejection=screen))
                for strategy in (Strategy.G1, Strategy.G3))
            assert (r1.iterations, r1.initial_error, r1.final_error) == \
                (r3.iterations, r3.initial_error, r3.final_error)
            assert t1 == t3


def test_a_g2_run_solves_its_reduction_and_keeps_the_g2_graph(monkeypatch):
    packed = solver_module._PackedGraph
    solved = []

    def spy(graph):
        solved.append(graph)
        return packed(graph)

    monkeypatch.setattr(solver_module, "_PackedGraph", spy)
    tie = EDGE_KINDS.index(EdgeKind.VIRTUAL_IDENTITY)
    for ds in _drive_set():
        for screen in (True, False):
            trajectory, _, _, report, graph = run_experiment(
                ds, ExperimentConfig(strategy=Strategy.G2,
                                     outlier_rejection=screen),
                keep_graph=True)
            assert tie not in solved[-1].edge_kinds
            assert report.final_error == pytest.approx(
                total_error(solved[-1]), rel=1e-12)
            # the kept graph is G2's, moved onto the reduced solve
            assert tie in graph.edge_kinds
            assert np.array_equal(
                graph.poses[np.r_[0, 1:len(graph.poses):2]],
                solved[-1].poses)
            assert [p for _, p in trajectory] == vehicle_trajectory(graph)
    assert len(solved) == 6


def _no_work(monkeypatch):
    def screen_and_build(*args):
        raise AssertionError("the run screened and built the graph")

    monkeypatch.setattr(dataset_module, "_screen_and_build", screen_and_build)


@pytest.mark.parametrize("shift, keep, error, matched", [
    (0.5, slice(None), EmptyInputError, "0 of 30 GNSS fixes"),
    (0.0, slice(3, 4), NeedTwoPosesError, "1 of 30 GNSS fixes"),
])
def test_truth_missing_the_fixes_stops_before_any_work(
        monkeypatch, shift, keep, error, matched):
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    ds.truth = dataset_module.TruthTrack(ds.truth.timestamps[keep] + shift,
                                         ds.truth.positions[keep])
    _no_work(monkeypatch)
    with pytest.raises(error, match=f"'straight-s0': {matched} match a "
                       r"truth sample within PPS_MATCH_TOLERANCE_S = 0\.05"):
        run_experiment(ds)


def test_fused_track_missing_the_truth_raises_after_the_solve(monkeypatch):
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    screen_and_build = dataset_module._screen_and_build

    def late_nodes(*args):
        rate, graph, times = screen_and_build(*args)
        return rate, graph, [t + 0.5 for t in times]

    monkeypatch.setattr(dataset_module, "_screen_and_build", late_nodes)
    with pytest.raises(EmptyInputError,
                       match="'straight-s0': 0 of 30 fused poses match"):
        run_experiment(ds)


def test_export_roundtrip(tmp_path):
    g = GnssErrorModel(bias=(0.1, 0.0), ar1_rho=0.9, ar1_sigma=0.8)
    ds = generate_synthetic(1, TrajectoryProfile.STRAIGHT, g,
                            duration=60.0)
    cfg = ExperimentConfig(strategy=Strategy.G1, outlier_rejection=False)
    trajectory, fused, raw, solve, graph = run_experiment(ds, cfg,
                                                          keep_graph=True)
    out = tmp_path / "out"
    written = export_results(trajectory, fused, raw, solve, str(out), ds,
                             graph=graph)
    names = [os.path.basename(p) for p in written]
    assert names == [f"{ds.name}_fused.csv", f"{ds.name}_metrics.txt",
                     f"{ds.name}_scatter.csv", f"{ds.name}_graph.txt"]

    with open(written[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "theta"]
    est_t = [float(r[0]) for r in rows[1:]]
    est_xy = [(float(r[1]), float(r[2])) for r in rows[1:]]
    # 17 significant digits survive the text roundtrip bit-exactly
    assert est_xy[5][0] == trajectory[5][1].x
    pairs, _ = match_pps(est_t, est_xy, ds.truth.timestamps,
                         ds.truth.positions)
    rescored = compute_metrics(pairs)
    assert rescored.max_offset == pytest.approx(fused.max_offset, abs=1e-12)
    assert rescored.accuracy == pytest.approx(fused.accuracy, abs=1e-12)
    assert rescored.precision == pytest.approx(fused.precision, abs=1e-12)

    with open(written[2], newline="") as fh:
        scatter = list(csv.reader(fh))
    assert scatter[0] == ["t", "err_x", "err_y"]
    assert len(scatter) - 1 == fused.n

    reloaded = load_graph(written[3])
    assert len(reloaded.nodes) == len(graph.nodes)
    assert len(reloaded.edges) == len(graph.edges)


def test_a_report_without_offsets_writes_no_scatter(tmp_path):
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    trajectory, fused, raw, solve = run_experiment(ds, ExperimentConfig())
    # only the fused report keeps the rows its scatter is written from
    assert fused.offsets.shape == (fused.n, 3) and raw.offsets is None
    by_hand = dataclasses.replace(fused, offsets=None)
    written = export_results(trajectory, by_hand, raw, solve,
                             str(tmp_path), ds)
    names = [f"{ds.name}_fused.csv", f"{ds.name}_metrics.txt"]
    assert [os.path.basename(p) for p in written] == names
    assert sorted(os.listdir(tmp_path)) == names


def test_export_refuses_empty_trajectory(tmp_path):
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    out = tmp_path / "nothing"
    with pytest.raises(EmptyInputError):
        export_results([], None, None, None, str(out), ds)
    assert not out.exists()


def test_metrics_record_content():
    fused = MetricsReport(max_offset=1.5, accuracy=0.25, precision=0.75,
                          mean_offset=(0.2, 0.1), n=40, rejection_rate=5.0,
                          improvement_vs_gnss=(10.0, 0.5, 30.0))
    raw = MetricsReport(max_offset=2.0, accuracy=0.26, precision=1.0,
                        mean_offset=(0.2, 0.1), n=40, rejection_rate=0.0)
    text = render_metrics_record("demo", fused, raw, None)
    assert "dataset: demo" in text
    assert "fused.max_offset: 1.5" in text
    assert "gnss.precision: 1" in text
    assert "improvement.precision: 30" in text
    assert "fused.rejection_rate: 5" in text
    # the table rounds to 3 decimals
    assert "0.750" in text and "Prec [m]" in text


def test_render_table_layout():
    text = render_table(["row", "A"], [["x", 1.23456], ["longer", 2.0]])
    lines = text.split("\n")
    assert lines[0].endswith("A")
    assert set(lines[1]) <= {"-", " "}
    assert "1.235" in lines[2]
    assert "2.000" in lines[3]
    widths = [len(s) for s in lines]
    assert len(set(widths)) == 1


def test_run_batch_record_and_averages():
    datasets = [generate_synthetic(s, TrajectoryProfile.STRAIGHT,
                                   GnssErrorModel(ar1_rho=0.9,
                                                  ar1_sigma=1.0),
                                   duration=60.0, name=f"d{s}")
                for s in (0, 1)]
    record, table = run_batch(datasets, strategies=(Strategy.G1,),
                              rejections=(False,))
    values = {}
    for line in record.strip().split("\n"):
        key, val = line.split(": ")
        values[key] = val
    for metric in ("max_offset", "accuracy", "precision"):
        a = float(values[f"g1.off.d0.{metric}"])
        b = float(values[f"g1.off.d1.{metric}"])
        avg = float(values[f"g1.off.Average.{metric}"])
        assert avg == pytest.approx((a + b) / 2.0, abs=1e-12)
    assert values["g1.off.d0.converged"] == "True"
    assert "Average" in table
    assert "Improvement w.r.t. GNSS (%)" in table

    # the whole batch is deterministic, byte for byte
    record2, table2 = run_batch(datasets, strategies=(Strategy.G1,),
                                rejections=(False,))
    assert record2 == record
    assert table2 == table


def test_run_batch_checks_every_dataset_before_running_any(monkeypatch):
    with pytest.raises(EmptyInputError):
        run_batch([])
    scored = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                                duration=30.0, name="scored")
    unscored = dataclasses.replace(scored, name="unscored", truth=None)

    def no_run(*args, **kwargs):
        raise AssertionError("an experiment ran before the check")

    monkeypatch.setattr(dataset_module, "run_experiment", no_run)
    with pytest.raises(ValueError, match="'unscored' has no ground truth"):
        run_batch([scored, unscored])


def test_run_batch_tags_by_the_config_strategy():
    """A strategy given by its value is tagged like its member."""
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=20.0)
    by_value = run_batch([ds], strategies=("g1",), rejections=(False,))
    assert by_value == run_batch([ds], strategies=(Strategy.G1,),
                                 rejections=(False,))
    assert "g1.off.straight-s0.precision: " in by_value[0]
    assert by_value[1].startswith("strategy=g1 rejection=off\n")


@pytest.mark.parametrize("edit, error, why", [
    (lambda t, p: (t[:, None], p), ValueError, "finite 1-d"),
    (lambda t, p: (np.where(t == 5.0, np.nan, t), p), ValueError,
     "finite 1-d"),
    (lambda t, p: (t[::-1], p[::-1]), NonMonotonicTimestampsError,
     "strictly increasing"),
    (lambda t, p: (np.where(t == 5.0, 4.0, t), p),
     NonMonotonicTimestampsError, "strictly increasing"),
    (lambda t, p: (t, p[:-3]), ValueError, r"shape \(20, 2\), got \(17, 2\)"),
    (lambda t, p: (t, p[:, :1]), ValueError, r"shape \(20, 2\)"),
    (lambda t, p: (t, np.vstack([p[:4], [np.inf, 0.0], p[5:]])),
     ValueError, "positions must be finite"),
])
def test_truth_track_rejects_unusable_arrays(edit, error, why):
    """A truth track that could only fail later, inside the PPS matcher or
    as a count of unmatched fixes, is refused where it is made."""
    truth = generate_synthetic(0, TrajectoryProfile.STRAIGHT,
                               duration=20.0).truth
    with pytest.raises(error, match=why):
        dataset_module.TruthTrack(*edit(truth.timestamps, truth.positions))


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_written_csvs_equal_the_field_by_field_oracle(tmp_path):
    """write_dataset and export_results write the bytes of a CSV built
    one field at a time with format(v, '.17g')."""
    ds = generate_synthetic(5, TrajectoryProfile.URBAN_LOOP,
                            GnssErrorModel(outlier_rate=0.1,
                                           outlier_magnitude=30.0),
                            OdoErrorModel(), duration=60.0)
    paths = write_dataset(ds, str(tmp_path / "data"))
    assert [os.path.basename(p) for p in paths] == [
        f"{ds.name}_{kind}.csv" for kind in ("gnss", "odo", "truth")]
    s = ds.odometry
    want = [
        oracle_csv(GNSS_UTM_HEADER, [
            (r.timestamp, *r.position, "local", r.epx, r.epy, r.epv)
            for r in ds.gnss]),
        oracle_csv(ODO_HEADER, zip(s.timestamps, s.yaw_rates,
                                   s.velocities)),
        oracle_csv(TRUTH_HEADER, [(t, *p) for t, p in
                                  zip(ds.truth.timestamps,
                                      ds.truth.positions)])]
    for path, text in zip(paths, want):
        assert _read_bytes(path) == text.encode()

    trajectory, fused, raw, solve = run_experiment(ds, ExperimentConfig())
    fused_path, _, scatter_path = export_results(
        trajectory, fused, raw, solve, str(tmp_path / "out"), ds)
    assert _read_bytes(fused_path) == oracle_csv(
        ("t", "x", "y", "theta"),
        [(t, p.x, p.y, p.theta) for t, p in trajectory]).encode()
    pairs, _ = loop_match_pps([t for t, _ in trajectory],
                              [(p.x, p.y) for _, p in trajectory],
                              ds.truth.timestamps, ds.truth.positions)
    assert _read_bytes(scatter_path) == oracle_csv(
        ("t", "err_x", "err_y"),
        [(t, ex - tx, ey - ty) for t, ex, ey, tx, ty in pairs]).encode()


_SPECIAL_DOUBLES = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                    2.225073858507201e-308, 1e300, -1e300, 0.1, 1.0 / 3.0,
                    float(2**53 + 2), float(2**53) + 1.0, 1.0, -7.0, 1e16,
                    1e17, 123456789.0, math.pi, float("inf"),
                    float("-inf"), float("nan"))


def test_the_writer_formats_special_doubles_like_the_oracle(tmp_path):
    values = np.array(_SPECIAL_DOUBLES)
    # six numeric columns around the GNSS schema's literal zone column
    rows = np.column_stack([np.roll(values, k) for k in range(6)])
    path = tmp_path / "special.csv"
    dataset_module._write_csv(str(path), GNSS_UTM_HEADER, rows)
    assert _read_bytes(path) == oracle_csv(
        GNSS_UTM_HEADER,
        [(*row[:3], "local", *row[3:]) for row in rows.tolist()]).encode()
    dataset_module._write_csv(str(path), ODO_HEADER, np.zeros((0, 3)))
    assert _read_bytes(path) == b"t,yaw_rate,velocity\n"


def test_write_dataset_then_load_round_trips_bit_exactly(tmp_path):
    """Every value reads back as the double that was written; the loader
    then moves positions into the frame of the first fix, as always."""
    ds = generate_synthetic(8, TrajectoryProfile.HIGHWAY, GnssErrorModel(),
                            OdoErrorModel(), duration=60.0)
    # any epv a reading takes, so the loader never refuses a written file
    for r, epv in zip(ds.gnss, (0.0, -3.0, 1e300, 5e-324)):
        r.epv = epv
    back = load_dataset(*write_dataset(ds, str(tmp_path)))
    origin = ds.gnss[0].position
    assert back.frame_origin == tuple(origin.tolist())

    def bits(*arrays):
        return [np.asarray(a, dtype=float).tobytes() for a in arrays]

    assert bits(*[[r.timestamp, *(r.position - origin), r.epx, r.epy, r.epv]
                  for r in ds.gnss]) == \
        bits(*[[r.timestamp, *r.position, r.epx, r.epy, r.epv]
               for r in back.gnss])
    a, b = ds.odometry, back.odometry
    assert bits(a.timestamps, a.yaw_rates, a.velocities) == \
        bits(b.timestamps, b.yaw_rates, b.velocities)
    assert bits(ds.truth.timestamps, ds.truth.positions - origin) == \
        bits(back.truth.timestamps, back.truth.positions)
