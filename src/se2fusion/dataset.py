"""Dataset ingestion, experiment orchestration and result export.

CSV schemas (headers mandatory; the *_HEADER constants are the one
definition, shared by the loader and the CLI's writer):

* GNSS, geographic:   t,lat,lon,epx,epy,epv           (GNSS_GEO_HEADER)
* GNSS, pre-projected: t,utm_x,utm_y,zone,epx,epy,epv (GNSS_UTM_HEADER)
* odometry:           t,yaw_rate,velocity             (ODO_HEADER)
* ground truth:       t,utm_x,utm_y                   (TRUTH_HEADER)

A GNSS file's header picks its schema.  ExperimentConfig extends
BuilderConfig, which owns the graph settings, their defaults and checks.

On load the first GNSS fix becomes the frame origin and is subtracted
from every absolute coordinate (GNSS and truth), which keeps the floats
the solver sees small.  Machine-readable outputs print floats with 17
significant digits; human tables use 3 decimals.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .builders import BuilderConfig, Strategy, _node_times, build, \
    vehicle_trajectory
from .errors import DivisionByZeroMetricError, EmptyInputError, \
    MixedUtmZonesError, NeedTwoPosesError, NonMonotonicTimestampsError, \
    ParseError
from .gnss import GnssReading, latlon_to_utm, reject_outliers
from .graph import _fmt, save as save_graph
from .metrics import PPS_MATCH_TOLERANCE_S, MetricsReport, \
    compute_metrics, improvements, match_pps
from .odometry import OdometryStream
from .solver import SolveReport, optimize


@dataclass
class TruthTrack:
    timestamps: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        t, p = self.timestamps, self.positions
        if t.ndim != 1 or not np.isfinite(t).all():
            raise ValueError("truth timestamps must be a finite 1-d array")
        if np.any(np.diff(t) <= 0.0):
            raise NonMonotonicTimestampsError(
                "truth timestamps must be strictly increasing")
        if p.shape != (t.size, 2):
            raise ValueError(f"truth positions must have shape ({t.size}, 2)"
                             f", got {p.shape}")
        if not np.isfinite(p).all():
            raise ValueError("truth positions must be finite")


@dataclass
class Dataset:
    name: str
    gnss: list
    odometry: OdometryStream
    truth: TruthTrack | None = None
    frame_origin: tuple = (0.0, 0.0)


@dataclass
class ExperimentConfig(BuilderConfig):
    """One experiment's settings: the graph settings of BuilderConfig,
    plus the screen switch and the metric variant.  The solve runs with
    the default SolverConfig."""
    outlier_rejection: bool = True
    metrics_literal: bool = False


GNSS_GEO_HEADER = ("t", "lat", "lon", "epx", "epy", "epv")
GNSS_UTM_HEADER = ("t", "utm_x", "utm_y", "zone", "epx", "epy", "epv")
ODO_HEADER = ("t", "yaw_rate", "velocity")
TRUTH_HEADER = ("t", "utm_x", "utm_y")


def _read_rows(path, *headers):
    """The file's header, which must be one of `headers`, and its data
    rows as (fields, line number) pairs, the fields as raw strings; blank
    lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = tuple(h.strip() for h in next(reader))
        except StopIteration:
            raise ParseError(f"{path}:1: empty file") from None
        if header not in headers:
            raise ParseError(
                f"{path}:1: expected header "
                f"{' or '.join(','.join(h) for h in headers)}, "
                f"got {','.join(header)}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} "
                    f"fields, got {len(row)}")
            rows.append((row, lineno))
        return header, rows


def _check_increasing(path, times, linenos):
    """Raise on the first row whose timestamp does not increase, naming
    that row's line in the file."""
    bad = np.flatnonzero(np.diff(times) <= 0.0)
    if bad.size:
        raise NonMonotonicTimestampsError(
            f"{path}: timestamp at data line {linenos[bad[0] + 1]} "
            "not increasing")


def _numbers(path, rows, names):
    """The (fields, line number) rows as a (len(rows), len(names)) float
    array; raise ParseError naming the line of the first row with a
    non-numeric or non-finite field."""
    out = []
    for row, lineno in rows:
        try:
            out.append([float(v) for v in row])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-numeric field") from exc
    values = np.array(out, dtype=float).reshape(len(out), len(names))
    bad = ~np.isfinite(values)
    if bad.any():
        k, col = np.argwhere(bad)[0]
        raise ParseError(f"{path}:{rows[k][1]}: non-finite {names[col]}")
    return values


def _load_gnss(path):
    header, rows = _read_rows(path, GNSS_GEO_HEADER, GNSS_UTM_HEADER)
    # both schemas: t, two coordinates, ..., epx, epy, epv
    values = _numbers(path, [(row[:3] + row[-3:], n) for row, n in rows],
                      header[:3] + header[-3:])
    readings = []
    zones = set()
    for (row, n), (t, a, b, epx, epy, epv) in zip(rows, values.tolist()):
        try:
            if header == GNSS_GEO_HEADER:
                a, b, zone = latlon_to_utm(a, b)
            else:
                zone = row[3].strip()
            readings.append(GnssReading(t, (a, b), epx, epy, epv))
        except ValueError as exc:
            raise ParseError(f"{path}:{n}: {exc}") from exc
        zones.add(zone)
    if len(zones) > 1:
        raise MixedUtmZonesError(
            f"{path}: readings span UTM zones {sorted(zones)}")
    _check_increasing(path, [r.timestamp for r in readings],
                      [lineno for _, lineno in rows])
    return readings


def _load_numeric(path, header):
    """The file's rows as an (n, len(header)) float array, and the line
    number of each row."""
    _, rows = _read_rows(path, header)
    return _numbers(path, rows, header), [lineno for _, lineno in rows]


def load_dataset(gnss_path, odo_path, truth_path=None,
                 name=None) -> Dataset:
    """Load CSV streams into a local-frame Dataset.

    The first GNSS fix defines the frame origin, subtracted from all
    absolute coordinates (fixes and truth alike).
    """
    readings = _load_gnss(gnss_path)
    if not readings:
        raise ParseError(f"{gnss_path}: no GNSS readings")
    odo, odo_lines = _load_numeric(odo_path, ODO_HEADER)
    if odo.shape[0] == 0:
        raise ParseError(f"{odo_path}: no odometry samples")
    _check_increasing(odo_path, odo[:, 0], odo_lines)
    origin = (float(readings[0].position[0]), float(readings[0].position[1]))
    for r in readings:
        r.position = r.position - np.asarray(origin)
    stream = OdometryStream(odo[:, 0], odo[:, 1], odo[:, 2])
    truth = None
    if truth_path is not None:
        tr, truth_lines = _load_numeric(truth_path, TRUTH_HEADER)
        _check_increasing(truth_path, tr[:, 0], truth_lines)
        truth = TruthTrack(tr[:, 0], tr[:, 1:] - np.asarray(origin))
    if name is None:
        name = os.path.splitext(os.path.basename(gnss_path))[0]
    return Dataset(name, readings, stream, truth, origin)


def _screen_and_build(dataset: Dataset, cfg: ExperimentConfig):
    """Screen the fixes (when enabled) and build the unoptimized graph.

    Every reading's accepted flag is reset, then set by the screen.
    Returns (rejection_rate, graph, node_times).
    """
    readings = list(dataset.gnss)
    for r in readings:
        r.accepted = True
    rate = 0.0
    if cfg.outlier_rejection:
        rate = reject_outliers(readings, dataset.odometry).rejection_rate
    accepted = [r for r in readings if r.accepted]
    graph = build(accepted, dataset.odometry, cfg)
    times = _node_times(accepted, dataset.odometry, cfg.node_rate)
    return rate, graph, times


def _score(dataset: Dataset, what: str, est_t, est_xy, literal: bool,
           rejection_rate: float) -> MetricsReport:
    """Metrics of one estimate track against the dataset's truth.

    A track with fewer than two estimates within PPS_MATCH_TOLERANCE_S of
    a truth sample raises EmptyInputError (none) or NeedTwoPosesError
    (one), naming the dataset and the count.
    """
    pairs, _ = match_pps(est_t, est_xy, dataset.truth.timestamps,
                         dataset.truth.positions)
    if len(pairs) < 2:
        error = NeedTwoPosesError if pairs else EmptyInputError
        raise error(f"dataset {dataset.name!r}: {len(pairs)} of "
                    f"{len(est_t)} {what} match a truth sample within "
                    f"PPS_MATCH_TOLERANCE_S = {PPS_MATCH_TOLERANCE_S} s; "
                    "scoring needs two")
    return compute_metrics(pairs, literal=literal,
                           rejection_rate=rejection_rate)


def run_experiment(dataset: Dataset, config: ExperimentConfig | None = None,
                   trace=None, keep_graph: bool = False):
    """Screen, build, optimize and score one dataset.

    Returns (trajectory, fused_report, raw_report, solve_report) where
    trajectory is the list of (timestamp, Pose2) of every vehicle node:
    one per accepted fix, or one per odometry sample with
    NodeRate.PER_ODOMETRY_SAMPLE.  Raw GNSS metrics are computed over all
    readings, accepted or not, since the comparison baseline is the
    unfiltered receiver output; they are computed first, so a truth track
    that matches fewer than two fixes stops the run before any work.
    Non-convergence is reported in the SolveReport, not raised.  With
    keep_graph=True the optimized graph is appended as a fifth element.
    """
    cfg = config if config is not None else ExperimentConfig()
    fused_metrics = raw_metrics = None
    if dataset.truth is not None:
        raw_metrics = _score(dataset, "GNSS fixes",
                             [r.timestamp for r in dataset.gnss],
                             [r.position for r in dataset.gnss],
                             cfg.metrics_literal, 0.0)
    rate, graph, times = _screen_and_build(dataset, cfg)
    report = optimize(graph, trace=trace)
    trajectory = list(zip(times, vehicle_trajectory(graph)))

    if dataset.truth is not None:
        fused_metrics = _score(dataset, "fused poses", times,
                               [(p.x, p.y) for _, p in trajectory],
                               cfg.metrics_literal, rate)
        try:
            fused_metrics.improvement_vs_gnss = improvements(fused_metrics,
                                                             raw_metrics)
        except DivisionByZeroMetricError:
            # perfect raw GNSS: improvement percentages are undefined
            fused_metrics.improvement_vs_gnss = None
    if keep_graph:
        return trajectory, fused_metrics, raw_metrics, report, graph
    return trajectory, fused_metrics, raw_metrics, report


def export_results(trajectory, fused: MetricsReport | None,
                   raw: MetricsReport | None, solve: SolveReport,
                   out_dir, dataset: Dataset, graph=None) -> list:
    """Write trajectory, metrics record and error scatter to out_dir.

    Returns the list of written paths.  Fails before creating anything
    when the trajectory is empty.
    """
    if not trajectory:
        raise EmptyInputError("refusing to export an empty trajectory")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    traj_path = os.path.join(out_dir, f"{dataset.name}_fused.csv")
    with open(traj_path, "w", newline="") as fh:
        fh.write("t,x,y,theta\n")
        for t, p in trajectory:
            fh.write(f"{_fmt(t)},{_fmt(p.x)},{_fmt(p.y)},{_fmt(p.theta)}\n")
    written.append(traj_path)

    rec_path = os.path.join(out_dir, f"{dataset.name}_metrics.txt")
    with open(rec_path, "w") as fh:
        fh.write(render_metrics_record(dataset.name, fused, raw, solve))
    written.append(rec_path)

    if fused is not None and dataset.truth is not None:
        scatter_path = os.path.join(out_dir, f"{dataset.name}_scatter.csv")
        prs, _ = match_pps([t for t, _ in trajectory],
                           [(p.x, p.y) for _, p in trajectory],
                           dataset.truth.timestamps, dataset.truth.positions)
        with open(scatter_path, "w", newline="") as fh:
            fh.write("t,err_x,err_y\n")
            for p in prs:
                fh.write(f"{_fmt(p.timestamp)},"
                         f"{_fmt(p.estimate[0] - p.truth[0])},"
                         f"{_fmt(p.estimate[1] - p.truth[1])}\n")
        written.append(scatter_path)

    if graph is not None:
        gpath = os.path.join(out_dir, f"{dataset.name}_graph.txt")
        save_graph(graph, gpath)
        written.append(gpath)
    return written


def render_metrics_record(name, fused, raw, solve) -> str:
    """Key/value record plus a small fixed-width table, both diffable."""
    lines = [f"dataset: {name}"]
    if solve is not None:
        lines.append(f"converged: {solve.converged}")
        lines.append(f"iterations: {solve.iterations}")
        lines.append(f"initial_error: {_fmt(solve.initial_error)}")
        lines.append(f"final_error: {_fmt(solve.final_error)}")
        lines.append(f"termination: {solve.termination.value}")
    for label, rep in (("fused", fused), ("gnss", raw)):
        if rep is None:
            continue
        lines.append(f"{label}.max_offset: {_fmt(rep.max_offset)}")
        lines.append(f"{label}.accuracy: {_fmt(rep.accuracy)}")
        lines.append(f"{label}.precision: {_fmt(rep.precision)}")
        lines.append(f"{label}.n: {rep.n}")
        if rep.rejection_rate is not None:
            lines.append(f"{label}.rejection_rate: "
                         f"{_fmt(rep.rejection_rate)}")
    if fused is not None and fused.improvement_vs_gnss is not None:
        imp = fused.improvement_vs_gnss
        lines.append(f"improvement.max_offset: {_fmt(imp[0])}")
        lines.append(f"improvement.accuracy: {_fmt(imp[1])}")
        lines.append(f"improvement.precision: {_fmt(imp[2])}")
    if fused is not None and raw is not None:
        lines.append("")
        lines.append(render_table(
            ["row", "Max [m]", "Acc [m]", "Prec [m]"],
            [["fused", fused.max_offset, fused.accuracy, fused.precision],
             ["gnss", raw.max_offset, raw.accuracy, raw.precision]]))
    return "\n".join(lines) + "\n"


def run_batch(datasets, config: ExperimentConfig | None = None,
              strategies=tuple(Strategy),
              rejections=(True, False)):
    """Run every strategy x rejection combination over the datasets.

    Returns (record, table): a machine key/value record with 17
    significant digits and a human comparison table with per-dataset
    rows, an Average row and an improvement-vs-GNSS row computed from
    the averages (mirroring how published summary tables derive their
    percentage rows).  Every dataset needs ground truth; the datasets are
    checked before any experiment runs.
    """
    if not datasets:
        raise EmptyInputError("run_batch needs at least one dataset")
    for ds in datasets:
        if ds.truth is None:
            raise ValueError(f"dataset {ds.name!r} has no ground truth; "
                             "run_batch scores every experiment")
    base = config if config is not None else ExperimentConfig()
    record = []
    tables = []
    for strat in strategies:
        for rej in rejections:
            cfg = replace(base, strategy=strat, outlier_rejection=rej)
            tag = f"{cfg.strategy.value}.{'on' if rej else 'off'}"
            rows = []
            sums_f = np.zeros(3)
            sums_g = np.zeros(3)
            for ds in datasets:
                _, fused, raw, solve = run_experiment(ds, cfg)
                f = (fused.max_offset, fused.accuracy, fused.precision)
                g = (raw.max_offset, raw.accuracy, raw.precision)
                sums_f += np.asarray(f)
                sums_g += np.asarray(g)
                rows.append([ds.name, *f])
                for metric, val in zip(("max_offset", "accuracy",
                                        "precision"), f):
                    record.append(f"{tag}.{ds.name}.{metric}: {_fmt(val)}")
                record.append(f"{tag}.{ds.name}.converged: "
                              f"{solve.converged}")
                record.append(f"{tag}.{ds.name}.rejection_rate: "
                              f"{_fmt(fused.rejection_rate)}")
            avg_f = sums_f / len(datasets)
            avg_g = sums_g / len(datasets)
            rows.append(["Average", *[float(v) for v in avg_f]])
            for metric, val in zip(("max_offset", "accuracy", "precision"),
                                   avg_f):
                record.append(f"{tag}.Average.{metric}: {_fmt(val)}")
            imp = [100.0 * (g - f) / g if g != 0.0 else float("nan")
                   for f, g in zip(avg_f, avg_g)]
            rows.append(["Improvement w.r.t. GNSS (%)",
                         *[float(v) for v in imp]])
            for metric, val in zip(("max_offset", "accuracy", "precision"),
                                   imp):
                record.append(f"{tag}.improvement.{metric}: {_fmt(val)}")
            tables.append(
                f"strategy={cfg.strategy.value} rejection="
                f"{'on' if rej else 'off'}\n"
                + render_table(["dataset", "Max [m]", "Acc [m]",
                                "Prec [m]"], rows))
    return "\n".join(record) + "\n", "\n\n".join(tables) + "\n"


def render_table(header, rows) -> str:
    """Fixed-width text table; numbers with 3 decimals."""
    def cell(v):
        return f"{v:.3f}" if isinstance(v, float) else str(v)

    grid = [header] + [[cell(v) for v in row] for row in rows]
    widths = [max(len(r[c]) for r in grid) for c in range(len(header))]
    out = []
    for r, row in enumerate(grid):
        out.append("  ".join(s.rjust(w) for s, w in zip(row, widths)))
        if r == 0:
            out.append("  ".join("-" * w for w in widths))
    return "\n".join(out)
