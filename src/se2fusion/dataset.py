"""Dataset ingestion, experiment orchestration and result export.

CSV schemas (headers mandatory; the *_HEADER constants are the one
definition, shared by the loader and write_dataset):

* GNSS, geographic:   t,lat,lon,epx,epy,epv           (GNSS_GEO_HEADER)
* GNSS, pre-projected: t,utm_x,utm_y,zone,epx,epy,epv (GNSS_UTM_HEADER)
* odometry:           t,yaw_rate,velocity             (ODO_HEADER)
* ground truth:       t,utm_x,utm_y                   (TRUTH_HEADER)

A GNSS file's header picks its schema.  The odometry and truth files
are parsed in one numpy pass after the header check; a file that pass
cannot take exactly (a bad or non-finite field, a wrong field count, a
timestamp that does not increase, a header with no rows) is re-read row
by row, and the row loop names the line at fault.  ExperimentConfig
extends BuilderConfig, which owns the graph settings, their defaults and
checks.

On load the first GNSS fix becomes the frame origin and is subtracted
from every absolute coordinate (GNSS and truth), which keeps the floats
the solver sees small.  Machine-readable outputs print floats with 17
significant digits; human tables use 3 decimals.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .builders import BuilderConfig, Strategy, _vehicle_poses, build, \
    fill_g2, reduce_g2
from .errors import DivisionByZeroMetricError, EmptyInputError, \
    MixedUtmZonesError, NeedTwoPosesError, NonMonotonicTimestampsError, \
    ParseError
from .gnss import GnssReading, latlon_to_utm, reject_outliers
from .graph import FLOAT_FORMAT, _fmt, save as save_graph
from .metrics import METRIC_NAMES, PPS_MATCH_TOLERANCE_S, \
    MetricsReport, compute_metrics, improvements, match_pps
from .odometry import OdometryStream
from .se2 import poses_from_rows
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
    """One experiment's settings: the graph settings of BuilderConfig
    (strategy, G2 tie stiffness), plus the screen switch and the metric
    variant.  The solve runs with the default SolverConfig."""
    outlier_rejection: bool = True
    metrics_literal: bool = False


GNSS_GEO_HEADER = ("t", "lat", "lon", "epx", "epy", "epv")
GNSS_UTM_HEADER = ("t", "utm_x", "utm_y", "zone", "epx", "epy", "epv")
ODO_HEADER = ("t", "yaw_rate", "velocity")
TRUTH_HEADER = ("t", "utm_x", "utm_y")


def _read_header(path, reader, headers):
    """The header row read off the csv reader, which must be one of
    `headers`."""
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise ParseError(f"{path}:1: empty file") from None
    if header not in headers:
        raise ParseError(
            f"{path}:1: expected header "
            f"{' or '.join(','.join(h) for h in headers)}, "
            f"got {','.join(header)}")
    return header


def _read_rows(path, *headers):
    """The file's header, which must be one of `headers`, and its data
    rows as (fields, line number) pairs, the fields as raw strings; blank
    lines are skipped."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = _read_header(path, reader, headers)
        rows = []
        for row in reader:
            lineno = reader.line_num  # a quoted newline spans lines
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
    """The readings in the first fix's frame, and that fix's position."""
    header, rows = _read_rows(path, GNSS_GEO_HEADER, GNSS_UTM_HEADER)
    # both schemas: t, two coordinates, ..., epx, epy, epv
    values = _numbers(path, [(row[:3] + row[-3:], n) for row, n in rows],
                      header[:3] + header[-3:])
    readings = []
    zones = set()
    origin = None
    for (row, n), (t, a, b, epx, epy, epv) in zip(rows, values.tolist()):
        try:
            if header == GNSS_GEO_HEADER:
                a, b, zone = latlon_to_utm(a, b)
            else:
                zone = row[3].strip()
            origin = origin or (a, b)
            readings.append(GnssReading(t, (a - origin[0], b - origin[1]),
                                        epx, epy, epv))
        except ValueError as exc:
            raise ParseError(f"{path}:{n}: {exc}") from exc
        zones.add(zone)
    if len(zones) > 1:
        raise MixedUtmZonesError(
            f"{path}: readings span UTM zones {sorted(zones)}")
    _check_increasing(path, [r.timestamp for r in readings],
                      [lineno for _, lineno in rows])
    return readings, origin


# numpy's parser skips these around a number as whitespace, float()
# refuses them; a file holding one goes to the row loop
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _load_numeric(path, header):
    """The file's rows as an (n, len(header)) float array whose first
    column, the timestamps, strictly increases.

    The body is parsed by one np.loadtxt pass.  Its array is returned
    only when it is what the row loop would return: the header's field
    count, every value finite, the timestamps increasing.  Any other
    file, one loadtxt refuses or warns about included, is re-read row by
    row, which names the line at fault.
    """
    with open(path, newline="") as fh:
        _read_header(path, csv.reader(fh), (header,))
        body = fh.read()
    values = None
    if not any(c in body for c in _LOADTXT_ONLY_SPACE):
        with warnings.catch_warnings():
            # a body with no rows warns
            warnings.simplefilter("error")
            try:
                values = np.loadtxt(io.StringIO(body), delimiter=",",
                                    comments=None, ndmin=2, dtype=float)
            except (ValueError, UserWarning):
                pass
    if (values is not None and values.shape[1] == len(header)
            and np.isfinite(values).all()
            and np.all(np.diff(values[:, 0]) > 0.0)):
        return values
    _, rows = _read_rows(path, header)
    values = _numbers(path, rows, header)
    _check_increasing(path, values[:, 0], [lineno for _, lineno in rows])
    return values


def load_dataset(gnss_path, odo_path, truth_path=None,
                 name=None) -> Dataset:
    """Load CSV streams into a local-frame Dataset.

    The first GNSS fix defines the frame origin, subtracted from all
    absolute coordinates (fixes and truth alike).
    """
    readings, origin = _load_gnss(gnss_path)
    if not readings:
        raise ParseError(f"{gnss_path}: no GNSS readings")
    odo = _load_numeric(odo_path, ODO_HEADER)
    if odo.shape[0] == 0:
        raise ParseError(f"{odo_path}: no odometry samples")
    stream = OdometryStream(odo[:, 0], odo[:, 1], odo[:, 2])
    truth = None
    if truth_path is not None:
        tr = _load_numeric(truth_path, TRUTH_HEADER)
        truth = TruthTrack(tr[:, 0], tr[:, 1:] - np.asarray(origin))
    if name is None:
        name = os.path.splitext(os.path.basename(gnss_path))[0]
    return Dataset(name, readings, stream, truth, origin)


def _write_csv(path, header, rows) -> None:
    """Write the header, then each row of the (n, k) float array `rows`
    with 17 significant digits, in one %-format pass.  A `zone` column
    holds the literal `local` and takes no value from `rows`."""
    line = ",".join("local" if name == "zone" else FLOAT_FORMAT
                    for name in header) + "\n"
    rows = np.asarray(rows, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def write_dataset(dataset: Dataset, out_dir) -> list:
    """Write the dataset as <name>_gnss.csv (pre-projected schema, zone
    `local`), <name>_odo.csv and, with truth, <name>_truth.csv in out_dir,
    coordinates in the dataset's frame.  Returns the written paths."""
    odo, truth = dataset.odometry, dataset.truth
    gnss = [(r.timestamp, *r.position, r.epx, r.epy, r.epv)
            for r in dataset.gnss]
    tables = [("gnss", GNSS_UTM_HEADER, gnss),
              ("odo", ODO_HEADER, np.column_stack(
                  (odo.timestamps, odo.yaw_rates, odo.velocities)))]
    if truth is not None:
        tables.append(("truth", TRUTH_HEADER, np.column_stack(
            (truth.timestamps, truth.positions))))
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, dataset.name)
    paths = []
    for kind, header, rows in tables:
        paths.append(f"{base}_{kind}.csv")
        _write_csv(paths[-1], header, rows)
    return paths


def _screen_and_build(dataset: Dataset, cfg: ExperimentConfig):
    """Screen the fixes (when enabled) and build the unoptimized graph.

    Every reading's accepted flag is reset, then set by the screen.
    Returns (rejection_rate, graph, times), the times those of the
    accepted fixes, one per vehicle node.
    """
    readings = list(dataset.gnss)
    for r in readings:
        r.accepted = True
    rate = 0.0
    if cfg.outlier_rejection:
        rate = reject_outliers(readings, dataset.odometry).rejection_rate
    accepted = [r for r in readings if r.accepted]
    graph = build(accepted, dataset.odometry, cfg)
    return rate, graph, [float(r.timestamp) for r in accepted]


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
    trajectory is the list of (timestamp, Pose2) of every vehicle node,
    one per accepted fix; `full_rate_trajectory` on the kept graph gives
    a pose at every odometry sample as well.  Raw GNSS metrics are
    computed over all readings, accepted or not, since the comparison
    baseline is the unfiltered receiver output; they are computed first,
    so a truth track that matches fewer than two fixes stops the run
    before any work.
    Non-convergence is reported in the SolveReport, not raised.  With
    keep_graph=True the optimized graph is appended as a fifth element.
    A G2 graph is solved as its G1 reduction (`reduce_g2`), so the
    report, its initial chi2 and any trace are the reduced solve's; the
    kept graph is the G2 graph, moved onto that solve (`fill_g2`).
    """
    cfg = config if config is not None else ExperimentConfig()
    fused_metrics = raw_metrics = None
    if dataset.truth is not None:
        raw_metrics = _score(dataset, "GNSS fixes",
                             [r.timestamp for r in dataset.gnss],
                             [r.position for r in dataset.gnss],
                             cfg.metrics_literal, 0.0)
        raw_metrics.offsets = None  # only the fused scatter is exported
    rate, graph, times = _screen_and_build(dataset, cfg)
    # G2's GNSS nodes eliminate exactly: solve its G1 reduction instead
    solved = reduce_g2(graph) if cfg.strategy is Strategy.G2 else graph
    report = optimize(solved, trace=trace)
    vehicle = _vehicle_poses(solved)
    trajectory = list(zip(times, poses_from_rows(vehicle)))

    if dataset.truth is not None:
        fused_metrics = _score(dataset, "fused poses", times, vehicle[:, :2],
                               cfg.metrics_literal, rate)
        try:
            fused_metrics.improvement_vs_gnss = improvements(fused_metrics,
                                                             raw_metrics)
        except DivisionByZeroMetricError:
            # perfect raw GNSS: improvement percentages are undefined
            fused_metrics.improvement_vs_gnss = None
    if keep_graph:
        if solved is not graph:
            fill_g2(graph, solved)
        return trajectory, fused_metrics, raw_metrics, report, graph
    return trajectory, fused_metrics, raw_metrics, report


def export_results(trajectory, fused: MetricsReport | None,
                   raw: MetricsReport | None, solve: SolveReport,
                   out_dir, dataset: Dataset, graph=None) -> list:
    """Write trajectory, metrics record and error scatter to out_dir.

    The scatter is the fused report's `offsets`, so a report built by
    hand without them writes none.  Returns the list of written paths.
    Fails before creating anything when the trajectory is empty.
    """
    if not trajectory:
        raise EmptyInputError("refusing to export an empty trajectory")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, dataset.name)
    written = [f"{base}_fused.csv", f"{base}_metrics.txt"]
    track = np.array([(t, p.x, p.y, p.theta) for t, p in trajectory])
    _write_csv(written[0], ("t", "x", "y", "theta"), track)
    with open(written[1], "w") as fh:
        fh.write(render_metrics_record(dataset.name, fused, raw, solve))

    if fused is not None and fused.offsets is not None:
        written.append(f"{base}_scatter.csv")
        _write_csv(written[-1], ("t", "err_x", "err_y"), fused.offsets)
    if graph is not None:
        written.append(f"{base}_graph.txt")
        save_graph(graph, written[-1])
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
        lines += [f"{label}.{name}: {_fmt(getattr(rep, name))}"
                  for name in METRIC_NAMES]
        lines.append(f"{label}.n: {rep.n}")
        if rep.rejection_rate is not None:
            lines.append(f"{label}.rejection_rate: "
                         f"{_fmt(rep.rejection_rate)}")
    if fused is not None and fused.improvement_vs_gnss is not None:
        lines += [f"improvement.{name}: {_fmt(v)}" for name, v in
                  zip(METRIC_NAMES, fused.improvement_vs_gnss)]
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
                f = [getattr(fused, name) for name in METRIC_NAMES]
                sums_f += f
                sums_g += [getattr(raw, name) for name in METRIC_NAMES]
                rows.append([ds.name, *f])
                record += [f"{tag}.{ds.name}.{name}: {_fmt(v)}"
                           for name, v in zip(METRIC_NAMES, f)]
                record.append(f"{tag}.{ds.name}.converged: "
                              f"{solve.converged}")
                record.append(f"{tag}.{ds.name}.rejection_rate: "
                              f"{_fmt(fused.rejection_rate)}")
            avg_f = sums_f / len(datasets)
            avg_g = sums_g / len(datasets)
            rows.append(["Average", *[float(v) for v in avg_f]])
            record += [f"{tag}.Average.{name}: {_fmt(v)}"
                       for name, v in zip(METRIC_NAMES, avg_f)]
            imp = [100.0 * (g - f) / g if g != 0.0 else float("nan")
                   for f, g in zip(avg_f, avg_g)]
            rows.append(["Improvement w.r.t. GNSS (%)",
                         *[float(v) for v in imp]])
            record += [f"{tag}.improvement.{name}: {_fmt(v)}"
                       for name, v in zip(METRIC_NAMES, imp)]
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
