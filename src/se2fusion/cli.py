"""Command-line interface.

Verbs:
  run         fuse one dataset with one strategy and export results
  batch       all strategies x rejection on/off, comparison table
  synth       generate a synthetic dataset as CSV files
  graph-dump  build the pose graph (no optimization) and save its text form

Datasets come either from CSV files (--gnss/--odo/--truth) or from the
synthetic generator (--synth PROFILE with --seed and error-model flags).
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from .builders import NodeRate, Strategy
from .dataset import GNSS_UTM_HEADER, ODO_HEADER, TRUTH_HEADER, \
    ExperimentConfig, _screen_and_build, export_results, load_dataset, \
    render_metrics_record, run_batch, run_experiment
from .graph import _fmt, save as save_graph
from .synth import GnssErrorModel, OdoErrorModel, TrajectoryProfile, \
    generate_synthetic


def _pair(text, what):
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise SystemExit(f"bad {what}: expected 'a,b', got {text!r}")


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    gnss, odo = GnssErrorModel(), OdoErrorModel()
    duration = inspect.signature(generate_synthetic).parameters["duration"]
    p.add_argument("--gnss", help="GNSS CSV path")
    p.add_argument("--odo", help="odometry CSV path")
    p.add_argument("--truth", help="ground-truth CSV path")
    p.add_argument("--synth", choices=[x.value for x in TrajectoryProfile],
                   help="generate the dataset instead of loading files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=duration.default,
                   help="synthetic duration in seconds")
    p.add_argument("--bias", type=lambda s: _pair(s, "--bias"),
                   default=gnss.bias,
                   help="synthetic GNSS bias as 'x,y' meters")
    p.add_argument("--ar1-rho", type=float, default=gnss.ar1_rho)
    p.add_argument("--ar1-sigma", type=float, default=gnss.ar1_sigma,
                   help="stationary planar noise dispersion in meters")
    p.add_argument("--outlier-rate", type=float, default=gnss.outlier_rate)
    p.add_argument("--outlier-magnitude", type=float,
                   default=gnss.outlier_magnitude)
    p.add_argument("--drift", type=float, default=odo.drift_fraction,
                   help="odometry multiplicative drift fraction")
    p.add_argument("--standstill", type=lambda s: _pair(s, "--standstill"),
                   help="synthetic standstill as 'start,duration' seconds")


def _add_shared_args(p: argparse.ArgumentParser) -> None:
    # the settings batch shares across all of its experiments
    p.add_argument("--metrics-literal", action="store_true")
    p.add_argument("--identity-strength", type=float,
                   default=ExperimentConfig.identity_edge_strength)
    p.add_argument("--node-rate",
                   choices=[x.value for x in NodeRate],
                   default=ExperimentConfig.node_rate.value)


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=[x.value for x in Strategy],
                   default=ExperimentConfig.strategy.value)
    p.add_argument("--no-outlier-rejection", action="store_true")
    p.add_argument("--trace", action="store_true",
                   help="print one line per solver iteration")
    _add_shared_args(p)


def _dataset_from_args(args):
    if args.synth is not None:
        try:
            return generate_synthetic(
                args.seed, TrajectoryProfile(args.synth),
                GnssErrorModel(bias=args.bias, ar1_rho=args.ar1_rho,
                               ar1_sigma=args.ar1_sigma,
                               outlier_rate=args.outlier_rate,
                               outlier_magnitude=args.outlier_magnitude),
                OdoErrorModel(drift_fraction=args.drift),
                duration=args.duration, standstill=args.standstill)
        except ValueError as exc:
            raise SystemExit(f"bad synthetic dataset: {exc}") from None
    if not args.gnss or not args.odo:
        raise SystemExit("need --gnss and --odo (or --synth PROFILE)")
    return load_dataset(args.gnss, args.odo, args.truth)


def _experiment_config(args) -> ExperimentConfig:
    """The verb's config, built before its dataset so that a bad value
    stops the run before any work.  batch has no --strategy or
    --no-outlier-rejection: it runs every combination of the two."""
    per_run = {}
    if "strategy" in args:
        per_run = dict(strategy=Strategy(args.strategy),
                       outlier_rejection=not args.no_outlier_rejection)
    try:
        return ExperimentConfig(
            node_rate=NodeRate(args.node_rate),
            identity_edge_strength=args.identity_strength,
            metrics_literal=args.metrics_literal, **per_run)
    except ValueError as exc:
        # the only value the config checks is the identity stiffness
        raise SystemExit(f"bad --identity-strength: {exc}") from None


def _cmd_run(args) -> int:
    cfg = _experiment_config(args)
    dataset = _dataset_from_args(args)
    trace = sys.stdout.write if args.trace else None
    trajectory, fused, raw, solve, graph = run_experiment(
        dataset, cfg, trace=trace, keep_graph=True)
    if args.out:
        export_results(trajectory, fused, raw, solve, args.out, dataset,
                       graph=graph if args.dump_graph else None)
    sys.stdout.write(render_metrics_record(dataset.name, fused, raw, solve))
    return 0


def _cmd_batch(args) -> int:
    base = _experiment_config(args)
    if args.synth is None and not args.truth:
        raise SystemExit("batch scores every experiment: need --truth "
                         "with --gnss and --odo")
    dataset = _dataset_from_args(args)
    record, table = run_batch([dataset], base)
    os.makedirs(args.out, exist_ok=True)
    rec_path = os.path.join(args.out, "batch_record.txt")
    tab_path = os.path.join(args.out, "batch_table.txt")
    with open(rec_path, "w") as fh:
        fh.write(record)
    with open(tab_path, "w") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


def _cmd_synth(args) -> int:
    dataset = _dataset_from_args(args)
    os.makedirs(args.out, exist_ok=True)
    gnss_path = os.path.join(args.out, f"{dataset.name}_gnss.csv")
    odo_path = os.path.join(args.out, f"{dataset.name}_odo.csv")
    truth_path = os.path.join(args.out, f"{dataset.name}_truth.csv")
    with open(gnss_path, "w", newline="") as fh:
        fh.write(",".join(GNSS_UTM_HEADER) + "\n")
        for r in dataset.gnss:
            fh.write(f"{_fmt(r.timestamp)},{_fmt(r.position[0])},"
                     f"{_fmt(r.position[1])},local,{_fmt(r.epx)},"
                     f"{_fmt(r.epy)},{_fmt(r.epv)}\n")
    with open(odo_path, "w", newline="") as fh:
        fh.write(",".join(ODO_HEADER) + "\n")
        s = dataset.odometry
        for t, w, v in zip(s.timestamps, s.yaw_rates, s.velocities):
            fh.write(f"{_fmt(t)},{_fmt(w)},{_fmt(v)}\n")
    with open(truth_path, "w", newline="") as fh:
        fh.write(",".join(TRUTH_HEADER) + "\n")
        for t, p in zip(dataset.truth.timestamps, dataset.truth.positions):
            fh.write(f"{_fmt(t)},{_fmt(p[0])},{_fmt(p[1])}\n")
    sys.stdout.write(f"wrote {gnss_path}\nwrote {odo_path}\n"
                     f"wrote {truth_path}\n")
    return 0


def _cmd_graph_dump(args) -> int:
    cfg = _experiment_config(args)
    dataset = _dataset_from_args(args)
    _, graph, _ = _screen_and_build(dataset, cfg)
    save_graph(graph, args.out)
    sys.stdout.write(f"wrote {args.out} ({len(graph.poses)} nodes, "
                     f"{len(graph.from_ids)} edges)\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="se2fusion",
        description="Pose-graph fusion of GNSS fixes with vehicle odometry")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="fuse one dataset, one strategy")
    _add_dataset_args(p_run)
    _add_experiment_args(p_run)
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--dump-graph", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_batch = sub.add_parser("batch",
                             help="all strategies x rejection on/off")
    _add_dataset_args(p_batch)
    _add_shared_args(p_batch)
    p_batch.add_argument("--out", required=True, help="output directory")
    p_batch.set_defaults(fn=_cmd_batch)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    _add_dataset_args(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(fn=_cmd_synth)

    p_dump = sub.add_parser("graph-dump",
                            help="build and save the pose graph")
    _add_dataset_args(p_dump)
    _add_experiment_args(p_dump)
    p_dump.add_argument("--out", required=True, help="output file")
    p_dump.set_defaults(fn=_cmd_graph_dump)

    args = parser.parse_args(argv)
    if args.synth is None and args.verb == "synth":
        raise SystemExit("synth needs --synth PROFILE")
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
