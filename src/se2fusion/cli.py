"""Command-line interface.

Verbs:
  run         fuse one dataset with one strategy and export results
  batch       all strategies x rejection on/off, comparison table
  synth       generate a synthetic dataset as CSV files
  graph-dump  build the pose graph (no optimization) and save its text form

Datasets come either from CSV files (--gnss/--odo, and --truth where the
verb scores) or from the synthetic generator (--synth PROFILE).  Each
flag's dest is the field it sets in ExperimentConfig, GnssErrorModel,
OdoErrorModel or generate_synthetic; only the flags given are passed,
so those objects own every default.  A verb registers only the flags it
acts on, and refuses with one line a flag its data source would ignore.
A dataset the loader refuses, one it loads but cannot fuse, and a path
the OS refuses, also end the verb with one line.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .builders import Strategy
from .dataset import ExperimentConfig, _screen_and_build, export_results, \
    load_dataset, render_metrics_record, run_batch, run_experiment, \
    write_dataset
from .errors import EmptyInputError, InsufficientCoverageError, \
    NeedTwoPosesError, SingularSystemError, TooFewReadingsError
from .graph import save as save_graph
from .synth import GnssErrorModel, OdoErrorModel, TrajectoryProfile, \
    generate_synthetic


def fields(args, owner) -> dict:
    """The given flags among `owner`'s fields (a dataclass or names)."""
    names = owner if isinstance(owner, tuple) else \
        tuple(f.name for f in dataclasses.fields(owner))
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _pair(text, what):
    try:
        a, b = text.split(",")
        return float(a), float(b)
    except ValueError:
        raise SystemExit(f"bad {what}: expected 'a,b', got {text!r}")


def _add_dataset_args(p: argparse.ArgumentParser, files: tuple) -> None:
    """The CSV inputs named in `files`, or --synth when there are none."""
    for name in files:
        p.add_argument(f"--{name}", help=f"{name} CSV path")
    p.add_argument("--synth", required=not files,
                   choices=[x.value for x in TrajectoryProfile],
                   help="generate the dataset instead of loading files")
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--duration", type=float,
                   help="synthetic duration in seconds")
    p.add_argument("--bias", type=lambda s: _pair(s, "--bias"),
                   help="synthetic GNSS bias as 'x,y' meters")
    p.add_argument("--ar1-rho", type=float)
    p.add_argument("--ar1-sigma", type=float,
                   help="stationary planar noise dispersion in meters")
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--outlier-magnitude", type=float)
    p.add_argument("--drift", dest="drift_fraction", type=float,
                   help="odometry multiplicative drift fraction")
    p.add_argument("--standstill", type=lambda s: _pair(s, "--standstill"),
                   help="synthetic standstill as 'start,duration' seconds")


def _add_experiment_args(p: argparse.ArgumentParser, per_run: bool,
                         scored: bool) -> None:
    # batch runs every strategy with rejection on and off
    if per_run:
        p.add_argument("--strategy", choices=[x.value for x in Strategy])
        p.add_argument("--no-outlier-rejection", dest="outlier_rejection",
                       action="store_false", default=None)
    p.add_argument("--identity-strength", dest="identity_edge_strength",
                   type=float,
                   help="g2 tie stiffness s (default 1e6); g2 is solved "
                   "as g1 with each fix's variance raised by 1/s, and on "
                   "an 18-drive set its precision was g1's to 5e-5 "
                   "relative at 1e4 and 5e-11 at 1e10, every solve "
                   "converging in 3 to 6 iterations")
    if scored:
        p.add_argument("--metrics-literal", action="store_true", default=None)


def _dataset_from_args(args):
    files = fields(args, ("gnss", "odo", "truth"))
    gnss, odo = fields(args, GnssErrorModel), fields(args, OdoErrorModel)
    generator = fields(args, ("seed", "duration", "standstill"))
    if args.synth is None:
        if generator or gnss or odo:
            raise SystemExit("synthetic settings without --synth: "
                             + ", ".join([*generator, *gnss, *odo]))
        if "gnss" not in files or "odo" not in files:
            raise SystemExit("need --gnss and --odo (or --synth PROFILE)")
        try:
            return load_dataset(args.gnss, args.odo, files.get("truth"))
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    if files:
        raise SystemExit("--synth generates the dataset: drop "
                         + ", ".join(f"--{name}" for name in files))
    try:
        return generate_synthetic(
            generator.pop("seed", 0), TrajectoryProfile(args.synth),
            GnssErrorModel(**gnss), OdoErrorModel(**odo), **generator)
    except ValueError as exc:
        raise SystemExit(f"bad synthetic dataset: {exc}") from None


def _experiment_config(args) -> ExperimentConfig:
    """The config, built before the dataset so a bad value stops all work."""
    try:
        return ExperimentConfig(**fields(args, ExperimentConfig))
    except ValueError as exc:
        # argparse checks the choices; the config checks the stiffness
        raise SystemExit(f"bad --identity-strength: {exc}") from None


def _cmd_run(args) -> int:
    if args.dump_graph and not args.out:
        raise SystemExit("--dump-graph writes into the --out directory")
    cfg = _experiment_config(args)
    dataset = _dataset_from_args(args)
    if args.out:  # before the experiment, so a refused --out stops it
        os.makedirs(args.out, exist_ok=True)
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
    os.makedirs(args.out, exist_ok=True)
    record, table = run_batch([dataset], base)
    for name, text in (("batch_record.txt", record),
                       ("batch_table.txt", table)):
        with open(os.path.join(args.out, name), "w") as fh:
            fh.write(text)
    sys.stdout.write(table)
    return 0


def _cmd_synth(args) -> int:
    dataset = _dataset_from_args(args)
    for path in write_dataset(dataset, args.out):
        sys.stdout.write(f"wrote {path}\n")
    return 0


def _cmd_graph_dump(args) -> int:
    cfg = _experiment_config(args)
    dataset = _dataset_from_args(args)
    # probed before the build, so a refused --out stops it, and emptied
    # only by the save, so a failed build leaves an existing file whole
    # and removes one the probe made
    try:
        open(args.out, "x").close()
        made = True
    except FileExistsError:
        open(args.out, "a").close()
        made = False
    try:
        _, graph, _ = _screen_and_build(dataset, cfg)
    except BaseException:
        if made:
            os.remove(args.out)
        raise
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
    _add_dataset_args(p_run, ("gnss", "odo", "truth"))
    _add_experiment_args(p_run, per_run=True, scored=True)
    p_run.add_argument("--trace", action="store_true",
                       help="print one line per solver iteration")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--dump-graph", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_batch = sub.add_parser("batch", help="all strategies x rejection on/off")
    _add_dataset_args(p_batch, ("gnss", "odo", "truth"))
    _add_experiment_args(p_batch, per_run=False, scored=True)
    p_batch.add_argument("--out", required=True, help="output directory")
    p_batch.set_defaults(fn=_cmd_batch)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset")
    _add_dataset_args(p_synth, ())
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(fn=_cmd_synth)

    p_dump = sub.add_parser("graph-dump", help="build and save the pose graph")
    _add_dataset_args(p_dump, ("gnss", "odo"))
    _add_experiment_args(p_dump, per_run=True, scored=False)
    p_dump.add_argument("--out", required=True, help="output file")
    p_dump.set_defaults(fn=_cmd_graph_dump)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, TooFewReadingsError, InsufficientCoverageError,
            EmptyInputError, NeedTwoPosesError, SingularSystemError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    raise SystemExit(main())
