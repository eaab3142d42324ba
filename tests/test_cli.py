"""Command-line surface: verbs, flags, file outputs."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import se2fusion
from se2fusion import cli
from se2fusion.builders import Strategy
from se2fusion.cli import main
from se2fusion.dataset import ExperimentConfig, load_dataset, \
    render_metrics_record, run_batch, run_experiment
from se2fusion.errors import EmptyInputError, InsufficientCoverageError, \
    NeedTwoPosesError, TooFewReadingsError
from se2fusion.graph import load as load_graph
from se2fusion.synth import GnssErrorModel, OdoErrorModel, \
    TrajectoryProfile, generate_synthetic


def _record_value(out, key):
    for line in out.split("\n"):
        if line.startswith(key + ":"):
            return line.split(": ", 1)[1]
    raise KeyError(key)


def test_run_on_synthetic_prints_record(capsys):
    rc = main(["run", "--synth", "straight", "--duration", "60",
               "--strategy", "g1", "--ar1-sigma", "0.8",
               "--ar1-rho", "0.9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert _record_value(out, "dataset") == "straight-s0"
    assert _record_value(out, "converged") == "True"
    assert float(_record_value(out, "fused.max_offset")) >= 0.0
    assert "Prec [m]" in out


def test_run_writes_output_files(tmp_path, capsys):
    out_dir = tmp_path / "results"
    rc = main(["run", "--synth", "straight", "--duration", "30",
               "--strategy", "g2", "--out", str(out_dir), "--dump-graph"])
    assert rc == 0
    names = sorted(os.listdir(out_dir))
    assert names == ["straight-s0_fused.csv", "straight-s0_graph.txt",
                     "straight-s0_metrics.txt", "straight-s0_scatter.csv"]
    graph = load_graph(str(out_dir / "straight-s0_graph.txt"))
    assert len(graph.nodes) > 30


def test_synth_then_run_csv_roundtrip(tmp_path, capsys):
    data_dir = tmp_path / "data"
    rc = main(["synth", "--synth", "straight", "--duration", "40",
               "--ar1-sigma", "1.0", "--ar1-rho", "0.9", "--bias",
               "0.5,0.2", "--out", str(data_dir)])
    assert rc == 0
    capsys.readouterr()
    gnss = str(data_dir / "straight-s0_gnss.csv")
    odo = str(data_dir / "straight-s0_odo.csv")
    truth = str(data_dir / "straight-s0_truth.csv")
    ds = load_dataset(gnss, odo, truth)
    assert len(ds.gnss) == 40

    rc = main(["run", "--gnss", gnss, "--odo", odo, "--truth", truth,
               "--strategy", "g1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert _record_value(out, "dataset") == "straight-s0_gnss"
    assert float(_record_value(out, "fused.precision")) > 0.0


def test_synth_is_deterministic_on_disk(tmp_path, capsys):
    args = ["synth", "--synth", "highway", "--duration", "30",
            "--ar1-sigma", "0.5", "--ar1-rho", "0.8", "--seed", "4"]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    capsys.readouterr()
    for name in os.listdir(tmp_path / "a"):
        with open(tmp_path / "a" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            second = fh.read()
        assert first == second


def test_run_without_truth_prints_and_writes_no_scores(tmp_path, capsys):
    main(["synth", "--synth", "straight", "--duration", "30",
          "--out", str(tmp_path / "data")])
    capsys.readouterr()
    data = tmp_path / "data"
    out = tmp_path / "out"
    rc = main(["run", "--gnss", str(data / "straight-s0_gnss.csv"),
               "--odo", str(data / "straight-s0_odo.csv"),
               "--out", str(out)])
    assert rc == 0
    keys = [line.split(":")[0]
            for line in capsys.readouterr().out.splitlines()]
    assert keys == ["dataset", "converged", "iterations", "initial_error",
                    "final_error", "termination"]
    assert sorted(os.listdir(out)) == ["straight-s0_gnss_fused.csv",
                                       "straight-s0_gnss_metrics.txt"]


def test_batch_without_truth_stops_before_loading(tmp_path):
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit, match="need --truth"):
        main(["batch", "--gnss", missing, "--odo", missing,
              "--out", str(tmp_path / "batch")])
    assert not (tmp_path / "batch").exists()


@pytest.mark.parametrize("flag", [["--strategy", "g1"],
                                  ["--no-outlier-rejection"], ["--trace"]])
def test_batch_rejects_per_run_flags(flag, tmp_path, monkeypatch, capsys):
    """batch runs every strategy with rejection on and off and prints no
    trace, so argparse refuses those flags before any work."""
    def no_dataset(args):
        raise AssertionError("the dataset was built")

    monkeypatch.setattr(cli, "_dataset_from_args", no_dataset)
    with pytest.raises(SystemExit) as stop:
        main(["batch", "--synth", "straight", "--duration", "20", *flag,
              "--out", str(tmp_path / "batch")])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "batch").exists()


def test_run_needs_a_data_source():
    with pytest.raises(SystemExit):
        main(["run"])


def test_synth_needs_a_profile(tmp_path):
    with pytest.raises(SystemExit):
        main(["synth", "--out", str(tmp_path / "x")])


def test_bad_pair_flag_message():
    with pytest.raises(SystemExit, match="bad --bias"):
        main(["run", "--synth", "straight", "--duration", "30",
              "--bias", "1"])


@pytest.mark.parametrize("flags, why", [
    (["--synth", "straight", "--duration", "1"], "at least 2 GNSS fixes"),
    (["--synth", "urban_loop", "--duration", "60", "--standstill", "21,2"],
     "straight segment"),
    (["--synth", "straight", "--duration", "30", "--ar1-rho", "1.5",
      "--ar1-sigma", "1"], "ar1_rho"),
    (["--synth", "straight", "--duration", "30", "--ar1-sigma", "-1"],
     "ar1_sigma"),
    (["--synth", "straight", "--duration", "30", "--outlier-rate", "2"],
     "outlier_rate"),
    (["--synth", "straight", "--duration", "30", "--drift", "-0.5"],
     "drift_fraction"),
    (["--synth", "straight", "--duration", "inf"], "duration must be finite"),
    (["--synth", "straight", "--duration", "60", "--standstill", "500,300"],
     "standstill must start"),
    (["--synth", "straight", "--duration", "60", "--standstill", "nan,2"],
     "standstill must start"),
    (["--synth", "straight", "--duration", "60", "--standstill", "10,-5"],
     "standstill must start"),
    (["--synth", "straight", "--duration", "30", "--ar1-rho", "0.9"],
     "ar1_rho 0.9 needs a positive ar1_sigma"),
    (["--synth", "straight", "--duration", "30", "--outlier-rate", "0.3"],
     "outlier_rate 0.3 needs a positive outlier_magnitude"),
    (["--synth", "straight", "--duration", "30", "--outlier-magnitude",
      "50"], "outlier_magnitude 50.0 needs a positive outlier_rate"),
    (["--synth", "straight", "--duration", "30", "--outlier-rate", "0.1",
      "--outlier-magnitude", "nan"], "outlier_magnitude must be finite"),
    (["--synth", "straight", "--duration", "30", "--bias", "inf,0"],
     "bias must be a finite"),
])
def test_bad_synthetic_dataset_is_a_one_line_exit(flags, why):
    """A value the generator or an error model rejects ends the verb with
    a message, not a traceback."""
    with pytest.raises(SystemExit, match=f"bad synthetic dataset: .*{why}") \
            as stop:
        main(["run"] + flags)
    assert "\n" not in str(stop.value)


def test_cli_defaults_are_the_config_defaults(capsys):
    """With no experiment flag the CLI runs ExperimentConfig() itself, and
    the config rejects a non-positive identity stiffness however it is
    built."""
    assert main(["run", "--synth", "straight", "--duration", "30"]) == 0
    ds = generate_synthetic(0, TrajectoryProfile.STRAIGHT, duration=30.0)
    _, fused, raw, solve = run_experiment(ds, ExperimentConfig())
    assert capsys.readouterr().out == \
        render_metrics_record(ds.name, fused, raw, solve)
    with pytest.raises(ValueError, match="identity_edge_strength"):
        ExperimentConfig(identity_edge_strength=0.0)
    with pytest.raises(ValueError, match="identity_edge_strength"):
        dataclasses.replace(ExperimentConfig(), identity_edge_strength=-1.0)
    with pytest.raises(ValueError, match="identity_edge_strength"):
        ExperimentConfig(identity_edge_strength=float("inf"))


def test_bad_identity_strength_stops_before_any_work(tmp_path, monkeypatch):
    def no_dataset(args):
        raise AssertionError("the dataset was built before the config")

    monkeypatch.setattr(cli, "_dataset_from_args", no_dataset)
    out = tmp_path / "g.txt"
    for strength in ("-1", "inf"):
        with pytest.raises(SystemExit, match="bad --identity-strength"):
            main(["graph-dump", "--synth", "straight", "--duration", "20",
                  "--identity-strength", strength, "--out", str(out)])
        assert not out.exists()


def test_trace_prints_solver_iterations(capsys):
    rc = main(["run", "--synth", "straight", "--duration", "30",
               "--strategy", "g1", "--ar1-sigma", "0.8", "--ar1-rho",
               "0.9", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    trace_lines = [ln for ln in out.split("\n")
                   if ln and ln.split()[0].isdigit()]
    assert trace_lines
    first = trace_lines[0].split()
    assert len(first) == 4
    assert first[0] == "1"
    float(first[1]), float(first[2]), float(first[3])


def test_batch_writes_record_and_table(tmp_path, capsys):
    out_dir = tmp_path / "batch"
    rc = main(["batch", "--synth", "straight", "--duration", "30",
               "--ar1-sigma", "0.6", "--ar1-rho", "0.8",
               "--out", str(out_dir)])
    assert rc == 0
    stdout = capsys.readouterr().out
    with open(out_dir / "batch_table.txt") as fh:
        table = fh.read()
    assert table == stdout
    for strat in ("g1", "g2", "g3"):
        for rej in ("on", "off"):
            assert f"strategy={strat} rejection={rej}" in table
    with open(out_dir / "batch_record.txt") as fh:
        record = fh.read()
    assert "g3.off.straight-s0.precision: " in record
    assert "g1.on.improvement.max_offset: " in record


def test_graph_dump_checks_its_out_before_the_build(tmp_path, monkeypatch):
    """An --out file the OS refuses stops graph-dump with the OS's one
    line before any screen or build."""
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(cli, "_screen_and_build", no_build)
    out = tmp_path / "nodir" / "g.txt"
    with pytest.raises(OSError) as direct:
        open(out, "w")
    with pytest.raises(SystemExit) as stop:
        main(["graph-dump", "--synth", "straight", "--duration", "20",
              "--out", str(out)])
    assert stop.value.code == str(direct.value)
    assert "\n" not in stop.value.code


def test_graph_dump_variants(tmp_path, capsys):
    out = tmp_path / "g2.graph"
    rc = main(["graph-dump", "--synth", "straight", "--duration", "20",
               "--strategy", "g2", "--identity-strength", "123.0",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "nodes" in stdout and "edges" in stdout
    graph = load_graph(str(out))
    # 1 origin + 20 vehicle + 20 gnss nodes, 19 + 20 + 20 edges
    assert len(graph.nodes) == 41
    assert len(graph.edges) == 59
    ties = [e for e in graph.edges if e.kind.value == "VIRTUAL_IDENTITY"]
    assert ties[0].information[0, 0] == 123.0


def test_graph_dump_writes_the_graph_the_experiment_solves(tmp_path,
                                                           capsys):
    """The dump has the wiring of the graph the experiment returns.  On
    G2 that is the built G2 graph, GNSS nodes and ties included: the run
    solves its G1 reduction and moves the G2 graph onto that solve."""
    flags =["--synth", "straight", "--duration", "60", "--seed", "5",
             "--strategy", "g2", "--ar1-sigma", "1.0", "--ar1-rho", "0.9",
             "--outlier-rate", "0.1", "--outlier-magnitude", "50"]
    ds = generate_synthetic(
        5, TrajectoryProfile.STRAIGHT,
        GnssErrorModel(ar1_rho=0.9, ar1_sigma=1.0, outlier_rate=0.1,
                       outlier_magnitude=50.0),
        OdoErrorModel(), duration=60.0)
    sizes = []
    for screen in (True, False):
        out = tmp_path / f"screen-{screen}.graph"
        extra = [] if screen else ["--no-outlier-rejection"]
        assert main(["graph-dump", *flags, *extra, "--out", str(out)]) == 0
        dumped = load_graph(str(out))
        *_, solved = run_experiment(
            ds, ExperimentConfig(strategy=Strategy.G2,
                                 outlier_rejection=screen),
            keep_graph=True)
        assert [n.fixed for n in dumped.nodes] == \
            [n.fixed for n in solved.nodes]
        assert len(dumped.edges) == len(solved.edges)
        for a, b in zip(dumped.edges, solved.edges):
            assert (a.from_id, a.to_id, a.kind) == (b.from_id, b.to_id,
                                                     b.kind)
            assert a.measurement == b.measurement
            assert np.array_equal(a.information, b.information)
        sizes.append(len(solved.nodes))
    capsys.readouterr()
    # the outliers make the screen drop fixes, so the two graphs differ
    assert sizes[0] < sizes[1]


def test_metrics_literal_flag(capsys):
    base = ["run", "--synth", "straight", "--duration", "40",
            "--ar1-sigma", "1.0", "--ar1-rho", "0.9", "--strategy", "g1"]
    main(base)
    plain = _record_value(capsys.readouterr().out, "fused.precision")
    main(base + ["--metrics-literal"])
    literal = _record_value(capsys.readouterr().out, "fused.precision")
    assert float(literal) != float(plain)


def test_console_script_entry_point(tmp_path):
    # the child imports the same se2fusion as this test, installed or not
    src = os.path.dirname(os.path.dirname(se2fusion.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "from se2fusion.cli import main; raise SystemExit(main("
         "['run', '--synth', 'straight', '--duration', '30']))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "dataset: straight-s0" in proc.stdout


# one small noisy drive; a flag it sets is given a second, different value
NOISY = ["--synth", "straight", "--duration", "30", "--ar1-sigma", "0.8",
         "--ar1-rho", "0.9"]
SYNTHETIC_FLAGS = [
    ["--synth", "highway"], ["--seed", "3"], ["--duration", "25"],
    ["--bias", "0.5,0.2"], ["--ar1-rho", "0.5"], ["--ar1-sigma", "1.5"],
    ["--outlier-rate", "0.2", "--outlier-magnitude", "30"],
    ["--drift", "0.02"], ["--standstill", "10,3"]]
PER_RUN_FLAGS = [["--strategy", "g1"], ["--no-outlier-rejection"]]
GRAPH_FLAGS = [["--identity-strength", "10"]]


def _flag_cases(verb, csv):
    """(flags, baseline) pairs: the verb given `flags` must print or write
    something else than the verb given `baseline`.  OUT stands for a fresh
    output path; the CSV files hold the NOISY drive."""
    files = ["--gnss", csv["gnss"], "--odo", csv["odo"]]
    truth = ["--truth", csv["truth"]]
    out = [] if verb == "run" else ["--out", "OUT"]
    base = [verb, *NOISY, *out]
    cases = [([*base, *f], base) for f in SYNTHETIC_FLAGS]
    if verb in ("run", "graph-dump"):
        cases += [([*base, *f], base) for f in PER_RUN_FLAGS]
    if verb != "synth":
        cases += [([*base, *f], base) for f in GRAPH_FLAGS]
    if verb in ("run", "batch"):
        cases.append(([*base, "--metrics-literal"], base))
        cases.append(([verb, *files, *truth, *out], base))
    if verb == "run":
        cases += [([*base, "--trace"], base),
                  ([*base, "--out", "OUT"], base),
                  ([*base, "--out", "OUT", "--dump-graph"],
                   [*base, "--out", "OUT"]),
                  ([verb, *files], base),
                  ([verb, *files, *truth], [verb, *files])]
    if verb == "graph-dump":
        cases.append(([verb, *files, *out], base))
    return cases


def _outputs(argv, out, capsys):
    """The verb's stdout and the bytes of every file it writes to `out`."""
    assert main([str(out) if a == "OUT" else a for a in argv]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    if out.is_file():
        return stdout, out.read_bytes()
    written = sorted(out.iterdir()) if out.exists() else []
    return stdout, [(p.name, p.read_bytes()) for p in written]


@pytest.mark.parametrize("verb", ["run", "batch", "synth", "graph-dump"])
def test_every_flag_a_verb_takes_changes_its_output(verb, tmp_path, capsys):
    """Each flag a verb registers acts: the verb's stdout or files differ
    from the same run without it.  The cases cover every flag in the
    verb's --help."""
    main(["synth", *NOISY, "--out", str(tmp_path / "data")])
    csv = {k: str(tmp_path / "data" / f"straight-s0_{k}.csv")
           for k in ("gnss", "odo", "truth")}
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    registered = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    cases = _flag_cases(verb, csv)
    assert {a for flags, _ in cases for a in flags if a.startswith("--")} \
        == registered - {"--help"}
    runs = {}
    for flags, baseline in cases:
        for argv in (flags, baseline):
            if tuple(argv) not in runs:
                runs[tuple(argv)] = _outputs(
                    argv, tmp_path / f"out{len(runs)}", capsys)
        assert runs[tuple(flags)] != runs[tuple(baseline)], flags


@pytest.mark.parametrize("argv, flag", [
    (["graph-dump", "--trace"], "--trace"),
    (["graph-dump", "--metrics-literal"], "--metrics-literal"),
    (["graph-dump", "--truth", "t.csv"], "--truth"),
    (["synth", "--gnss", "g.csv"], "--gnss"),
    (["synth", "--strategy", "g1"], "--strategy"),
    *[([verb, "--node-rate", "per_odometry_sample"], "--node-rate")
      for verb in ("run", "batch", "synth", "graph-dump")],
])
def test_flags_a_verb_would_ignore_are_usage_errors(argv, flag, tmp_path,
                                                    capsys):
    with pytest.raises(SystemExit) as stop:
        main([*argv, "--synth", "straight", "--out", str(tmp_path / "o")])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--gnss", "g.csv", "--odo", "o.csv", "--ar1-sigma", "5",
      "--seed", "9", "--bias", "3,3"],
     "synthetic settings without --synth: seed, bias, ar1_sigma"),
    (["batch", "--gnss", "g.csv", "--odo", "o.csv", "--truth", "t.csv",
      "--duration", "30", "--out", "OUT"],
     "synthetic settings without --synth: duration"),
    (["graph-dump", "--gnss", "g.csv", "--odo", "o.csv", "--drift", "0.1",
      "--standstill", "1,2", "--out", "OUT"],
     "synthetic settings without --synth: standstill, drift_fraction"),
    (["run", "--synth", "straight", "--gnss", "g.csv", "--truth", "t.csv"],
     "--synth generates the dataset: drop --gnss, --truth"),
    (["batch", "--synth", "straight", "--odo", "o.csv", "--out", "OUT"],
     "--synth generates the dataset: drop --odo"),
    (["graph-dump", "--synth", "straight", "--gnss", "g.csv",
      "--out", "OUT"], "--synth generates the dataset: drop --gnss"),
    (["run", "--synth", "straight", "--dump-graph"],
     "--dump-graph writes into the --out directory"),
])
def test_flags_the_source_would_ignore_are_refused(argv, message, tmp_path,
                                                   monkeypatch):
    """A flag the chosen data source would drop stops the verb with one
    line before any dataset is loaded or generated."""
    def no_dataset(*args, **kwargs):
        raise AssertionError("a dataset was built")

    monkeypatch.setattr(cli, "load_dataset", no_dataset)
    monkeypatch.setattr(cli, "generate_synthetic", no_dataset)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as stop:
        main([str(out) if a == "OUT" else a for a in argv])
    assert stop.value.code == message
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "batch", "graph-dump"])
@pytest.mark.parametrize("broken", ["bad field", "mixed zones", "missing"])
def test_load_failure_is_a_one_line_exit(verb, broken, tmp_path):
    """A dataset the loader refuses ends the verb with the loader's own
    message, as a bad synthetic setting does, not with a traceback."""
    main(["synth", "--synth", "straight", "--duration", "20",
          "--out", str(tmp_path)])
    paths = [str(tmp_path / f"straight-s0_{k}.csv") for k in ("gnss", "odo")]
    gnss = tmp_path / "straight-s0_gnss.csv"
    lines = gnss.read_text().splitlines()
    if broken == "bad field":
        lines[2] = lines[2].replace(",local,", ",local,x")
    elif broken == "mixed zones":
        lines[2] = lines[2].replace(",local,", ",32N,")
    else:
        paths[1] = str(tmp_path / "missing_odo.csv")
    gnss.write_text("\n".join(lines) + "\n")
    with pytest.raises((OSError, ValueError)) as direct:
        load_dataset(*paths)
    truth = [] if verb == "graph-dump" else \
        ["--truth", str(tmp_path / "straight-s0_truth.csv")]
    out = [] if verb == "run" else ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as stop:
        main([verb, "--gnss", paths[0], "--odo", paths[1], *truth, *out])
    assert stop.value.code == str(direct.value)
    assert "\n" not in stop.value.code


def _unfusable(tmp_path, case):
    """GNSS, odometry and truth CSVs of a 2 s drive at 10 m/s that load
    but cannot be fused: one fix, odometry that ends at 0.08 s, or a
    truth track between the fixes."""
    fixes = [0.0] if case == "one fix" else [0.0, 1.0, 2.0]
    odo_t = np.arange(0.0, 0.1 if case == "uncovered" else 2.1, 0.04)
    truth = [0.5, 1.5] if case == "no truth match" else fixes
    tables = {
        "gnss": ["t,utm_x,utm_y,zone,epx,epy,epv"]
        + [f"{t:g},{10 * t:g},0,local,0.5,0.5,1" for t in fixes],
        "odo": ["t,yaw_rate,velocity"] + [f"{t:.2f},0,10" for t in odo_t],
        "truth": ["t,utm_x,utm_y"] + [f"{t:g},{10 * t:g},0" for t in truth],
    }
    paths = []
    for kind, lines in tables.items():
        paths.append(tmp_path / f"u_{kind}.csv")
        paths[-1].write_text("\n".join(lines) + "\n")
    return [str(p) for p in paths]


@pytest.mark.parametrize("verb,case", [
    (verb, case) for verb in ("run", "batch", "graph-dump")
    for case in ("one fix", "uncovered", "no truth match")
    if verb != "graph-dump" or case != "no truth match"])
def test_a_dataset_that_cannot_be_fused_is_a_one_line_exit(verb, case,
                                                           tmp_path):
    """A dataset that loads but cannot be fused ends the verb with the
    package's own message, as the API raises it, not with a traceback.
    batch screens (and so rejects the uncovered fixes); run and
    graph-dump are asked not to."""
    gnss, odo, truth = _unfusable(tmp_path, case)
    ds = load_dataset(gnss, odo, None if verb == "graph-dump" else truth)
    cfg = ExperimentConfig(outlier_rejection=verb == "batch")
    with pytest.raises((TooFewReadingsError, InsufficientCoverageError,
                        EmptyInputError, NeedTwoPosesError)) as direct:
        if verb == "batch":
            run_batch([ds], cfg)
        elif verb == "run":
            run_experiment(ds, cfg)
        else:
            cli._screen_and_build(ds, cfg)
    args = [verb, "--gnss", gnss, "--odo", odo]
    args += ["--out", str(tmp_path / "out")] if verb != "run" else []
    args += ["--truth", truth] if verb != "graph-dump" else []
    args += ["--no-outlier-rejection"] if verb != "batch" else []
    with pytest.raises(SystemExit) as stop:
        main(args)
    assert stop.value.code == str(direct.value)
    assert "\n" not in stop.value.code


def test_graph_dump_keeps_an_existing_out_when_the_build_fails(tmp_path):
    gnss, odo, _ = _unfusable(tmp_path, "one fix")
    out = tmp_path / "g.txt"
    out.write_text("keep this")
    with pytest.raises(SystemExit, match="need at least 2 accepted GNSS"):
        main(["graph-dump", "--gnss", gnss, "--odo", odo, "--out", str(out)])
    assert out.read_text() == "keep this"


def test_graph_dump_removes_the_out_it_made_when_the_build_fails(tmp_path):
    gnss, odo, _ = _unfusable(tmp_path, "one fix")
    out = tmp_path / "new.txt"
    before = sorted(tmp_path.iterdir())
    with pytest.raises(SystemExit, match="need at least 2 accepted GNSS"):
        main(["graph-dump", "--gnss", gnss, "--odo", odo, "--out", str(out)])
    assert not out.exists()
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("verb", ["run", "batch", "synth", "graph-dump"])
def test_an_output_path_the_os_refuses_is_a_one_line_exit(verb, tmp_path,
                                                          monkeypatch):
    """An --out the OS refuses (an existing file where a directory goes,
    a file in a missing directory) ends the verb with the OS's own
    message, and run and batch stop before any experiment."""
    def no_work(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", no_work)
    monkeypatch.setattr(cli, "run_batch", no_work)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    if verb == "graph-dump":
        out = tmp_path / "nodir" / "g.txt"
        with pytest.raises(OSError) as direct:
            open(out, "w")
    else:
        out = taken
        with pytest.raises(OSError) as direct:
            os.makedirs(out, exist_ok=True)
    with pytest.raises(SystemExit) as stop:
        main([verb, "--synth", "straight", "--duration", "20",
              "--out", str(out)])
    assert stop.value.code == str(direct.value)
    assert "\n" not in stop.value.code
    assert taken.read_text() == "kept\n"
