"""Fusion benchmark: one command, one workload, one seed per run.

    python3 bench/run.py --workload straight-g1 --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ./src of
the same checkout.  A run is a closed loop in one process and one
thread: each call into the program is issued after the previous one
returns.

--trace 0 times the pipeline untraced and prints the end-to-end
metrics; --trace 1 alternates untraced and traced passes and prints the
per-layer metrics.  Lines before the last one are a human-readable
report (environment, per-case quality, failures); the last line is one
JSON object with the keys correct, attempted, failed and metrics.  The
full record, with the environment, also goes to
.bench_work/results/<workload>-seed<seed>-trace<t>.json.  README.md
explains the workloads and every metric.
"""

from __future__ import annotations

import os

# one thread: keep BLAS from starting workers of its own
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spans import CASES, Tracer, layer_metrics
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
# each drive is loaded and exported this many times and io_s takes the
# median of each: the first load after a fusion took up to 1.4x as long
# as the later ones, by an amount that changed from drive to drive
IO_REPEATS = 3
# a traced pass must be accounted for by its top-level spans within this
TRACE_COVERAGE_TOLERANCE_PCT = 5.0

# fuse_s, rechain_s and io_s are corrected for the speed of the shared
# host.  The same work took from 1x to 1.9x as long within one 90 s
# stretch on the 2-vCPU VM this was sized on, while the ratio of the
# program's time to a fixed interpreter-bound kernel timed beside it
# varied by only 5 % (interquartile range over median, for 29 % in the
# raw times).  Each pass times the kernel before every load and export;
# times divided by the kernel's time are reported in units of
# REFERENCE_S seconds.
REFERENCE_S = 0.015

clock = time.perf_counter


def reference_work() -> float:
    """Wall time of one run of a fixed kernel that never changes.

    Small-array numpy and math calls in a Python loop: the same kind of
    work as the program's per-edge linearization and re-chaining.
    """
    start = clock()
    m = np.eye(3)
    v0 = np.array([1.0, 2.0, 0.5])
    acc = 0.0
    for i in range(2000):
        c, s = math.cos(i * 1e-3), math.sin(i * 1e-3)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        v = r @ m @ v0
        acc += float(v @ v)
    return clock() - start


def import_program() -> None:
    """Make `se2fusion` import from this checkout's src/, nowhere else."""
    if not (SRC / "se2fusion" / "__init__.py").is_file():
        raise SystemExit(f"bench: no se2fusion package under {SRC}")
    sys.path.insert(0, str(SRC))
    import se2fusion
    if Path(se2fusion.__file__).resolve().parent != SRC / "se2fusion":
        raise SystemExit(f"bench: imported se2fusion from "
                         f"{se2fusion.__file__}, not from {SRC}")


def benchmark_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"bench: {path} is missing")
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------- environment

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash() -> str:
    """sha256 over the program's sources: identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "se2fusion").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"host": platform.node(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "git_commit": _git_commit(),
            "source_sha256": source_hash(), "workload": args.workload,
            "seed": args.seed, "trace": args.trace}


# -------------------------------------------------------------------- set-up

def timed_setups(workload, seed: int, directory: Path) -> list:
    """Wall time of each set-up: fresh interpreter, import, generate, write."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        subprocess.run([sys.executable, str(HERE / "workloads.py"),
                        workload.name, str(seed), str(directory)],
                       env=env, cwd=ROOT, check=True, timeout=170)
        times.append(clock() - t0)
    return times


# ---------------------------------------------------------------------- pass

def paired_with_kernel(call, kernel: list):
    """Run `call` IO_REPEATS times, each right after the reference kernel.

    Appends every kernel time to `kernel`.  Returns the last result, the
    median of call time over the kernel time just before it, and the
    median call time.  The host's speed changes within a second, so a
    kernel run just before each call tracks it closer than one per pass.
    """
    ratios, walls = [], []
    for _ in range(IO_REPEATS):
        k = reference_work()
        kernel.append(k)
        t0 = clock()
        result = call()
        walls.append(clock() - t0)
        ratios.append(walls[-1] / k)
    return result, statistics.median(ratios), statistics.median(walls)


def run_pass(workload, drives, out_dir) -> dict:
    """Fuse every drive of the panel once; return timings and outputs.

    Per drive: load the CSVs, run the screened and the unscreened case,
    re-chain the product case to full rate (every `rechain_every`-th
    drive), export the product case's results.  Loading and exporting
    are each done IO_REPEATS times, after the reference kernel, and
    io_s is the sum of their medians in kernel units (see
    paired_with_kernel).  The kernel times of the whole pass also
    correct fuse_s and rechain_s.  Calls go through the module
    attributes, so an installed Tracer sees them.  Kernel time is left
    out of the pass's wall time.
    """
    from se2fusion import builders, dataset
    config = {c: dataset.ExperimentConfig(
        strategy=builders.Strategy(workload.strategy),
        outlier_rejection=(c == "screened")) for c in CASES}
    fuse = rechain = io = io_wall = 0.0
    kernel = []
    results = []
    start = clock()
    for k, d in enumerate(drives):
        res = {"drive": d, "error": None}
        try:
            ds, load_ratio, load_wall = paired_with_kernel(
                lambda: dataset.load_dataset(d["gnss"], d["odo"],
                                             d["truth"], d["name"]),
                kernel)
            t1 = clock()
            screened = dataset.run_experiment(ds, config["screened"],
                                              None, True)
            t2 = clock()
            flags = [r.accepted for r in ds.gnss]
            t3 = clock()
            unscreened = dataset.run_experiment(ds, config["unscreened"],
                                                None, True)
            t4 = clock()
            if workload.product == "screened":
                product = screened
                kept = [r for r, f in zip(ds.gnss, flags) if f]
            else:
                product, kept = unscreened, ds.gnss
            full = None
            t5 = clock()
            if k % workload.rechain_every == 0:
                full = builders.full_rate_trajectory(product[4], kept,
                                                     ds.odometry)
            t6 = clock()
            _, export_ratio, export_wall = paired_with_kernel(
                lambda: dataset.export_results(*product[:4], out_dir, ds),
                kernel)
        except Exception as exc:  # a failed case is counted, not fatal
            res["error"] = f"{type(exc).__name__}: {exc}"
            results.append(res)
            continue
        io += (load_ratio + export_ratio) * REFERENCE_S
        io_wall += load_wall + export_wall
        fuse += (t2 - t1) + (t4 - t3)
        rechain += t6 - t5
        res.update(truth=ds.truth, flags=flags, full=full,
                   screened=screened[:4], unscreened=unscreened[:4])
        results.append(res)
    return {"wall_s": clock() - start - sum(kernel), "fuse_s": fuse,
            "rechain_s": rechain, "io_s": io, "io_wall_s": io_wall,
            "ref_s": statistics.mean(kernel) if kernel else REFERENCE_S,
            "drives": results}


# -------------------------------------------------------------------- checks

def check_drive(res, workload) -> dict:
    """Failure reason per case; None when the case passed."""
    if res["error"] is not None:
        return {c: res["error"] for c in CASES}
    verdict = {}
    for case in CASES:
        trajectory, _, _, report = res[case]
        chi0, chi = report.initial_error, report.final_error
        if not (math.isfinite(chi0) and math.isfinite(chi)):
            verdict[case] = f"non-finite chi2 ({chi0}, {chi})"
        elif chi > chi0:
            verdict[case] = f"final chi2 {chi!r} above initial {chi0!r}"
        elif not trajectory:
            verdict[case] = "empty trajectory"
        else:
            verdict[case] = None
    if res["full"] is None:
        return verdict
    full_t, full_p = res["full"]
    pose_at = dict(zip(full_t, full_p))
    trajectory = res[workload.product][0]
    misses = sum(1 for t, p in trajectory if pose_at.get(t) != p)
    if any(b <= a for a, b in zip(full_t, full_t[1:])):
        verdict[workload.product] = "re-chained timestamps not increasing"
    elif misses:
        verdict[workload.product] = (
            f"re-chained trajectory misses {misses} optimized node poses")
    return verdict


def fingerprint(res) -> list:
    """Exact counts of one drive; identical in every pass of one commit."""
    if res["error"] is not None:
        return [res["error"]]
    out = [sum(res["flags"]), len(res["full"][0]) if res["full"] else 0]
    for case in CASES:
        trajectory, _, _, report = res[case]
        out += [len(trajectory), report.iterations, report.termination.value]
    return out


def report_metrics(passed, outcome) -> dict:
    """Fused-track quality and failure figures of one pass.

    Quality is pooled over the panel's drives: every fix scored in any
    drive counts once.  Coverage is scored fixes over truth epochs; the
    quality of a case that scores few fixes says little without it.
    """
    from se2fusion import metrics
    out = {}
    drives = [res for res in passed["drives"] if res["error"] is None]
    for case in CASES:
        pairs = []
        for res in drives:
            trajectory = res[case][0]
            got, _ = metrics.match_pps(
                [t for t, _ in trajectory],
                [(p.x, p.y) for _, p in trajectory],
                res["truth"].timestamps, res["truth"].positions)
            pairs += got
        rep = metrics.compute_metrics(pairs) if len(pairs) >= 2 else None
        for key in ("max_offset", "accuracy", "precision"):
            out[f"{case}.{key}_m"] = (
                getattr(rep, key) if rep else 0.0, "m")
        if case == "screened":
            epochs = sum(len(res["truth"].timestamps) for res in drives)
            out["screened.coverage_pct"] = (
                100.0 * len(pairs) / epochs if epochs else 0.0, "%")
    out["missed_outliers"] = (
        sum(1 for res in drives for k in res["drive"]["injected"]
            if res["flags"][k]), "count")
    out["failed_pct"] = (100.0 * outcome.failed / outcome.attempted, "%")
    out["unconverged_pct"] = (
        100.0 * (outcome.solves - outcome.converged) / outcome.solves
        if outcome.solves else 0.0, "%")
    return out


class Outcome:
    """Failure and determinism bookkeeping over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.solves = 0
        self.converged = 0
        self.problems: list[str] = []
        self.counts = None

    def record(self, passed) -> None:
        for res in passed["drives"]:
            for case, reason in check_drive(res, self.workload).items():
                self.attempted += 1
                if reason is not None:
                    self.failed += 1
                    self.problems.append(
                        f"{res['drive']['name']} {case}: {reason}")
                if res["error"] is None:
                    self.solves += 1
                    self.converged += bool(res[case][3].converged)
        counts = [fingerprint(res) for res in passed["drives"]]
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.problems.append("exact counts differ between passes")

    @property
    def correct(self) -> bool:
        return not self.problems


def compare_stored_counts(key: str, counts, outcome: Outcome) -> None:
    """Flag counts that differ from an earlier run of the same code."""
    path = WORK / "counts" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    counts = json.loads(json.dumps(counts))
    if path.is_file():
        with open(path) as fh:
            if json.load(fh) != counts:
                outcome.problems.append(
                    f"exact counts differ from an earlier run ({path.name})")
        return
    with open(path, "w") as fh:
        json.dump(counts, fh)


# ---------------------------------------------------------------------- runs

def load_drives(directory: Path) -> list:
    with open(directory / "inputs.json") as fh:
        return json.load(fh)["drives"]


def measure(workload, drives, out_dir, seconds, outcome, tracer=None):
    """As many whole passes as fit in `seconds`, at least one of each kind.

    A warm-up on the first drive comes first and is not timed.  Without
    a tracer every pass is untraced.  With one, untraced and traced
    passes alternate; each traced pass is reduced to per-layer metrics
    before the next starts.  Another pass (or pair) starts only if one
    more like the last still fits.  Only the first pass keeps its
    outputs, so peak memory does not grow with the number of passes.
    """
    run_pass(workload, drives[:1], out_dir)
    untraced, traced = [], []
    start = clock()
    while True:
        round_start = clock()
        passed = run_pass(workload, drives, out_dir)
        outcome.record(passed)
        if untraced:
            del passed["drives"]
        untraced.append(passed)
        if tracer is not None:
            tracer.clear()
            with tracer:
                passed = run_pass(workload, drives, out_dir)
            outcome.record(passed)
            del passed["drives"]
            traced.append((passed, layer_metrics(tracer)))
        now = clock()
        if now - start + (now - round_start) > seconds:
            return untraced, traced


def end_to_end(untraced, setups) -> dict:
    """Medians over passes; in-process times corrected for host speed.

    setup_s stays plain wall seconds: it is mostly interpreter start
    and import in child processes, which the kernel does not track.
    """
    out = {key: (statistics.median(p[key] * REFERENCE_S / p["ref_s"]
                                   for p in untraced), "s")
           for key in ("fuse_s", "rechain_s")}
    out["io_s"] = (statistics.median(p["io_s"] for p in untraced), "s")
    out["setup_s"] = (statistics.median(setups), "s")
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(untraced, traced, setup_tracer, tracer, outcome) -> dict:
    """Per-layer figures: counts from the traced passes (which must all
    agree), times as their median over the traced passes."""
    out = {}
    for name, (value, unit) in traced[-1][1].items():
        if unit == "s":
            value = statistics.median(m[name][0] for _, m in traced)
        out[name] = (value, unit)
    counts = [{k: v for k, (v, u) in m.items() if u == "count"}
              for _, m in traced]
    if any(c != counts[0] for c in counts):
        outcome.problems.append("per-layer counts differ between passes")
    out["synth.generate_s"] = (setup_tracer.self_seconds("synth.generate"),
                               "s")
    # both walls in reference-kernel units, so a host slow spell during
    # one kind of pass does not read as tracing overhead
    wall_traced = statistics.median(p["wall_s"] / p["ref_s"]
                                    for p, _ in traced)
    wall_plain = statistics.median(p["wall_s"] / p["ref_s"]
                                   for p in untraced)
    out["trace.overhead_pct"] = (100.0 * (wall_traced / wall_plain - 1.0),
                                 "%")
    coverage = [100.0 * m["trace.top_level_s"][0] / p["wall_s"]
                for p, m in traced]
    out["trace.coverage_pct"] = (statistics.median(coverage), "%")
    for c in coverage:
        if abs(c - 100.0) > TRACE_COVERAGE_TOLERANCE_PCT:
            outcome.problems.append(
                f"top-level spans cover {c:.1f}% of the traced pass")
    out["trace.absent_hooks"] = (
        len(set(tracer.absent) | set(setup_tracer.absent)), "count")
    out["host.slowdown"] = (
        statistics.median(p["ref_s"] for p, _ in traced) / REFERENCE_S, "1")
    return out


def main(argv=None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{workload.name}-seed{args.seed}"
    out_dir = run_dir / "out"
    env = environment(args)
    outcome = Outcome(workload)

    if args.trace:
        setup_tracer = Tracer()
        with setup_tracer:
            write_inputs(workload, args.seed, str(run_dir))
        tracer = Tracer()
        untraced, traced = measure(workload, load_drives(run_dir), out_dir,
                                   args.seconds, outcome, tracer)
        metrics = per_layer(untraced, traced, setup_tracer, tracer, outcome)
        (WORK / "results").mkdir(parents=True, exist_ok=True)
        tracer.save(str(WORK / "results" /
                        f"{workload.name}-seed{args.seed}.spans.npz"))
        absent = sorted(set(tracer.absent) | set(setup_tracer.absent))
        if absent:
            print("absent hooks: " + ", ".join(absent))
        wanted = spec["per_layer"]
        counts = {k: v for k, (v, u) in metrics.items() if u == "count"}
    else:
        setups = timed_setups(workload, args.seed, run_dir)
        untraced, _ = measure(workload, load_drives(run_dir), out_dir,
                              args.seconds, outcome)
        metrics = end_to_end(untraced, setups)
        raw = {k: statistics.median(p[k] for p in untraced)
               for k in ("fuse_s", "rechain_s", "io_wall_s", "ref_s")}
        print(f"uncorrected wall seconds: fuse_s={raw['fuse_s']:.4f}  "
              f"rechain_s={raw['rechain_s']:.4f}  "
              f"io_s={raw['io_wall_s']:.4f}  "
              f"host slowdown={raw['ref_s'] / REFERENCE_S:.3f}")
        wanted = spec["end_to_end"]
        counts = outcome.counts
    report = report_metrics(untraced[0], outcome)
    if args.trace:
        metrics.update(report)
    inputs = hashlib.sha256(repr(workload).encode()).hexdigest()
    compare_stored_counts(
        f"{env['source_sha256'][:16]}-{inputs[:8]}-{workload.name}"
        f"-seed{args.seed}-trace{args.trace}", counts, outcome)

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise SystemExit("bench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(names) ^ set(metrics))}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                    for n in names},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = WORK / "results" / (f"{workload.name}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"environment": env, "problems": outcome.problems,
                   "passes": [{k: v for k, v in p.items() if k != "drives"}
                              for p in untraced],
                   "report": report, **result},
                  fh, indent=1)
    print("environment: " + json.dumps(env))
    print(f"passes: {len(untraced)}  drives: {len(untraced[0]['drives'])}")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    for name, (value, unit) in {**report, **metrics}.items():
        print(f"{name}: {value!r} {unit}")
    print(json.dumps(result))
    shutil.rmtree(run_dir)   # inputs and exports; results stay
    return 0


if __name__ == "__main__":
    sys.exit(main())
