"""What the benchmark under bench/ reads from the package.

The benchmark times the pipeline from outside: bench/spans.py wraps
module attributes and reduces what the wrapped calls return, and
bench/run.py reads the screen's flags and compares re-chained poses.
This test makes the benchmark's calls on one short drive, so that a
change which removes something the benchmark reads fails here, not only
in a benchmark run.
"""

import math
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

from spans import HOOKS, NOTES, Tracer, layer_metrics  # noqa: E402
from workloads import Workload, write_inputs  # noqa: E402

# hooks the benchmark still names although the package has dropped them
# (ROADMAP item 1); any other absent hook is a break
KNOWN_ABSENT = {
    "se2fusion.gnss.preintegrate", "se2fusion.builders.preintegrate",
    "se2fusion.solver.edge_residual", "se2fusion.solver.edge_jacobians",
    "se2fusion.solver.retract", "se2fusion.solver.splu"}


def test_traced_pass_reads_what_the_package_provides(tmp_path):
    from se2fusion import builders, dataset, metrics

    workload = Workload("contract", "straight", "g1", drives=1,
                        duration_s=30.0, bias_m=(0.2, 0.1), ar1_sigma_m=0.3,
                        outlier_rate=0.1, outlier_magnitude_m=50.0,
                        product="screened")
    config = {case: dataset.ExperimentConfig(
        strategy=builders.Strategy(workload.strategy),
        outlier_rejection=(case == "screened"))
        for case in ("screened", "unscreened")}
    tracer = Tracer()
    # the calls of bench/run.py's set-up and run_pass, in its order
    with tracer:
        drive, = write_inputs(workload, 3, str(tmp_path / "in"))["drives"]
        ds = dataset.load_dataset(drive["gnss"], drive["odo"],
                                  drive["truth"], drive["name"])
        screened = dataset.run_experiment(ds, config["screened"], None, True)
        flags = [r.accepted for r in ds.gnss]
        unscreened = dataset.run_experiment(ds, config["unscreened"], None,
                                            True)
        kept = [r for r, f in zip(ds.gnss, flags) if f]
        full_t, full_p = builders.full_rate_trajectory(screened[4], kept,
                                                       ds.odometry)
        dataset.export_results(*screened[:4], str(tmp_path / "out"), ds)

    assert set(tracer.absent) <= KNOWN_ABSENT
    installed = {span for module, attr, span in HOOKS
                 if f"{module}.{attr}" not in tracer.absent}
    ran = {tracer.names[i] for i in tracer.name_id}
    assert ran == installed
    # every note reducer of an installed hook ran on what its call returned
    noted = {tracer.names[tracer.name_id[i]] for i in tracer.notes}
    assert noted == set(NOTES) & installed
    layers = layer_metrics(tracer)
    assert layers["gnss.fixes_screened"][0] == len(ds.gnss)
    assert layers["gnss.fixes_rejected"][0] == flags.count(False)
    assert layers["graph.nodes"][0] == \
        len(screened[4].poses) + len(unscreened[4].poses)

    # run.py: the screen's flags, missed outliers and check_drive
    assert all(type(f) is bool for f in flags)
    assert drive["injected"] and not any(flags[k] for k in drive["injected"])
    # report_metrics pools the matched rows of every drive and case with
    # += on a list, which an array of rows breaks
    pairs = []
    for case in (screened, unscreened):
        trajectory, _, _, report = case[:4]
        assert math.isfinite(report.initial_error)
        assert report.final_error <= report.initial_error
        assert report.iterations > 0 and report.termination.value
        got, _ = metrics.match_pps([t for t, _ in trajectory],
                                   [(p.x, p.y) for _, p in trajectory],
                                   ds.truth.timestamps, ds.truth.positions)
        assert len(got) == len(trajectory)
        pairs += got
    pooled = metrics.compute_metrics(pairs)
    assert pooled.n == len(screened[0]) + len(unscreened[0])
    pose_at = dict(zip(full_t, full_p))
    assert all(b > a for a, b in zip(full_t, full_t[1:]))
    assert len(screened[0]) == len(kept)
    assert all(pose_at.get(t) == p for t, p in screened[0])
