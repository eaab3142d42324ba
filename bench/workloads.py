"""Benchmark workloads: what each one feeds the program and how it is set up.

A workload is a panel of synthetic drives that share one route profile,
one GNSS/odometry error model and one graph strategy.  The run seed
picks the drives' noise realizations, so the same seed always gives the
same CSV files.  A run fuses several short drives rather than one long
one because solver work varies from drive to drive (dogleg iteration
counts differ by up to 2x between noise realizations); summing a panel
keeps a run's figures steady from seed to seed.  See README.md for why
each workload exists.

Run as a script, this module is the set-up step that run.py times in a
fresh interpreter:

    python3 bench/workloads.py WORKLOAD SEED DIRECTORY
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

AR1_RHO = 0.95
ODO_DRIFT = 0.011


@dataclass(frozen=True)
class Workload:
    name: str
    profile: str          # se2fusion.synth.TrajectoryProfile value
    strategy: str         # se2fusion.builders.Strategy value
    drives: int
    duration_s: float
    bias_m: tuple
    ar1_sigma_m: float
    speed_mps: float | None = None
    outlier_rate: float = 0.0
    outlier_magnitude_m: float = 0.0
    # the case whose track is re-chained to full rate and exported
    product: str = "unscreened"
    # re-chain drives 0, n, 2n, ...: the re-chain costs about 0.1 ms per
    # odometry sample, more than the fusion itself, and spreading it
    # over the pass evens out the host's short slow spells
    rechain_every: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("straight-g1", "straight", "g1", drives=32, duration_s=200.0,
             bias_m=(0.7 / math.sqrt(2.0),) * 2, ar1_sigma_m=1.625,
             speed_mps=5.0, rechain_every=2),
    Workload("outliers-g1", "straight", "g1", drives=32, duration_s=60.0,
             bias_m=(0.2, 0.1), ar1_sigma_m=0.3, outlier_rate=0.1,
             outlier_magnitude_m=50.0, product="screened"),
    Workload("urban-g2", "urban_loop", "g2", drives=12, duration_s=480.0,
             bias_m=(0.3, 0.2), ar1_sigma_m=0.6, rechain_every=3),
)}


def drive_seed(seed: int, k: int) -> int:
    """Generator seed of drive k in the panel of run seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_inputs(workload: Workload, seed: int, directory: str) -> dict:
    """Generate the panel and write it as the CSV files the program loads.

    Writes <drive>_gnss.csv (pre-projected schema), <drive>_odo.csv,
    <drive>_truth.csv and inputs.json, which lists the drives with the
    indices of the fixes that received an injected jump.
    """
    from se2fusion import synth

    os.makedirs(directory, exist_ok=True)
    profile = synth.TrajectoryProfile(workload.profile)
    gnss_error = synth.GnssErrorModel(
        workload.bias_m, AR1_RHO, workload.ar1_sigma_m,
        workload.outlier_rate, workload.outlier_magnitude_m)
    odo_error = synth.OdoErrorModel(ODO_DRIFT)
    drives = []
    for k in range(workload.drives):
        name = f"drive{k:02d}"
        dseed = drive_seed(seed, k)
        ds = synth.generate_synthetic(dseed, profile, gnss_error, odo_error,
                                      workload.duration_s,
                                      speed=workload.speed_mps, name=name)
        injected = []
        if workload.outlier_rate > 0.0:
            injected = synth.injected_outlier_indices(
                dseed, profile, gnss_error, odo_error, workload.duration_s,
                speed=workload.speed_mps)
        paths = {kind: os.path.join(directory, f"{name}_{kind}.csv")
                 for kind in ("gnss", "odo", "truth")}
        _write_csv(paths["gnss"], "t,utm_x,utm_y,zone,epx,epy,epv",
                   ((_fmt(r.timestamp), _fmt(r.position[0]),
                     _fmt(r.position[1]), "local", _fmt(r.epx), _fmt(r.epy),
                     _fmt(r.epv)) for r in ds.gnss))
        s = ds.odometry
        _write_csv(paths["odo"], "t,yaw_rate,velocity",
                   ((_fmt(t), _fmt(w), _fmt(v)) for t, w, v in
                    zip(s.timestamps, s.yaw_rates, s.velocities)))
        _write_csv(paths["truth"], "t,utm_x,utm_y",
                   ((_fmt(t), _fmt(p[0]), _fmt(p[1])) for t, p in
                    zip(ds.truth.timestamps, ds.truth.positions)))
        drives.append({"name": name, "seed": dseed, "injected": injected,
                       **paths})
    meta = {"workload": workload.name, "seed": seed, "drives": drives}
    with open(os.path.join(directory, "inputs.json"), "w") as fh:
        json.dump(meta, fh)
    return meta


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: {sys.argv[0]} "
                         f"{{{','.join(WORKLOADS)}}} SEED DIRECTORY")
    write_inputs(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
