"""Spans around the program's public functions, recorded from outside.

The tracer replaces a function at the name its calling module uses
(for example `se2fusion.solver.edge_residual`, the name optimize() looks
up) with a wrapper that records one span per call: name, parent span,
start and end.  Nothing under src/ changes; uninstall() puts the
original objects back.  A hooked name that no longer exists is listed
in `absent` instead of raising, so a refactor that removes it shows up
as a zero in the report rather than a crash.

Spans stay in memory in flat arrays and are reduced to per-layer
metrics, or written to disk, once the traced pass has ended.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array

import numpy as np

# (module, attribute, span name).  The module is the caller's: the
# wrapper only sees calls that go through that module's global name.
HOOKS = (
    ("se2fusion.synth", "generate_synthetic", "synth.generate"),
    ("se2fusion.dataset", "load_dataset", "dataset.load"),
    ("se2fusion.dataset", "run_experiment", "dataset.run_experiment"),
    ("se2fusion.dataset", "export_results", "dataset.export"),
    ("se2fusion.dataset", "reject_outliers", "gnss.screen"),
    ("se2fusion.gnss", "preintegrate", "odometry.preintegrate"),
    ("se2fusion.dataset", "build", "builders.build"),
    ("se2fusion.builders", "preintegrate", "odometry.preintegrate"),
    ("se2fusion.builders", "full_rate_trajectory", "builders.rechain"),
    ("se2fusion.dataset", "optimize", "solver.optimize"),
    ("se2fusion.solver", "edge_residual", "se2.edge_residual"),
    ("se2fusion.solver", "edge_jacobians", "se2.edge_jacobians"),
    ("se2fusion.solver", "retract", "se2.retract"),
    ("se2fusion.solver", "splu", "solver.factor"),
    ("se2fusion.dataset", "match_pps", "metrics.match_pps"),
    ("se2fusion.dataset", "compute_metrics", "metrics.compute"),
)


def _note_knots(args, kwargs, result):
    # knots of one window: its two ends plus every raw sample inside
    stream = args[0] if args else kwargs["samples"]
    t = stream.timestamps
    lo = np.searchsorted(t, result.t_start, side="right")
    hi = np.searchsorted(t, result.t_end, side="left")
    return int(hi - lo) + 2


def _note_graph(args, kwargs, result):
    return (len(result.nodes), len(result.edges),
            3 * sum(1 for n in result.nodes if not n.fixed))


def _note_screen(args, kwargs, result):
    return (len(result.readings),
            sum(1 for r in result.readings if not r.accepted),
            result.uncovered)


def _note_solve(args, kwargs, result):
    graph = args[0] if args else kwargs["graph"]
    return (len(graph.edges), result)


def _note_case(args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs.get("config")
    return "screened" if config is None or config.outlier_rejection \
        else "unscreened"


# what a wrapper keeps about one call, computed after its span has ended
NOTES = {
    "odometry.preintegrate": _note_knots,
    "builders.build": _note_graph,
    "gnss.screen": _note_screen,
    "solver.optimize": _note_solve,
    "solver.factor": lambda args, kwargs, result: int(args[0].nnz),
    "metrics.match_pps": lambda args, kwargs, result: len(result[0]),
    "dataset.export": lambda args, kwargs, result:
        sum(os.path.getsize(p) for p in result),
    "dataset.run_experiment": _note_case,
}


class Tracer:
    """Records nested spans of the hooked functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.absent: list[str] = []
        self._saved: list[tuple] = []
        self._stack: list[int] = []
        self.clear()

    def clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}

    def _wrap(self, span: str, fn):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        nid = self._name_ids[span]
        note = NOTES.get(span)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, span in HOOKS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                qualified = f"{module_name}.{attr}"
                if qualified not in self.absent:
                    self.absent.append(qualified)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def arrays(self):
        """(name id, parent index, duration, self time) per span."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(dur.size)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        return nid, parent, dur, dur - child

    def self_seconds(self, span: str) -> float:
        """Summed self time of every span with this name."""
        nid, _, _, self_t = self.arrays()
        ids = [i for i, n in enumerate(self.names) if n == span]
        return float(self_t[np.isin(nid, ids)].sum())

    def save(self, path: str) -> None:
        """Write the recorded spans as an .npz file."""
        np.savez(path, names=np.array(self.names), name_id=self.name_id,
                 parent=self.parent, start=self.start, end=self.end)


CASES = ("screened", "unscreened")
CALLERS = {"builders.build": "build", "gnss.screen": "screen",
           "builders.rechain": "rechain"}
TERMINATIONS = ("abs_tol", "rel_tol", "step_tol", "max_iter",
                "trust_region_collapse")


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce one traced pass to per-layer counts and self times."""
    nid, parent, dur, self_t = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    calls = np.bincount(nid, minlength=n_names)
    self_s = np.bincount(nid, weights=self_t, minlength=n_names)

    def ids(span):
        return [i for i, n in enumerate(names) if n == span]

    def count(span):
        return int(sum(calls[i] for i in ids(span)))

    def seconds(span):
        return float(sum(self_s[i] for i in ids(span)))

    def spans_of(span):
        return np.flatnonzero(np.isin(nid, ids(span)))

    out = {}
    for span, key in (("se2.edge_residual", "se2.edge_residual"),
                      ("se2.edge_jacobians", "se2.edge_jacobians"),
                      ("se2.retract", "se2.retract")):
        out[f"{key}_calls"] = (count(span), "count")
        out[f"{key}_s"] = (seconds(span), "s")

    # solver: per-solve figures from the report, pass counts from the
    # residual calls each solve made (initial chi2, one per iteration,
    # one per trial step)
    residual_ids = ids("se2.edge_residual")
    residual_parent = parent[np.isin(nid, residual_ids)]
    per_case = {c: dict(iterations=0, chi2_passes=0, rejected_steps=0,
                        chi2_initial=0.0, chi2_final=0.0) for c in CASES}
    terminations = dict.fromkeys(TERMINATIONS, 0)
    for idx in spans_of("solver.optimize"):
        edges, report = tracer.notes[int(idx)]
        case = tracer.notes.get(int(parent[idx]), "screened")
        passes = int(np.count_nonzero(residual_parent == idx)) // max(edges, 1)
        agg = per_case[case]
        agg["iterations"] += report.iterations
        agg["chi2_passes"] += passes
        agg["rejected_steps"] += max(passes - 1 - 2 * report.iterations, 0)
        agg["chi2_initial"] += report.initial_error
        agg["chi2_final"] += report.final_error
        kind = report.termination.value
        terminations[kind] = terminations.get(kind, 0) + 1
    out["solver.optimize_s"] = (seconds("solver.optimize"), "s")
    for case, agg in per_case.items():
        for key, value in agg.items():
            unit = "1" if key in ("chi2_initial", "chi2_final") else "count"
            out[f"solver.{key}.{case}"] = (value, unit)
    for kind in TERMINATIONS:
        out[f"solver.termination.{kind}"] = (terminations[kind], "count")
    factor = spans_of("solver.factor")
    out["solver.factor_calls"] = (int(factor.size), "count")
    out["solver.factor_s"] = (seconds("solver.factor"), "s")
    out["solver.h_nnz"] = (max((tracer.notes[int(i)] for i in factor),
                               default=0), "count")

    # odometry, split by the span that called preintegrate
    pre = spans_of("odometry.preintegrate")
    caller_names = [names[nid[p]] if p >= 0 else "" for p in parent[pre]]
    for caller, suffix in CALLERS.items():
        mine = [i for i, c in zip(pre, caller_names) if c == caller]
        knots = sum(tracer.notes[int(i)] for i in mine)
        out[f"odometry.preintegrate_calls.{suffix}"] = (len(mine), "count")
        out[f"odometry.preintegrate_s.{suffix}"] = (
            float(self_t[mine].sum()) if mine else 0.0, "s")
        out[f"odometry.knots.{suffix}"] = (knots, "count")
        out[f"odometry.knots_per_call.{suffix}"] = (
            knots / len(mine) if mine else 0.0, "count")

    screens = [tracer.notes[int(i)] for i in spans_of("gnss.screen")]
    out["gnss.screen_s"] = (seconds("gnss.screen"), "s")
    out["gnss.fixes_screened"] = (sum(s[0] for s in screens), "count")
    out["gnss.fixes_rejected"] = (sum(s[1] for s in screens), "count")
    out["gnss.uncovered"] = (sum(s[2] for s in screens), "count")

    out["builders.build_s"] = (seconds("builders.build"), "s")
    out["builders.rechain_s"] = (seconds("builders.rechain"), "s")

    graphs = [tracer.notes[int(i)] for i in spans_of("builders.build")]
    for k, key in enumerate(("nodes", "edges", "free_vars")):
        out[f"graph.{key}"] = (sum(g[k] for g in graphs), "count")

    out["metrics.match_pps_s"] = (seconds("metrics.match_pps"), "s")
    out["metrics.compute_s"] = (seconds("metrics.compute"), "s")
    out["metrics.pairs"] = (sum(tracer.notes[int(i)] for i in
                                spans_of("metrics.match_pps")), "count")

    out["dataset.load_s"] = (seconds("dataset.load"), "s")
    out["dataset.export_s"] = (seconds("dataset.export"), "s")
    out["dataset.export_bytes"] = (sum(tracer.notes[int(i)] for i in
                                       spans_of("dataset.export")), "B")
    out["dataset.run_experiment_self_s"] = (
        seconds("dataset.run_experiment"), "s")
    out["trace.spans"] = (int(nid.size), "count")
    out["trace.top_level_s"] = (float(dur[parent < 0].sum()), "s")
    return out
