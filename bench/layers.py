"""Per-layer metrics from the spans of a traced run.

Layers are the program's modules: a span named ``copt.solve_copt`` belongs
to layer ``copt``.  Totals are per traced pass over the batch (the mean over
complete traced passes), so the spans' self times add up to the traced
pass time; what they leave over is ``trace.unaccounted_s``.  ``bench.self_s``
is the benchmark's own checking code inside the jobs.  Set-up layers
(parsing, gadget building) are totals of the set-up.
"""

from __future__ import annotations

import statistics
import warnings
from collections import defaultdict

import workloads

# name -> unit, in the order they are printed
METRICS = {
    "core.parse_s": "s",
    "gadgets.build_s": "s",
    "copt.solve_s": "s",
    "copt.fw_iterations": "count",
    "copt.fw_capped_ratio": "ratio",
    "copt.fw_only_s": "s",
    "copt.gap_max": "ratio",
    "parallelpaths.solve_s": "s",
    "oracle.batch.evals_per_s": "1/s",
    "oracle.general.evals_per_s": "1/s",
    "oracle.self_s": "s",
    "oracle.evals": "count",
    "oracle.infeasible_ratio": "ratio",
    "equilibrium.calls": "count",
    "equilibrium.solve_us_p50": "us",
    "equilibrium.self_s": "s",
    "equilibrium.iterations": "count",
    "equilibrium.frank_wolfe_ratio": "ratio",
    "fptas.run_dp_s": "s",
    "fptas.K": "count",
    "fptas.dp_ops": "count",
    "fptas.run_dp_ns_per_op": "ns",
    "fptas.self_s": "s",
    "seriesparallel.decompose_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}


def copt_fw_only(tracer, jobs, insts):
    """Time the batch's relaxations again with ``polish=False``, outside
    the passes, so that polish and KKT refine show as the difference."""
    with warnings.catch_warnings():
        # Without polish the gap stays above tol, which copt warns about.
        warnings.simplefilter("ignore", RuntimeWarning)
        for j, (job, inst) in enumerate(zip(jobs, insts)):
            tracer.job = f"fw:{j}"
            tracer.call("copt.fw_only", workloads.copt.solve_copt, (inst,),
                        {"tol": workloads.COPT_TOL,
                         "fw_iters": job.params["fw_iters"], "polish": False})


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, passes):
    spans = tracer.spans
    own = tracer.self_times()
    traced = [w for t, w, complete in passes if t and complete]
    untraced = [w for t, w, complete in passes if not t and complete]
    kept = {str(p) for p, (t, _, complete) in enumerate(passes)
            if t and complete}
    n = len(traced)

    children = defaultdict(int)
    for s in spans:
        if s[3] >= 0:
            children[s[3]] += 1
    by_name = defaultdict(list)
    name_self = defaultdict(float)
    setup = defaultdict(float)
    for i, s in enumerate(spans):
        job = s[4]
        if job == "setup":
            setup[s[0]] += s[2] - s[1]
        elif job.startswith("fw:") or job.split(":")[0] in kept:
            by_name[s[0]].append(i)
            if not job.startswith("fw:"):
                name_self[s[0]] += own[i]
    layer_self = defaultdict(float)
    for name, v in name_self.items():
        layer_self[name.split(".")[0]] += v

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def info(i, key, default=0):
        return (spans[i][5] or {}).get(key, default)

    copt = by_name["copt.solve_copt"]
    grids = by_name["oracle.grid_search"]
    general = [i for i in grids if children[i]]
    batch = [i for i in grids if not children[i]]
    evals_general = sum(info(i, "evaluations") for i in general)
    eq = by_name["equilibrium.solve_equilibrium"]
    dp = by_name["fptas.run_dp"]
    dp_ops = sum(info(i, "ops") for i in dp)
    wall = statistics.fmean(traced)
    values = {
        "core.parse_s": setup["core.parse_instance"],
        "gadgets.build_s": setup["gadgets.build_2ddp_instance"],
        "copt.solve_s": total("copt.solve_copt") / n,
        "copt.fw_iterations": sum(info(i, "iterations") for i in copt) / n,
        "copt.fw_capped_ratio": _ratio(
            sum(info(i, "capped", False) for i in copt), len(copt)),
        "copt.fw_only_s": total("copt.fw_only"),
        "copt.gap_max": max((info(i, "gap") for i in copt), default=0.0),
        "parallelpaths.solve_s": total("parallelpaths.solve_parallel_paths") / n,
        "oracle.batch.evals_per_s": _ratio(
            sum(info(i, "evaluations") for i in batch),
            sum(dur(i) for i in batch)),
        "oracle.general.evals_per_s": _ratio(
            evals_general, sum(dur(i) for i in general)),
        "oracle.self_s": layer_self["oracle"] / n,
        "oracle.evals": sum(info(i, "evaluations") for i in grids) / n,
        "oracle.infeasible_ratio": _ratio(
            sum(info(i, "error", "") == "Infeasible" for i in eq),
            evals_general),
        "equilibrium.calls": len(eq) / n,
        "equilibrium.solve_us_p50": (
            statistics.median(dur(i) for i in eq) * 1e6 if eq else 0.0),
        "equilibrium.self_s": layer_self["equilibrium"] / n,
        "equilibrium.iterations": sum(info(i, "iterations") for i in eq) / n,
        "equilibrium.frank_wolfe_ratio": _ratio(
            sum(info(i, "frank_wolfe", False) for i in eq), len(eq)),
        "fptas.run_dp_s": total("fptas.run_dp") / n,
        "fptas.K": _ratio(sum(info(i, "K") for i in dp), len(dp)),
        "fptas.dp_ops": dp_ops / n,
        "fptas.run_dp_ns_per_op": _ratio(total("fptas.run_dp") * 1e9, dp_ops),
        "fptas.self_s": name_self["fptas.solve_fptas"] / n,
        "seriesparallel.decompose_s": total(
            "seriesparallel.decompose_series_parallel") / n,
        "bench.self_s": layer_self["bench"] / n,
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - sum(layer_self.values()) / n,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    metrics = {name: (values[name], unit) for name, unit in METRICS.items()}
    shares = sorted(name_self.items(), key=lambda kv: -kv[1])
    notes = {"trace.wall_s": "share of self time: " + ", ".join(
        f"{name} {v / n / wall:.1%}" for name, v in shares)}
    return metrics, notes
