"""The benchmark's seed-1 jobs give the results pinned in
``data/bench-results-seed1.json``.

Each job of ``bench/workloads.py`` (imported, never changed) is drawn at
seed 1 in its full size and solved as the benchmark solves it; only the
results are kept, not the checks.  Allocations must match exactly; delays
to 1e-12 relative, since BLAS kernels may round differently between CPUs.
A speed-up of a solver must leave these numbers where they are.

Regenerate the file, after a change that is meant to move a result, with

    PYTHONPATH=src python tests/test_bench_results.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data", "bench-results-seed1.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "bench"))

import workloads  # noqa: E402
from netimprove import (copt, core, fptas, oracle, parallelpaths,  # noqa: E402
                        seriesparallel)

SEED = 1


def _allocation(alloc):
    return dict(sorted(alloc.beta.items()))


def _certify_affine(job, inst):
    res = copt.solve_copt(inst, tol=workloads.COPT_TOL,
                          fw_iters=job.params["fw_iters"])
    grid = oracle.grid_search(inst, oracle.GridSpec(resolution=job.params["R"]))
    return {"grid": grid.delay,
            "played": oracle.evaluate_delay(inst, res.allocation),
            "exact": parallelpaths.solve_parallel_paths(inst, tol=1e-11).delay}


def _oracle_general(job, inst):
    grid = oracle.grid_search(inst, oracle.GridSpec(resolution=job.params["R"]))
    return {"delay": grid.delay, "allocation": _allocation(grid.allocation),
            "replay": oracle.evaluate_delay(inst, grid.allocation)}


def _fptas_sp(job, inst):
    res = fptas.solve_fptas(inst, workloads.FPTAS_EPS, tol=1e-9, clamp=True,
                            k_cap=job.params["K"],
                            tree=seriesparallel.decompose_series_parallel(inst))
    return {"equilibrium_delay": res.equilibrium_delay,
            "dp_value": res.dp_value,
            "allocation": _allocation(res.allocation)}


RESULTS = {"certify-affine": _certify_affine,
           "oracle-general": _oracle_general,
           "fptas-sp": _fptas_sp}


def results(workload: str) -> list[dict]:
    """Each job's results, in batch order."""
    jobs = workloads.WORKLOADS[workload].batch(np.random.default_rng(SEED),
                                               "full")
    return [{"stratum": job.stratum,
             **RESULTS[workload](job, core.parse_instance(job.text))}
            for job in jobs]


@pytest.mark.parametrize("workload", sorted(RESULTS))
def test_bench_jobs_give_the_pinned_results(workload):
    with open(DATA) as fh:
        want = json.load(fh)[workload]
    got = results(workload)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        for key, value in w.items():
            if key in ("stratum", "allocation"):
                assert g[key] == value, (k, key)
            else:
                assert g[key] == pytest.approx(value, rel=1e-12, abs=0.0), (
                    k, key)


if __name__ == "__main__":
    with open(DATA, "w") as fh:
        json.dump({w: results(w) for w in sorted(RESULTS)}, fh, indent=1)
        fh.write("\n")
