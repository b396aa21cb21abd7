"""Certified-solve benchmark for netimprove.

    python3 bench/run.py --workload certify-affine --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` beside this directory, never from an installed copy.  The run

1. sets up: imports the program, draws the workload's fixed batch of
   instances from ``--seed``, parses every instance (one fresh copy per
   pass, so nothing the program caches on an instance carries over) and runs
   one untimed warm-up job;
2. measures for ``--seconds``: passes over the batch, one job after another
   in one thread, each job solving an instance and checking the answer;
   between jobs, garbage is collected and the workload's reference
   computation is timed (``end_to_end`` says how the passes become the
   end-to-end times);
3. prints one line per metric, then the result as one JSON object.

With ``--trace 0`` the metrics are the end-to-end ones, in seconds at the
reference speed (see ``reference.py``: every time is scaled by the nominal
over the measured time of a fixed reference computation run next to it,
which takes out the virtual CPU's drifting speed).  ``setup_s`` is the
median of three set-ups: this process's and two more in child processes.
With ``--trace 1`` untraced and traced passes alternate; the traced ones
record spans around the program's public calls (see ``tracing.py``) and
give the per-layer metrics, written also to ``bench/out/``.

``--size tiny`` and ``--corrupt delay`` serve the smoke test: tiny grids,
and every delay the program reports multiplied by 1.5 before the checks.
"""

import os

# One BLAS thread: the benchmark measures the single-threaded program.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

COPIES = 8          # parsed copies of the batch; pass p uses copy p % COPIES
SETUP_CHILDREN = 2  # extra set-ups measured in child processes
CORRUPT = {"none": 1.0, "delay": 1.5}


def import_program():
    """Import netimprove from this checkout's ``src/``, or exit with an
    error."""
    if not os.path.isfile(os.path.join(SRC, "netimprove", "__init__.py")):
        sys.exit(f"error: no program source at {SRC}/netimprove")
    sys.path.insert(0, SRC)
    import netimprove
    if not os.path.abspath(netimprove.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: netimprove imported from {netimprove.__file__}")


def run_job(workload, job, inst, corrupt, tracer, job_id):
    """Time one job; returns (seconds, failed checks)."""
    if tracer is not None:
        tracer.job = job_id
    started = time.perf_counter()
    try:
        if tracer is not None and tracer.installed:
            failures = tracer.call("bench.job", workload.run,
                                   (job, inst, corrupt))
        else:
            failures = workload.run(job, inst, corrupt)
    except Exception as exc:  # a job that raises is a failed job
        failures = [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - started
    if failures:
        print(f"job {job_id} ({job.stratum}) failed: {failures[0]}",
              file=sys.stderr)
    return elapsed, failures


def speed_reference(name, runs):
    """Median time of ``runs`` runs of the workload's reference."""
    gc.collect()
    return statistics.median(reference.run(name) for _ in range(runs))


def setup(args, workload, tracer):
    import numpy as np
    # The program imports scipy.optimize lazily, in copt and in the path
    # engine's fallback.  Importing it here keeps peak memory from depending
    # on whether some instance of the batch reaches the fallback.
    import scipy.optimize  # noqa: F401
    from netimprove import core

    if tracer is not None:
        tracer.job = "setup"
        tracer.install()
    jobs = workload.batch(np.random.default_rng(args.seed), args.size)
    copies = [[core.parse_instance(job.text) for job in jobs]
              for _ in range(COPIES)]
    run_job(workload, jobs[0], core.parse_instance(jobs[0].text),
            CORRUPT[args.corrupt], tracer, "setup")
    setup_s = time.perf_counter() - START
    scale = reference.NOMINAL / speed_reference(workload.name, 3)
    return jobs, copies, setup_s * scale


def measure(args, workload, jobs, copies, tracer):
    """Passes over the batch until ``--seconds`` have elapsed.  A started
    pass stops early only after the first pass (the first two when traced,
    one untraced and one traced) has completed.  Garbage is collected
    before every job, so that no job pays for collecting what the jobs
    before it left; untraced, the workload's reference runs next, on the
    collected heap, before the first job and after every job."""
    corrupt = CORRUPT[args.corrupt]
    need = 2 if tracer is not None else 1
    passes = []   # (traced, wall seconds, complete)
    times = []    # (traced, job index, job seconds, reference index)
    refs = []     # reference times, in the order they ran
    attempted = failed = 0
    started = time.perf_counter()

    def done():
        return (time.perf_counter() - started >= args.seconds
                and len(passes) >= need)

    p = 0
    while not done():
        traced = tracer is not None and p % 2 == 1
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        insts = copies[p % COPIES]
        pass_start = time.perf_counter()
        complete = True
        for j, job in enumerate(jobs):
            if done():
                complete = False
                break
            if not times:
                gc.collect()
                if tracer is None:
                    refs.append(reference.run(workload.name))
            dt, failures = run_job(workload, job, insts[j], corrupt, tracer,
                                   f"{p}:{j}")
            times.append((traced, j, dt, len(refs) - 1))
            gc.collect()
            if tracer is None:
                refs.append(reference.run(workload.name))
            attempted += 1
            failed += bool(failures)
        passes.append((traced, time.perf_counter() - pass_start, complete))
        p += 1
    if tracer is not None:
        tracer.uninstall()
    return passes, times, refs, attempted, failed


def end_to_end(workload, setup_s, times, refs):
    """Every job execution is timed against the references run just before
    and just after it: its time over their mean is its time in reference
    units, so a change of the machine's speed that lasts longer than the job
    cancels.  A job's time is the median of its executions in reference
    units, times the nominal reference time; ``wall_s`` adds them up over
    the batch, ``job_s_p50`` is their median and ``job_s_tail`` the mean of
    the slowest quarter of them (rounded up)."""
    nominal = reference.NOMINAL
    units = {}
    raw = {}
    for traced, j, dt, i in times:
        if not traced:
            units.setdefault(j, []).append(dt / (0.5 * (refs[i] + refs[i + 1])))
            raw.setdefault(j, []).append(dt)
    job_s = sorted(nominal * statistics.median(u) for u in units.values())
    slowest = job_s[-math.ceil(len(job_s) / 4):]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    executions = sum(len(u) for u in units.values())
    notes = {"wall_s": f"sum over {len(job_s)} jobs of each job's median "
                       f"execution, {executions} executions; unscaled "
                       f"{sum(statistics.median(r) for r in raw.values()):.4g}"
                       f" s, reference median {statistics.median(refs):.4g} s "
                       f"against {nominal} s",
             "job_s_p50": f"median over {len(job_s)} jobs",
             "job_s_tail": f"mean of the slowest {len(slowest)} jobs"}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(job_s), "s"),
        "job_s_p50": (statistics.median(job_s), "s"),
        "job_s_tail": (statistics.fmean(slowest), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, notes


def child_setup_times(args):
    """Set-up times of fresh processes with the same arguments."""
    out = []
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--size", args.size, "--setup-only"]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"error: set-up child failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None):
    import_program()
    import layers
    import workloads
    from tracing import Tracer

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", choices=sorted(CORRUPT), default="none")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload]
    jobs, copies, setup_s = setup(args, workload, tracer)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    passes, times, refs, attempted, failed = measure(args, workload, jobs,
                                                     copies, tracer)
    if tracer is None:
        setups = [setup_s] + child_setup_times(args)
        metrics, notes = end_to_end(args.workload, statistics.median(setups),
                                    times, refs)
        notes["setup_s"] = f"median of {len(setups)} set-ups"
    else:
        if workload.copt_fw_only:
            layers.copt_fw_only(tracer, jobs, copies[-1])
        metrics, notes = layers.per_layer(tracer, passes)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.dump(os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.json"))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"failed_ratio = {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
