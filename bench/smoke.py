"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Checks that one command prints every metric of ``BENCHMARK.json`` by name
with its unit, that the checks catch a corrupted delay (``failed_ratio``
above 0), and that the benchmark refuses to run without the program source.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify-affine", "oracle-general", "fptas-sp")
LINE = re.compile(r"^(\S+) = (\S+) (\S+)")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          cwd=cwd)


def printed(stdout):
    """Metric lines as {name: (value, unit)}, and the result object."""
    lines = stdout.strip().splitlines()
    found = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            found[m.group(1)] = (float(m.group(2)), m.group(3))
    return found, json.loads(lines[-1])


def check_metrics(workload, trace, section):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    found, result = printed(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert found[name][1] == unit, (workload, name)
    assert found["failed_ratio"] == (0.0, "ratio")


def test_end_to_end_metrics_printed():
    for workload in WORKLOADS:
        check_metrics(workload, 0, "end_to_end")


def test_per_layer_metrics_printed():
    for workload in WORKLOADS:
        check_metrics(workload, 1, "per_layer")


def test_corrupted_delay_fails_checks():
    for workload in WORKLOADS:
        proc = run(workload, 0, "--corrupt", "delay")
        assert proc.returncode == 0, proc.stderr
        found, result = printed(proc.stdout)
        assert result["failed"] > 0 and not result["correct"], workload
        assert found["failed_ratio"][0] > 0.0, workload


def test_refuses_without_program_source():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
