import json
import subprocess
import sys

import pytest

from netimprove.core import Allocation, parse_instance
from netimprove.oracle import evaluate_delay

FIG2 = {
    "nodes": ["s", "t"],
    "edges": [
        {"id": "e1", "tail": "s", "head": "t", "c": 0.1, "b": 90, "n": 1, "mu": 1},
        {"id": "e2", "tail": "s", "head": "t", "c": 0.2, "b": 0, "n": 1, "mu": 0.1},
    ],
    "commodities": [{"source": "s", "sink": "t", "demand": 40}],
    "budget": 3,
}

BRAESS = {
    "nodes": ["s", "a", "b", "t"],
    "edges": [
        {"id": "sa", "tail": "s", "head": "a", "c": 1, "b": 0, "mu": 0},
        {"id": "sb", "tail": "s", "head": "b", "c": 0, "b": 1, "mu": 0, "rigid": True},
        {"id": "ab", "tail": "a", "head": "b", "c": 0, "b": 0, "mu": 1},
        {"id": "at", "tail": "a", "head": "t", "c": 0, "b": 1, "mu": 0, "rigid": True},
        {"id": "bt", "tail": "b", "head": "t", "c": 1, "b": 0, "mu": 0},
    ],
    "commodities": [{"source": "s", "sink": "t", "demand": 1}],
    "budget": 1,
}


def run_cli(*argv, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "netimprove", *argv],
        capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(
            f"exit {proc.returncode}\nstdout:\n{proc.stdout}\n"
            f"stderr:\n{proc.stderr}")
    return proc


@pytest.fixture
def fig2_file(tmp_path):
    path = tmp_path / "fig2.json"
    path.write_text(json.dumps(FIG2))
    return str(path)


@pytest.fixture
def braess_file(tmp_path):
    path = tmp_path / "braess.json"
    path.write_text(json.dumps(BRAESS))
    return str(path)


class TestSolve:
    def test_oracle(self, fig2_file):
        proc = run_cli("solve", "--alg", "oracle", "--resolution", "30", fig2_file)
        doc = json.loads(proc.stdout)
        assert doc["L"] == pytest.approx(80.0, abs=1e-9)
        assert doc["allocation"]["e2"] == pytest.approx(3.0)
        assert doc["algorithm"] == "oracle"

    def test_parallel_links(self, fig2_file):
        doc = json.loads(run_cli("solve", "--alg", "parallel-links",
                                 fig2_file).stdout)
        assert doc["L"] == pytest.approx(80.0, abs=1e-9)
        assert doc["certificate"]["edge"] == "e2"

    def test_parallel_paths(self, fig2_file):
        doc = json.loads(run_cli("solve", "--alg", "parallel-paths",
                                 fig2_file).stdout)
        assert doc["L"] == pytest.approx(80.0, abs=1e-6)

    def test_copt(self, fig2_file):
        doc = json.loads(run_cli("solve", "--alg", "copt", fig2_file).stdout)
        assert doc["certificate"]["guarantee"] == "4/3"
        assert doc["L"] <= (4 / 3) * 80.0 + 1e-6

    def test_fptas_certified_factor(self, fig2_file):
        doc = json.loads(run_cli("solve", "--alg", "fptas", "--eps", "0.2",
                                 fig2_file).stdout)
        assert doc["certificate"]["certified_factor"] == pytest.approx(1.44)
        assert doc["certificate"]["K"] == 3600
        assert doc["L"] <= doc["certificate"]["dp_value"] + 1e-9

    def test_fptas_rejects_braess_with_exit_3(self, braess_file):
        proc = run_cli("solve", "--alg", "fptas", braess_file, check=False)
        assert proc.returncode == 3
        assert "not applicable" in proc.stderr

    def test_parallel_paths_rejects_braess(self, braess_file):
        proc = run_cli("solve", "--alg", "parallel-paths", braess_file,
                       check=False)
        assert proc.returncode == 3

    def test_validation_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        proc = run_cli("solve", "--alg", "oracle", str(bad), check=False)
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_infinite_parameter_exit_2(self, tmp_path):
        doc = json.loads(json.dumps(FIG2))
        doc["edges"][0]["b"] = float("inf")
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))  # written as the JSON literal Infinity
        assert "Infinity" in path.read_text()
        proc = run_cli("solve", "--alg", "copt", str(path), check=False)
        assert proc.returncode == 2
        assert "length" in proc.stderr

    @pytest.mark.parametrize("alg", ["copt", "fptas"])
    def test_huge_demand_exit_2(self, tmp_path, alg):
        doc = json.loads(json.dumps(FIG2))
        doc["commodities"][0]["demand"] = 1e300
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", "--alg", alg, str(path), check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "'e2'" in proc.stderr

    def test_huge_improvement_rate_exit_0(self, tmp_path):
        doc = json.loads(json.dumps(FIG2))
        doc["edges"][1]["mu"] = 1e300
        path = tmp_path / "huge_mu.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", "--alg", "parallel-paths", str(path),
                       check=False)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        paths = json.loads(proc.stdout)
        links = json.loads(run_cli("solve", "--alg", "parallel-links",
                                   str(path)).stdout)
        assert paths["L"] == pytest.approx(40.0 / 3e300, rel=1e-12)
        assert paths["L"] == pytest.approx(links["L"], rel=1e-12)

    @pytest.mark.parametrize("argv", [
        ("solve", "--alg", "copt", "--tol", "nan"),
        ("solve", "--alg", "copt", "--tol", "-1"),
        ("solve", "--alg", "oracle", "--tol", "0"),
        ("solve", "--alg", "fptas", "--eps", "nan"),
        ("solve", "--alg", "fptas", "--eps", "-0.5"),
        ("solve", "--alg", "fptas", "--eps", "inf"),
        ("equilibrium", "--tol", "nan"),
    ])
    def test_nan_infinite_or_nonpositive_tolerance_exit_2(self, fig2_file, argv):
        proc = run_cli(*argv, fig2_file, check=False)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "must be positive" in proc.stderr

    @pytest.mark.parametrize("alg", ["parallel-links", "parallel-paths",
                                     "oracle", "copt"])
    def test_lengths_whose_products_overflow_exit_0(self, tmp_path, alg):
        doc = json.loads(json.dumps(FIG2))
        doc["edges"] = [
            {"id": "a", "tail": "s", "head": "t", "c": 10, "b": 1e308, "mu": 1},
            {"id": "b", "tail": "s", "head": "t", "c": 10, "b": 1.5e308,
             "mu": 1}]
        doc["commodities"][0]["demand"] = 1
        doc["budget"] = 1
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("solve", "--alg", alg, str(path), check=False)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert json.loads(proc.stdout)["L"] == 1e308

    def test_tiny_demand_links_agree_with_paths(self, tmp_path):
        doc = json.loads(json.dumps(FIG2))
        doc["commodities"][0]["demand"] = 1e-300
        path = tmp_path / "tiny_demand.json"
        path.write_text(json.dumps(doc))
        links = json.loads(run_cli("solve", "--alg", "parallel-links",
                                   str(path)).stdout)
        paths = json.loads(run_cli("solve", "--alg", "parallel-paths",
                                   str(path)).stdout)
        assert links["certificate"]["edge"] == "e2"
        assert links["allocation"] == paths["allocation"] == {"e2": 3.0}
        assert links["L"] == pytest.approx(paths["L"], rel=1e-12)
        assert links["L"] == pytest.approx(2e-300, rel=1e-12)

    @pytest.mark.parametrize("alg", ["copt", "fptas"])
    def test_tiny_demand_delay_is_the_common_delay(self, tmp_path, alg):
        doc = json.loads(json.dumps(FIG2))
        doc["commodities"][0]["demand"] = 1e-300
        path = tmp_path / "tiny_demand.json"
        path.write_text(json.dumps(doc))
        solved = json.loads(run_cli("solve", "--alg", alg, str(path)).stdout)
        beta = tmp_path / "beta.json"
        beta.write_text(json.dumps({"beta": solved["allocation"]}))
        eq = json.loads(run_cli("equilibrium", "--beta", str(beta),
                                str(path)).stdout)
        assert solved["allocation"] == {"e2": 3.0}
        assert solved["L"] > 0.0
        assert eq["L"] == eq["common_delay"][0]
        assert solved["L"] == pytest.approx(eq["L"], rel=1e-12)
        assert eq["L"] == pytest.approx(2e-300, rel=1e-12)

    def test_deterministic_stdout(self, fig2_file):
        a = run_cli("solve", "--alg", "oracle", "--resolution", "12", fig2_file)
        b = run_cli("solve", "--alg", "oracle", "--resolution", "12", fig2_file)
        assert a.stdout == b.stdout


class TestEquilibrium:
    def test_zero_allocation(self, fig2_file):
        doc = json.loads(run_cli("equilibrium", fig2_file).stdout)
        assert doc["L"] == pytest.approx(163.0 + 1 / 3, abs=1e-6)
        assert doc["gap"] <= 1e-8

    def test_with_allocation_file(self, fig2_file, tmp_path):
        beta = tmp_path / "beta.json"
        beta.write_text(json.dumps({"beta": {"e2": 3.0}}))
        doc = json.loads(run_cli("equilibrium", "--beta", str(beta),
                                 fig2_file).stdout)
        assert doc["L"] == pytest.approx(80.0, abs=1e-9)
        assert doc["flow"]["e2"] == pytest.approx(40.0, abs=1e-9)


class TestSweep:
    def test_csv_output(self, fig2_file, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"beta": {"e1": 0.0, "e2": 3.0}}))
        b.write_text(json.dumps({"beta": {"e1": 3.0, "e2": 0.0}}))
        csv_path = tmp_path / "sweep.csv"
        run_cli("sweep", "--from", str(a), "--to", str(b), "--steps", "100",
                "--csv", str(csv_path), fig2_file)
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "lambda,L"
        assert len(rows) == 102
        first = rows[1].split(",")
        last = rows[-1].split(",")
        assert float(first[1]) == pytest.approx(80.0, abs=1e-9)
        assert float(last[1]) == pytest.approx(319 / 3.3, abs=1e-9)

    @pytest.mark.parametrize("doc, start, end", [
        (FIG2, {"e1": 0.0, "e2": 3.0}, {"e1": 3.0, "e2": 0.0}),
        (BRAESS, {}, {"ab": 1.0}),
    ])
    def test_stdout_matches_pointwise_evaluation(self, doc, start, end,
                                                 tmp_path):
        # The sweep evaluates all steps in one batch; the reference is one
        # evaluate_delay per step, printed in the CLI's format.
        inst = parse_instance(json.dumps(doc))
        keys = sorted(set(start) | set(end))
        want = "lambda,L\n"
        for i in range(41):
            lam = i / 40
            alloc = Allocation({k: (1.0 - lam) * start.get(k, 0.0)
                                + lam * end.get(k, 0.0) for k in keys})
            want += f"{lam:.10g},{evaluate_delay(inst, alloc):.12g}\n"
        paths = []
        for name, content in (("inst.json", doc), ("a.json", {"beta": start}),
                              ("b.json", {"beta": end})):
            paths.append(tmp_path / name)
            paths[-1].write_text(json.dumps(content))
        proc = run_cli("sweep", "--from", str(paths[1]), "--to", str(paths[2]),
                       "--steps", "40", str(paths[0]))
        assert proc.stdout == want


class TestGadget:
    def test_partition_round_trip(self, tmp_path):
        out = tmp_path / "inst.json"
        proc = run_cli("gadget", "partition", "--values", "3,5,2",
                       "--out", str(out))
        meta = json.loads(proc.stdout)
        assert meta["applicable"] is True
        inst = parse_instance(out.read_text())
        assert len(inst.edges) == 6
        # Emitted instance feeds straight back into the solver.
        doc = json.loads(run_cli("solve", "--alg", "oracle",
                                 "--resolution", "8", str(out)).stdout)
        assert doc["L"] > 0

    def test_partition_stdout_is_parseable(self):
        proc = run_cli("gadget", "partition", "--values", "1,1")
        inst = parse_instance(proc.stdout)
        assert inst.budget == pytest.approx(3 + 2 ** 1.5, rel=1e-9)
        assert "target=" in proc.stderr

    def test_tddp(self, tmp_path):
        graph = tmp_path / "inner.json"
        graph.write_text(json.dumps({
            "nodes": ["s1", "s2", "t1", "t2"],
            "edges": [["s1", "t1"], ["s2", "t2"]],
            "s1": "s1", "s2": "s2", "t1": "t1", "t2": "t2",
        }))
        proc = run_cli("gadget", "tddp", "--graph", str(graph),
                       "--budget", "1e6")
        inst = parse_instance(proc.stdout)
        assert inst.budget == 1e6
        assert len(inst.edges) == 6


class TestVerify:
    def test_single_suite(self):
        proc = run_cli("verify", "--only", "dipole-claim")
        assert "ok   dipole-claim" in proc.stdout
        assert "1/1 suites passed" in proc.stdout

    def test_unknown_suite(self):
        proc = run_cli("verify", "--only", "nope", check=False)
        assert proc.returncode != 0

    def test_seeded_determinism(self):
        a = run_cli("verify", "--only", "ratio-mixing", "--seed", "7",
                    "--cases", "200")
        b = run_cli("verify", "--only", "ratio-mixing", "--seed", "7",
                    "--cases", "200")
        assert a.stdout == b.stdout


def test_fptas_delay_out_of_range_exit_2_without_a_warning(tmp_path):
    # Demand 1e10 over conductances of 1e-300: every delay overflows.
    doc = {"nodes": ["s", "t"],
           "edges": [{"id": "a", "tail": "s", "head": "t", "c": 1e-300,
                      "b": 0, "mu": 1e-300},
                     {"id": "b", "tail": "s", "head": "t", "c": 1e-300,
                      "b": 1, "mu": 0}],
           "commodities": [{"source": "s", "sink": "t", "demand": 1e10}],
           "budget": 1}
    path = tmp_path / "tiny_conductance.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", "--alg", "fptas", str(path), check=False)
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    *(["solve", "--alg", alg] for alg in
      ("oracle", "copt", "parallel-links", "parallel-paths", "fptas")),
    ["equilibrium"], ["sweep", "--steps", "4"]])
def test_delay_out_of_range_exit_2_under_every_command(tmp_path, argv):
    # The same dipole: a link has positive conductance in every allocation,
    # so no route is missing; the delay is out of floating-point range.
    doc = {"nodes": ["s", "t"],
           "edges": [{"id": "a", "tail": "s", "head": "t", "c": 1e-300,
                      "b": 0, "mu": 1e-300},
                     {"id": "b", "tail": "s", "head": "t", "c": 1e-300,
                      "b": 1, "mu": 0}],
           "commodities": [{"source": "s", "sink": "t", "demand": 1e10}],
           "budget": 1}
    path = tmp_path / "tiny_conductance.json"
    path.write_text(json.dumps(doc))
    if argv[0] == "sweep":
        for name, amount in (("from", 0.0), ("to", 1.0)):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"beta": {"a": amount}}))
            argv = [*argv, f"--{name}", str(tmp_path / f"{name}.json")]
    proc = run_cli(*argv, str(path), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "out of floating-point range" in proc.stderr
    assert "Traceback" not in proc.stderr
