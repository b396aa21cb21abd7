import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings

from netimprove import cli
from netimprove.core import Allocation, parse_instance
from netimprove.oracle import evaluate_delay

from conftest import extreme_dipoles
from test_found import FOUND

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


def _fig2_at(demand):
    doc = json.loads(json.dumps(FIG2))
    doc["commodities"][0]["demand"] = demand
    return doc


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
        # copt's relaxed objective, a total delay near 3e599, is out of
        # range; the scheme's played delay is not, and is exact.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_fig2_at(1e300)))
        proc = run_cli("solve", "--alg", alg, str(path), check=False)
        assert "Traceback" not in proc.stderr
        if alg == "copt":
            assert proc.returncode == 2
            assert "out of floating-point range" in proc.stderr
            return
        assert proc.returncode == 0, proc.stderr
        paths = json.loads(run_cli("solve", "--alg", "parallel-paths",
                                   str(path)).stdout)
        assert json.loads(proc.stdout)["L"] == pytest.approx(paths["L"],
                                                             rel=1e-12)

    def test_huge_demand_solved_by_every_exact_command(self, tmp_path):
        # The path route certifies in the potential kernel's flow unit, so
        # no command overflows where the closed forms do not.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_fig2_at(1e300)))
        delays = [json.loads(run_cli("solve", "--alg", alg, str(path)).stdout)
                  ["L"] for alg in ("fptas", "oracle", "parallel-paths",
                                    "parallel-links")]
        assert delays == pytest.approx([delays[0]] * 4, rel=1e-12)
        unfunded = json.loads(run_cli("equilibrium", str(path)).stdout)
        # Unfunded, both links carry flow at the common delay 1e300 / 0.3.
        assert unfunded["L"] == pytest.approx(1e300 / 0.3, rel=1e-12)

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

    @pytest.mark.parametrize("kcap", ["0", "-1"])
    def test_fptas_grid_cap_below_one_exit_2(self, fig2_file, kcap):
        for clamp in (("--clamp-k",), ()):
            proc = run_cli("solve", "--alg", "fptas", "--kcap", kcap, *clamp,
                           fig2_file, check=False)
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr
            assert "grid cap must be at least 1" in proc.stderr

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

    @pytest.mark.parametrize("argv", [["--cases", "-5"], ["--cases", "0"],
                                      ["--seed", "-1"]])
    def test_bad_case_count_or_seed_exits_2(self, argv, capsys):
        assert cli.main(["verify", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

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


@pytest.mark.parametrize("argv", [
    ["gadget", "tddp", "--graph", "{tmp}/missing.json"],
    ["gadget", "tddp", "--graph", "{tmp}/malformed.json"],
    ["gadget", "tddp", "--graph", "{tmp}/no_edges.json"],
    ["gadget", "partition", "--values", "a,b"],
    ["sweep", "--csv", "{tmp}/no_dir/x.csv", "--from", "{tmp}/zero.json",
     "--to", "{tmp}/zero.json", "{tmp}/fig2.json"],
    ["gadget", "partition", "--values", "1,2", "--out", "{tmp}/no_dir/p.json"],
], ids=["missing-graph", "malformed-graph", "graph-without-edges",
        "non-numeric-values", "csv-in-missing-dir", "out-in-missing-dir"])
def test_unreadable_input_or_unwritable_output_exit_2(tmp_path, argv):
    (tmp_path / "malformed.json").write_text("{bad")
    (tmp_path / "no_edges.json").write_text(json.dumps({"nodes": ["s1"]}))
    (tmp_path / "zero.json").write_text(json.dumps({"beta": {}}))
    (tmp_path / "fig2.json").write_text(json.dumps(FIG2))
    proc = run_cli(*(arg.format(tmp=tmp_path) for arg in argv), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def _fig2_with(value, *keys):
    """FIG2's JSON text with the item at ``keys`` replaced by ``value``."""
    doc = json.loads(json.dumps(FIG2))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return json.dumps(doc)


BAD_INSTANCES = {
    "edges-object": _fig2_with({"e1": FIG2["edges"][0]}, "edges"),
    "edge-number": _fig2_with(5, "edges", 0),
    "demand-string": _fig2_with("x", "commodities", 0, "demand"),
    "demand-null": _fig2_with(None, "commodities", 0, "demand"),
    "nodes-number": _fig2_with(5, "nodes"),
    "commodities-number": _fig2_with(5, "commodities"),
    "budget-list": _fig2_with([3], "budget"),
    "c-list": _fig2_with([0.1], "edges", 0, "c"),
    "c-401-digits": _fig2_with(10 ** 400, "edges", 0, "c"),
    "budget-401-digits": _fig2_with(10 ** 400, "budget"),
    "demand-401-digits": _fig2_with(10 ** 400, "commodities", 0, "demand"),
    "deep-nesting": "[" * 100_000,
    # With mu = 0, bool("no") would make e2 a valid rigid edge.
    "rigid-no": _fig2_with({"id": "e2", "tail": "s", "head": "t", "c": 0.2,
                            "rigid": "no"}, "edges", 1),
}
BAD_ALLOCATIONS = {"beta-list": '{"beta": []}', "beta-null": '{"beta": null}',
                   "beta-string": '{"beta": {"e1": "x"}}'}


def _exits_2(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", [["solve", "--alg", "parallel-links"],
                                     ["equilibrium"]], ids=["solve", "eq"])
@pytest.mark.parametrize("text", BAD_INSTANCES.values(), ids=BAD_INSTANCES)
def test_an_instance_of_the_wrong_shape_exits_2(tmp_path, capsys, command,
                                                text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    _exits_2([*command, str(path)], capsys)


@pytest.mark.parametrize("command", ["equilibrium", "sweep"])
@pytest.mark.parametrize("text", BAD_ALLOCATIONS.values(),
                         ids=BAD_ALLOCATIONS)
def test_an_allocation_of_the_wrong_shape_exits_2(tmp_path, capsys, command,
                                                  text, fig2_file):
    bad, zero = tmp_path / "bad.json", tmp_path / "zero.json"
    bad.write_text(text)
    zero.write_text('{"beta": {}}')
    argv = (["equilibrium", "--beta", str(bad)] if command == "equilibrium"
            else ["sweep", "--from", str(bad), "--to", str(zero)])
    _exits_2([*argv, fig2_file], capsys)


NUMBERS_AS_TEXT_OR_BOOL = {
    "c-string": _fig2_with("0.1", "edges", 0, "c"),
    "b-true": _fig2_with(True, "edges", 0, "b"),
    "n-string": _fig2_with("1", "edges", 1, "n"),
    "mu-false": _fig2_with(False, "edges", 1, "mu"),
    "demand-string": _fig2_with("40", "commodities", 0, "demand"),
    "budget-true": _fig2_with(True, "budget"),
}


@pytest.mark.parametrize("command", [["solve", "--alg", "parallel-links"],
                                     ["equilibrium"]], ids=["solve", "eq"])
@pytest.mark.parametrize("text", NUMBERS_AS_TEXT_OR_BOOL.values(),
                         ids=NUMBERS_AS_TEXT_OR_BOOL)
def test_a_string_or_boolean_for_a_number_exits_2(tmp_path, capsys, command,
                                                  text):
    # float() would read "0.1" as 0.1 and true as 1.0.
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main([*command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be a number" in err


@pytest.mark.parametrize("command", ["equilibrium", "sweep"])
def test_a_boolean_allocation_exits_2(tmp_path, capsys, command, fig2_file):
    bad, zero = tmp_path / "bad.json", tmp_path / "zero.json"
    bad.write_text('{"beta": {"e1": true}}')
    zero.write_text('{"beta": {}}')
    argv = (["equilibrium", "--beta", str(bad)] if command == "equilibrium"
            else ["sweep", "--from", str(bad), "--to", str(zero)])
    assert cli.main([*argv, fig2_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: allocation on 'e1' must be a number\n"


def test_a_graph_of_the_wrong_shape_exits_2(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"nodes": 5, "edges": [], "s1": "a",
                                "s2": "b", "t1": "c", "t2": "d"}))
    _exits_2(["gadget", "tddp", "--graph", str(path)], capsys)


@pytest.mark.parametrize("data", [b"[" * 100_000, b'{"nodes": ["\xff"]}'],
                         ids=["deep-nesting", "not-utf-8"])
def test_a_document_that_does_not_decode_exits_2(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    proc = run_cli("equilibrium", str(path), check=False)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("alg", ["fptas", "parallel-links", "parallel-paths"])
def test_two_commodities_are_not_applicable(tmp_path, capsys, alg):
    # s1->m and s2->m join on m->t: a valid instance no single-commodity
    # solver handles.
    path = tmp_path / "two.json"
    path.write_text(json.dumps({
        "nodes": ["s1", "s2", "m", "t"],
        "edges": [{"id": "a", "tail": "s1", "head": "m", "c": 1, "mu": 1},
                  {"id": "b", "tail": "s2", "head": "m", "c": 1, "mu": 1},
                  {"id": "c", "tail": "m", "head": "t", "c": 1, "b": 1,
                   "mu": 1}],
        "commodities": [{"source": "s1", "sink": "t", "demand": 1},
                        {"source": "s2", "sink": "t", "demand": 1}],
        "budget": 1}))
    assert cli.main(["solve", "--alg", alg, str(path)]) == 3
    assert capsys.readouterr().err.startswith("not applicable: ")


def test_a_huge_eps_takes_one_grid_step(fig2_file, capsys):
    outs = []
    for eps in ("1e5", "1e6", "1e300"):
        assert cli.main(["solve", "--alg", "fptas", "--eps", eps,
                         fig2_file]) == 0
        out = json.loads(capsys.readouterr().out)
        del out["parameters"]["eps"]
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0]["L"] == 80.0
    assert outs[0]["certificate"]["K"] == 1
    assert outs[0]["certificate"]["certified_factor"] == 169.0


# Two links at the scale of their demand 1e-12: both carry flow, at the
# common delay (1e-12 + 1e-13) / 2.
SMALL = {"nodes": ["s", "t"],
         "edges": [{"id": "a", "tail": "s", "head": "t", "c": 1.0, "b": 0.0,
                    "n": 1.0, "mu": 0.0},
                   {"id": "b", "tail": "s", "head": "t", "c": 1.0,
                    "b": 1e-13, "n": 1.0, "mu": 0.0}],
         "commodities": [{"source": "s", "sink": "t", "demand": 1e-12}],
         "budget": 0.0}


def test_every_command_gives_a_small_delay_at_its_scale(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    for argv in (*(["solve", "--alg", alg] for alg in
                   ("parallel-links", "oracle", "parallel-paths", "copt",
                    "fptas")), ["equilibrium"]):
        proc = run_cli(*argv, str(path))
        assert json.loads(proc.stdout)["L"] == pytest.approx(5.5e-13,
                                                             rel=1e-12)
        assert "Warning" not in proc.stderr, argv


def test_copt_on_a_kkt_system_out_of_range_exits_cleanly(tmp_path):
    # c * b and mu are far apart, and the polish's KKT system is not finite:
    # the polish ends there instead of solving it.
    doc = {"nodes": ["s", "t"],
           "edges": [{"id": "a", "tail": "s", "head": "t",
                      "c": 8.376057109832693e-301,
                      "b": 6.0840734454487195e+299, "n": 1.0,
                      "mu": 1.5975063248026982e+150}],
           "commodities": [{"source": "s", "sink": "t",
                            "demand": 1.2643149140311218}],
           "budget": 0.0}
    path = tmp_path / "kkt.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("solve", "--alg", "copt", str(path), check=False)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "DLASCL" not in proc.stderr


def _found(name):
    with open(os.path.join(FOUND, name), encoding="utf-8") as fh:
        return json.load(fh)


@settings(max_examples=100, deadline=None)
@given(extreme_dipoles())
@example(_found("grid-pad-tiny-gate.json"))
@example(_found("subnormal-series-link.json"))
@example(_found("unfunded-rows-overflow.json"))
def test_solve_on_extreme_dipoles_exits_0_2_or_3(doc):
    # Warnings that a result is not certified may be printed; a floating-
    # point warning from numpy may not, nor may anything be raised.
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/dipole.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["solve", "--alg", "parallel-links"],
                     ["solve", "--alg", "oracle"],
                     ["solve", "--alg", "parallel-paths"],
                     ["solve", "--alg", "copt"],
                     ["solve", "--alg", "fptas", "--clamp-k", "--kcap", "64"],
                     ["equilibrium"]):
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                warnings.simplefilter("always")
                assert cli.main([*argv, path]) in (0, 2, 3)
            assert not [w for w in caught if "encountered" in str(w.message)]


def _one_pair(tmp_path, doc):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_a_rigid_link_of_length_zero_takes_the_flow(tmp_path):
    # Beside the fast link e1 (delay x / 1e15), the rigid e2 has delay 0:
    # the engine adds e2, whose delay is below e1's 1e-15, and all the flow
    # moves there.
    path = _one_pair(tmp_path, {
        "nodes": ["s", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "t", "c": 1e15, "b": 0},
                  {"id": "e2", "tail": "s", "head": "t", "b": 0,
                   "rigid": True}],
        "commodities": [{"source": "s", "sink": "t", "demand": 1}],
        "budget": 0})
    proc = run_cli("equilibrium", path)
    out = json.loads(proc.stdout)
    assert (out["L"], out["gap"], out["flow"]) == (0.0, 0.0, {"e2": 1.0})
    assert "Warning" not in proc.stderr
    assert json.loads(run_cli("solve", "--alg", "copt", path).stdout)["L"] == 0.0


def test_copt_funds_a_gate_at_a_tiny_budget(tmp_path):
    # The whole budget of 1e-20 opens gate e1 to g = 1, so L = 1 where the
    # unfunded e2 alone gives 11.
    path = _one_pair(tmp_path, {
        "nodes": ["s", "t"],
        "edges": [{"id": "e1", "tail": "s", "head": "t", "c": 0, "b": 0,
                   "mu": 1e20},
                  {"id": "e2", "tail": "s", "head": "t", "c": 1, "b": 10}],
        "commodities": [{"source": "s", "sink": "t", "demand": 1}],
        "budget": 1e-20})
    doc = json.loads(run_cli("solve", "--alg", "copt", path).stdout)
    assert doc["L"] == 1.0
    assert doc["allocation"] == {"e1": 1e-20}


def test_a_subnormal_conductance_is_a_delay_out_of_range(tmp_path):
    # Funded, the gate's conductance mu * budget is 2.9e-310: positive, so
    # the link is usable, and the delay d / g overflows on every route.
    path = _one_pair(tmp_path, {
        "nodes": ["s", "t"],
        "edges": [{"id": "g", "tail": "s", "head": "t", "c": 0, "b": 1.43e17,
                   "mu": 5.59e-121}],
        "commodities": [{"source": "s", "sink": "t", "demand": 1.67e28}],
        "budget": 5.23e-190})
    for alg in ("parallel-paths", "parallel-links", "oracle", "copt", "fptas"):
        proc = run_cli("solve", "--alg", alg, path, check=False)
        assert proc.returncode == 2, (alg, proc.stderr)
        assert "out of floating-point range" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "DLASCL" not in proc.stdout + proc.stderr


def test_a_system_that_is_not_finite_reaches_no_lapack_routine(tmp_path):
    # 1 / g overflows on link a's subnormal conductance, so the path
    # engine's equalization system is not finite; LAPACK would print to
    # stdout and raise on it.
    proc = run_cli("equilibrium", _one_pair(tmp_path, {
        "nodes": ["s", "m", "t"],
        "edges": [{"id": "a", "tail": "s", "head": "m", "c": 1e-310, "b": 0,
                   "mu": 1e-300},
                  {"id": "b", "tail": "m", "head": "t", "c": 1, "b": 0},
                  {"id": "z", "tail": "s", "head": "t", "c": 1, "b": 5}],
        "commodities": [{"source": "s", "sink": "t", "demand": 1}],
        "budget": 0}), check=False)
    assert proc.returncode in (0, 2, 3), proc.stderr
    for stream in (proc.stdout, proc.stderr):
        assert "Traceback" not in stream
        assert "DLASCL" not in stream
