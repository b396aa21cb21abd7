"""Closed forms on links so long that c * b overflows: the dipole scan, which
the parallel-path optimizer shares, measures lengths in a power-of-two
unit."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from netimprove.core import Commodity, Edge, Instance, parse_instance
from netimprove.equilibrium import (dipole_delay_rows, length_unit,
                                    path_delay_rows, solve_equilibrium)
from netimprove.errors import ValidationError
from netimprove.oracle import GridSpec, evaluate_delay, grid_search
from netimprove.parallelpaths import (best_single_edge_allocation,
                                      solve_parallel_paths)


def _dipole(links, demand, budget):
    edges = tuple(Edge(eid, "s", "t", c=c, b=b, mu=mu)
                  for eid, c, b, mu in links)
    return Instance(nodes=("s", "t"), edges=edges,
                    commodities=(Commodity("s", "t", demand),), budget=budget)


# (instance, optimal common delay).  In the first the long link stays
# unused; in the second only the shorter of two long links is used, and its
# delay rounds to its length.
CASES = {
    "fig2-long-e1": (_dipole([("e1", 0.1, 1e308, 1.0), ("e2", 0.2, 0.0, 0.1)],
                             40.0, 3.0), 80.0),
    "two-long-links": (_dipole([("a", 10.0, 1e308, 1.0),
                                ("b", 10.0, 1.5e308, 1.0)], 1.0, 1.0), 1e308),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_solver_agrees_without_overflow(name):
    inst, delay = CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        links = best_single_edge_allocation(inst.edges, inst.budget,
                                            inst.total_demand)
        grid = grid_search(inst, GridSpec(resolution=10))
        paths = solve_parallel_paths(inst)
        played = evaluate_delay(inst, paths.allocation)
        equilibrium = solve_equilibrium(inst, links.allocation).average_delay
    for value in (links.delay, grid.delay, paths.delay, played, equilibrium):
        assert value == pytest.approx(delay, rel=1e-12)
    assert paths.used_paths == 1


def test_scaling_lengths_and_demand_scales_the_delay_exactly():
    rng = np.random.default_rng(4)
    lengths = [0.0, 90.0, 35.0, 7.5]
    rigid = [False] * 4
    c_eff = rng.uniform(0.1, 3.0, (200, 4))
    c_eff[rng.random((200, 4)) < 0.2] = 0.0
    c_eff[:, 0] = rng.uniform(1.0, 3.0, 200)  # so every delay is below 40
    base = dipole_delay_rows(lengths, rigid, c_eff, 40.0)
    s = 2.0 ** 1017  # c * b overflows at some rows, not the delays
    assert length_unit(float(c_eff.max()), 90.0 * s, 4) > 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        big = dipole_delay_rows([b * s for b in lengths], rigid, c_eff, 40.0 * s)
    assert np.array_equal(big, base * s)


def test_unit_is_one_unless_the_sum_could_overflow():
    assert length_unit(3.1, 90.0, 2) == 1.0
    assert length_unit(1e150, 1e150, 1000) == 1.0
    assert length_unit(10.0, 1.5e308, 2) == 2.0 ** 8


def test_a_path_whose_length_overflows_is_rejected():
    edges = (Edge("a", "s", "m", c=10.0, b=1e308, mu=1.0),
             Edge("a2", "m", "t", c=10.0, b=1e308, mu=1.0),
             Edge("b", "s", "t", c=10.0, b=1.5e308, mu=1.0))
    inst = Instance(nodes=("s", "m", "t"), edges=edges,
                    commodities=(Commodity("s", "t", 1.0),), budget=1.0)
    with pytest.raises(ValidationError, match="overflows"):
        solve_parallel_paths(inst)


def test_a_delay_out_of_range_is_rejected():
    # Demand 1e10 over conductance 1e-300: every delay overflows.
    inst = _dipole([("a", 1e-300, 0.0, 1e-300), ("b", 1e-300, 1.0, 0.0)],
                   1e10, 1.0)
    with pytest.raises(ValidationError, match="out of floating-point range"):
        solve_parallel_paths(inst)


def test_the_path_engine_rejects_a_path_whose_length_overflows(tmp_path):
    # Path a-a2 sums to inf; every route to the equilibrium stops with exit 2.
    doc = {"nodes": ["s", "m", "t"],
           "edges": [{"id": "a", "tail": "s", "head": "m", "c": 10,
                      "b": 1e308, "mu": 1},
                     {"id": "a2", "tail": "m", "head": "t", "c": 10,
                      "b": 1e308, "mu": 1},
                     {"id": "b", "tail": "s", "head": "t", "c": 10,
                      "b": 1.5e308, "mu": 1}],
           "commodities": [{"source": "s", "sink": "t", "demand": 1}],
           "budget": 1}
    inst = parse_instance(json.dumps(doc))
    message = "length of the path from 'a' overflows"
    with pytest.raises(ValidationError, match=message):
        solve_equilibrium(inst)
    with pytest.raises(ValidationError, match=message):
        path_delay_rows(inst, inst.edges[:1], np.array([[0.5]]))
    with pytest.raises(ValidationError, match=message):
        grid_search(inst, GridSpec(resolution=4))
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    for argv in (["solve", "--alg", "copt"], ["equilibrium"]):
        proc = subprocess.run([sys.executable, "-m", "netimprove", *argv,
                               str(path)], capture_output=True, text=True)
        assert proc.returncode == 2, proc.stdout
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
