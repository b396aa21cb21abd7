"""Defects found, pinned.

Each instance under ``data/found/`` is written exactly by
``instance_to_json`` (floats round-trip) and reproduces one ``FOUND`` line
of ``CHANGES.md``, which cites the file.  A strict ``xfail`` holds each
open one's test until a fix turns it into a pass; that fix removes the
marker and keeps the test.
"""

import json
import os

import pytest

from netimprove import cli
from netimprove.core import Allocation, parse_instance
from netimprove.equilibrium import solve_equilibrium
from netimprove.errors import ValidationError
from netimprove.oracle import GridSpec, evaluate_delay, grid_search
from netimprove.parallelpaths import solve_parallel_paths

FOUND = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                     "found")


def _load(name):
    with open(os.path.join(FOUND, name)) as fh:
        return parse_instance(fh.read())


def test_evaluate_delay_is_the_rigid_length_beside_a_tiny_gate():
    # Gate a (c=0, mu=1) in series with b (c=1), beside rigid z (b=10), at
    # demand 1e-301: funded with 1e-305, a's g is 1e-305, so the a-b path
    # would need a delay of 1e4 to carry the demand, and z caps L at 10.
    inst = _load("grid-pad-tiny-gate.json")
    alloc = Allocation({"a": 1e-305})
    assert solve_equilibrium(inst, alloc).average_delay == 10.0
    assert evaluate_delay(inst, alloc) == 10.0


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="the affine round's matrix holds 1 / g = inf for "
                   "the subnormal conductance, so the row is nan")
def test_subnormal_series_link_gives_its_delay():
    # Link a (c=1e-310) in series with b (c=1), beside z (c=1, b=5): a-b
    # carries about 6e-310 and L is about 6.
    inst = _load("subnormal-series-link.json")
    assert solve_equilibrium(inst).average_delay == pytest.approx(6.0,
                                                                  rel=1e-12)


def test_grid_funds_the_link_beside_rows_out_of_range():
    # Funding b gives 1e10 + 1; a alone (g about 1e-300) cannot carry 1e10.
    inst = _load("unfunded-rows-overflow.json")
    assert solve_parallel_paths(inst).delay == pytest.approx(1e10 + 1.0,
                                                             rel=1e-12)
    assert grid_search(inst, GridSpec(resolution=4)).delay == pytest.approx(
        1e10 + 1.0, rel=1e-12)


def test_solve_oracle_prints_the_funded_delay(capsys):
    path = os.path.join(FOUND, "unfunded-rows-overflow.json")
    assert cli.main(["solve", path, "--alg", "oracle"]) == 0
    assert json.loads(capsys.readouterr().out)["L"] == 1e10 + 1.0
