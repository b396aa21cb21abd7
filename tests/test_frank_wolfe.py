"""Frank-Wolfe on the Beckmann potential: copt's edge kernel at a fixed
allocation, against the edge delays, the potential and the path engine."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from netimprove import (Allocation, Commodity, Edge, Instance, ValidationError,
                        beckmann_potential, edge_delay, solve_equilibrium)
from netimprove.copt import _Relaxation
from netimprove.oracle import (GridSpec, evaluate_delay, grid_search,
                               sweep_segment)
from test_equilibrium import _random_dipole, _random_two_commodity


def _random_cases(seed, count):
    rng = np.random.default_rng(seed)
    for k in range(count):
        inst = (_random_dipole if k % 2 == 0 else _random_two_commodity)(rng)
        w = rng.dirichlet(np.ones(len(inst.edges) + 1))[:-1] * inst.budget
        yield rng, inst, Allocation({e.id: float(v)
                                     for e, v in zip(inst.edges, w)})


@pytest.mark.parametrize("scale", [1.0, 2.0 ** -40, 2.0 ** 40])
def test_potential_kernel_is_the_edge_delay_and_the_potential(scale):
    # Random flows, zero on some edges, in kernel units: the gradient is
    # edge_delay bit for bit, the value the Beckmann potential.
    for rng, inst, alloc in _random_cases(3, 40):
        kern = _Relaxation(inst, scale, fixed=alloc)
        assert kern.p == 0
        x = (rng.uniform(0.0, 3.0, (kern.ncom, kern.m))
             * (rng.random((kern.ncom, kern.m)) < 0.7))
        val, gx, _ = kern.value_grad(x, np.zeros(0))
        flows = {e.id: scale * float(v)
                 for e, v in zip(inst.edges, x.sum(axis=0))}
        for t, e in enumerate(inst.edges):
            assert gx[t] == edge_delay(e, flows[e.id], alloc.get(e.id))
        phi = beckmann_potential(flows, alloc, inst)
        assert val * scale == pytest.approx(phi, rel=1e-14, abs=0.0)


def test_frank_wolfe_never_reports_a_negative_gap():
    for _, inst, alloc in _random_cases(5, 40):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="Frank-Wolfe stopped")
            res = solve_equilibrium(inst, alloc, method="frank-wolfe",
                                    tol=1e-10, max_iters=200)
        assert res.duality_gap >= 0.0


def _fig2():
    return Instance(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", c=0.1, b=90.0, n=1.0, mu=1.0),
               Edge("e2", "s", "t", c=0.2, b=0.0, n=1.0, mu=0.1)),
        commodities=(Commodity("s", "t", 40.0),), budget=3.0)


def _braess():
    return Instance(
        nodes=("s", "a", "b", "t"),
        edges=(Edge("sa", "s", "a", c=1.0, b=0.0),
               Edge("sb", "s", "b", c=0.0, b=1.0, rigid=True),
               Edge("ab", "a", "b", c=0.0, b=0.0, mu=1.0),
               Edge("at", "a", "t", c=0.0, b=1.0, rigid=True),
               Edge("bt", "b", "t", c=1.0, b=0.0)),
        commodities=(Commodity("s", "t", 1.0),), budget=1.0)


def _two_commodity():
    return Instance(
        nodes=("s1", "s2", "m", "t"),
        edges=(Edge("a", "s1", "m", c=2.9, b=0.6, n=2.0, mu=1.0),
               Edge("b", "s2", "m", c=1.5, b=0.5, mu=1.0),
               Edge("c", "m", "t", c=1.9, b=1.4, n=0.5),
               Edge("c2", "m", "t", c=1.5, b=0.4),
               Edge("d", "s1", "t", c=1.8, b=1.4),
               Edge("f", "s2", "t", c=1.7, b=1.7)),
        commodities=(Commodity("s1", "t", 2.5), Commodity("s2", "t", 2.5)),
        budget=1.0)


EXTREME = [(_fig2, {"e1": 1.0, "e2": 2.0}), (_braess, {"ab": 1.0}),
           (_two_commodity, {"a": 0.5, "b": 0.5})]


def _scaled(inst, demand=1.0, length=1.0):
    return dataclasses.replace(
        inst,
        edges=tuple(dataclasses.replace(e, b=e.b * length) for e in inst.edges),
        commodities=tuple(dataclasses.replace(k, demand=k.demand * demand)
                          for k in inst.commodities))


@pytest.mark.parametrize("build, funded", EXTREME)
def test_frank_wolfe_at_a_tiny_demand_agrees_with_the_path_engine(build,
                                                                  funded):
    for alloc in (Allocation(), Allocation(funded)):
        inst = _scaled(build(), demand=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = solve_equilibrium(inst, alloc, method="paths")
            fw = solve_equilibrium(inst, alloc, method="frank-wolfe")
        assert fw.common_delay == pytest.approx(paths.common_delay, rel=1e-8)


# The two-commodity graph's first all-or-nothing flow puts 2.5e300 on its
# n = 2 link, whose potential overflows: Frank-Wolfe rejects it.
HUGE = [case + (certified,)
        for case, certified in zip(EXTREME, (True, True, False))]


@pytest.mark.parametrize("build, funded, certified", HUGE)
def test_frank_wolfe_at_a_huge_demand_certifies_or_rejects(build, funded,
                                                           certified):
    # With every exponent one, demand s * d over lengths b has s times the
    # delays of demand d over lengths b / s, which the path engine solves.
    for alloc in (Allocation(), Allocation(funded)):
        inst = _scaled(build(), demand=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not certified:
                with pytest.raises(ValidationError,
                                   match="out of floating-point range"):
                    solve_equilibrium(inst, alloc, method="frank-wolfe")
                continue
            fw = solve_equilibrium(inst, alloc, method="frank-wolfe")
        assert 0.0 <= fw.duality_gap <= 1e-8
        assert all(map(math.isfinite, fw.common_delay))
        if all(e.n == 1.0 for e in inst.edges):
            small = solve_equilibrium(_scaled(build(), length=1e-300), alloc)
            assert fw.common_delay == pytest.approx(
                [1e300 * L for L in small.common_delay], rel=1e-8)


def test_a_delay_out_of_range_is_rejected_on_every_route():
    # Every link has positive conductance, so inf is an overflow, not a
    # missing route.
    inst = Instance(
        nodes=("s", "t"),
        edges=(Edge("a", "s", "t", c=1e-300, b=0.0, mu=1e-300),
               Edge("b", "s", "t", c=1e-300, b=1.0)),
        commodities=(Commodity("s", "t", 1e10),), budget=1.0)
    out_of_range = pytest.raises(ValidationError,
                                 match="out of floating-point range")
    with out_of_range:
        evaluate_delay(inst, Allocation())
    with out_of_range:
        grid_search(inst, GridSpec(resolution=4))
    with out_of_range:
        sweep_segment(inst, Allocation(), Allocation({"a": 1.0}), 4)
    for alloc in (Allocation(), Allocation({"a": 1.0})):
        with out_of_range:
            solve_equilibrium(inst, alloc, method="frank-wolfe")


def test_negative_max_iters_is_rejected():
    with pytest.raises(ValidationError, match="max_iters"):
        solve_equilibrium(_fig2(), method="frank-wolfe", max_iters=-4)


def test_zero_max_iters_takes_no_step():
    # The all-or-nothing flow at zero flow: all on e2, whose delay is 0.
    with pytest.warns(RuntimeWarning, match="Frank-Wolfe stopped"):
        res = solve_equilibrium(_fig2(), method="frank-wolfe", max_iters=0)
    assert res.iterations == 0
    assert res.flow.edge_flow == {"e2": 40.0}
    assert res.duality_gap > 0.0
