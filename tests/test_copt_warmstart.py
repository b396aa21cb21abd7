"""The relaxation polished after one Frank-Wolfe step: the certificate it
reaches, against Frank-Wolfe alone, and the later polishes that finish when
the first stops at a closed gate."""

import warnings

import numpy as np
import pytest

from netimprove.copt import solve_copt
from netimprove.core import Commodity, Edge, Instance
from netimprove.errors import ValidationError

TOL = 1e-9


def _instance(rng, trial, gates):
    """An affine dipole or a graph of parallel paths of one or two edges.
    One edge in four is unimprovable; with ``gates``, one in four of the
    others has zero conductance."""
    if trial % 2 == 0:
        specs = [("s", "t", f"e{t}") for t in range(int(rng.integers(2, 5)))]
    else:
        specs = []
        for p in range(int(rng.integers(2, 4))):
            if rng.random() < 0.5:
                specs.append(("s", "t", f"p{p}"))
            else:
                specs += [("s", f"m{p}", f"p{p}a"), (f"m{p}", "t", f"p{p}b")]
    edges = []
    for tail, head, eid in specs:
        mu = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.2, 2.0))
        c = (0.0 if gates and mu > 0.0 and rng.random() < 0.25
             else float(rng.uniform(0.2, 2.0)))
        edges.append(Edge(eid, tail, head, c=c, b=float(rng.uniform(0.0, 3.0)),
                          mu=mu))
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", float(rng.uniform(1, 6))),),
                    budget=float(rng.uniform(0.5, 3.0)))


def _solve(inst, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return solve_copt(inst, tol=TOL, fw_iters=300, **kwargs)


def _frank_wolfe_only(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # gap above tol
        return solve_copt(inst, tol=TOL, fw_iters=300, polish=False)


def test_gate_free_instances_certify_within_four_iterations():
    rng = np.random.default_rng(11)
    for trial in range(30):
        inst = _instance(rng, trial, gates=False)
        res = _solve(inst)
        assert res.duality_gap <= TOL, trial
        assert res.iterations <= 4, trial
        fw = _frank_wolfe_only(inst)
        assert res.relaxed_objective <= fw.relaxed_objective * (1.0 + 1e-12)


def test_later_polishes_certify_after_a_closed_gate():
    # A polish that stops at a closed gate leaves the gap above tol; the
    # next Frank-Wolfe step opens the gate and the polish after it finishes.
    rng = np.random.default_rng(3)
    late = 0
    for trial in range(40):
        inst = _instance(rng, trial, gates=True)
        res = _solve(inst)
        assert res.duality_gap <= TOL, trial
        assert res.relaxed_objective <= \
            _frank_wolfe_only(inst).relaxed_objective * (1.0 + 1e-12)
        if res.iterations > 2:
            late += 1
            assert any(e.c == 0.0 < e.mu for e in inst.edges), trial
    assert late >= 3


@pytest.mark.parametrize("kwargs", [{"tol": float("nan")}, {"tol": -1.0},
                                    {"tol": 0.0}, {"fw_iters": -4}])
def test_rejects_nan_and_negative_parameters(fig2, kwargs):
    with pytest.raises(ValidationError):
        solve_copt(fig2, **kwargs)
