import numpy as np
import pytest

from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.copt import (
    hessian_quadratic_form,
    hessian_quadratic_form_exact,
    relaxed_total_delay,
    solve_copt,
)
from netimprove.equilibrium import solve_equilibrium
from netimprove.oracle import GridSpec, evaluate_delay, grid_search

from conftest import make_dipole


class TestHessianQuadraticForm:
    def test_null_direction_vanishes(self):
        # alpha aligned with (1, g / (x mu)) kills the square exactly.
        val = hessian_quadratic_form_exact(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, (1.0, 1.0))
        assert val == 0.0
        fd, scale = hessian_quadratic_form(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, (1.0, 1.0))
        assert fd >= -1e-9 * scale

    def test_flow_direction_curvature(self):
        val = hessian_quadratic_form_exact(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, (1.0, 0.0))
        assert val == pytest.approx(2.0)
        fd, _ = hessian_quadratic_form(1.0, 0.0, 1.0, 1.0, 1.0, 0.0, (1.0, 0.0))
        assert fd == pytest.approx(2.0, rel=1e-5)

    def test_zero_flow(self):
        assert hessian_quadratic_form_exact(1.0, 0.0, 2.0, 1.0, 0.0, 0.0, (1.0, 0.0)) == 0.0
        assert hessian_quadratic_form_exact(2.0, 0.0, 1.0, 1.0, 0.0, 0.5, (1.0, 0.0)) \
            == pytest.approx(2.0 / 2.5)

    def test_psd_on_random_points(self, rng):
        for _ in range(2000):
            c = rng.uniform(0.05, 3.0)
            mu = rng.uniform(0.0, 3.0)
            n = rng.choice([1.0, 2.0, 3.0])
            x = rng.uniform(0.0, 5.0)
            beta = rng.uniform(0.0, 3.0)
            alpha = tuple(rng.normal(size=2))
            fd, scale = hessian_quadratic_form(c, rng.uniform(0, 2), n, mu,
                                               x, beta, alpha)
            assert fd >= -1e-9 * scale

    def test_fd_matches_exact(self, rng):
        for _ in range(300):
            c = rng.uniform(0.2, 3.0)
            mu = rng.uniform(0.1, 2.0)
            n = float(rng.choice([1.0, 2.0]))
            x = rng.uniform(0.1, 4.0)
            beta = rng.uniform(0.0, 2.0)
            alpha = tuple(rng.normal(size=2))
            exact = hessian_quadratic_form_exact(c, 0.0, n, mu, x, beta, alpha)
            fd, scale = hessian_quadratic_form(c, 0.0, n, mu, x, beta, alpha)
            assert fd == pytest.approx(exact, rel=2e-4, abs=2e-6 * scale)


class TestSolveCopt:
    def test_single_edge_takes_whole_budget(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, mu=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        res = solve_copt(inst, tol=1e-9)
        assert res.allocation.get("e") == pytest.approx(1.0, rel=1e-8)
        assert res.relaxed_objective == pytest.approx(0.5, rel=1e-8)
        assert res.guarantee_label == "4/3"
        assert res.guarantee_factor == pytest.approx(4.0 / 3.0)

    def test_zero_budget_gives_system_optimal_flow(self, fig2):
        inst = Instance(nodes=fig2.nodes, edges=fig2.edges,
                        commodities=fig2.commodities, budget=0.0)
        res = solve_copt(inst, tol=1e-10)
        assert res.allocation.total() == 0.0
        # Minimize 10 x1^2 + 90 x1 + 5 x2^2 subject to x1 + x2 = 40.
        assert res.relaxed_flow.get("e1") == pytest.approx(31.0 / 3.0, rel=1e-6)
        assert res.relaxed_flow.get("e2") == pytest.approx(89.0 / 3.0, rel=1e-6)
        expect = (10 * (31 / 3) ** 2 + 90 * (31 / 3) + 5 * (89 / 3) ** 2)
        assert res.relaxed_objective == pytest.approx(expect, rel=1e-8)

    def test_fig2_guarantee(self, fig2):
        res = solve_copt(fig2, tol=1e-9)
        eq = solve_equilibrium(fig2, res.allocation)
        assert eq.average_delay <= (4.0 / 3.0) * 80.0 + 1e-6

    def test_lower_bound_property(self, fig2):
        # The relaxed objective can never exceed the total delay of the
        # equilibrium under the best allocation the oracle can find.
        res = solve_copt(fig2, tol=1e-9)
        oracle = grid_search(fig2, GridSpec(resolution=40))
        d = fig2.commodities[0].demand
        assert res.relaxed_objective <= oracle.delay * d + 1e-6

    def test_midpoint_convexity(self, rng):
        inst = make_dipole([(1.0, 0.5, 1.0), (0.5, 0.0, 2.0)], 2.0, 1.0)
        d = inst.commodities[0].demand
        for _ in range(200):
            xa = rng.uniform(0, d)
            xb = rng.uniform(0, d)
            ba = rng.uniform(0, 1, size=2)
            bb = rng.uniform(0, 1, size=2)
            ba *= min(1.0, 1.0 / max(ba.sum(), 1e-9))
            bb *= min(1.0, 1.0 / max(bb.sum(), 1e-9))

            def total(x1, bvec):
                flow = {"e1": x1, "e2": d - x1}
                return relaxed_total_delay(
                    inst, flow, Allocation({"e1": bvec[0], "e2": bvec[1]}))

            mid = total(0.5 * (xa + xb), 0.5 * (ba + bb))
            avg = 0.5 * (total(xa, ba) + total(xb, bb))
            assert mid <= avg + 1e-9 * max(1.0, abs(avg))

    def test_braess_trap_ratio(self, wheatstone):
        # The relaxation funds the cross edge; the equilibrium then routes
        # everything through it, landing just under the 4/3 guarantee.
        inst = Instance(nodes=wheatstone.nodes, edges=wheatstone.edges,
                        commodities=wheatstone.commodities, budget=1e6)
        res = solve_copt(inst, tol=1e-9)
        assert res.allocation.get("ab") == pytest.approx(1e6, rel=1e-4)
        eq = solve_equilibrium(inst, res.allocation)
        oracle = grid_search(inst, GridSpec(resolution=20))
        assert oracle.delay == pytest.approx(1.5, abs=1e-9)
        ratio = eq.average_delay / oracle.delay
        assert 1.05 < ratio <= 4.0 / 3.0 + 1e-9
        assert eq.average_delay <= (4.0 / 3.0) * oracle.delay + 1e-6

    def test_multi_commodity(self):
        inst = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("sm", "s", "m", c=1.0, mu=1.0),
                   Edge("mt", "m", "t", c=1.0, mu=1.0)),
            commodities=(Commodity("s", "m", 1.0), Commodity("s", "t", 1.0)),
            budget=2.0)
        res = solve_copt(inst, tol=1e-8)
        assert res.duality_gap <= 1e-8
        # The first segment carries both commodities: it deserves more budget.
        assert res.allocation.get("sm") > res.allocation.get("mt")

    def test_exponent_below_one_warns(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, n=0.5, mu=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        with pytest.warns(RuntimeWarning, match="below 1"):
            res = solve_copt(inst, tol=1e-4)
        assert res.allocation.get("e") == pytest.approx(1.0, rel=1e-3)

    def test_guarantee_label_polynomial(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, n=3.0, mu=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        res = solve_copt(inst, tol=1e-8)
        assert res.guarantee_label == "O(p/log p)"
        assert res.guarantee_factor is None
        assert res.max_exponent == 3.0

    def test_guarantee_on_random_dipoles(self, rng):
        for _ in range(15):
            m = int(rng.integers(2, 4))
            params = [(rng.uniform(0.2, 2), rng.uniform(0, 2), rng.uniform(0, 2))
                      for _ in range(m)]
            inst = make_dipole(params, demand=float(rng.uniform(1, 5)),
                               budget=float(rng.uniform(0.5, 2)))
            res = solve_copt(inst, tol=1e-8)
            eq = evaluate_delay(inst, res.allocation)
            oracle = grid_search(inst, GridSpec(resolution=60))
            assert eq <= (4.0 / 3.0) * oracle.delay + 1e-6


def test_kernel_matches_central_differences(rng):
    # Two commodities share the edges into t; "at1" is rigid, "sa" and
    # "at2" have n = 2 and "at3" cannot be improved.
    from netimprove.copt import _Relaxation

    for _ in range(8):
        u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
        edges = (
            Edge("sa", "s", "a", c=u(0.3, 2), b=u(0, 1), n=2.0, mu=u(0.2, 2)),
            Edge("st", "s", "t", c=u(0.3, 2), b=u(0, 1), n=1.0, mu=u(0.2, 2)),
            Edge("at1", "a", "t", b=u(0, 2), rigid=True),
            Edge("at2", "a", "t", c=u(0.3, 2), b=u(0, 1), n=2.0, mu=u(0.2, 2)),
            Edge("at3", "a", "t", c=u(0.3, 2), b=u(0, 1), n=1.0),
        )
        inst = Instance(nodes=("s", "a", "t"), edges=edges,
                        commodities=(Commodity("s", "t", 1.0),
                                     Commodity("a", "t", 2.0)),
                        budget=2.0)
        kern = _Relaxation(inst)
        assert (kern.ncom, kern.m, kern.p) == (2, 5, 3)
        funded = [edges[t].id for t in kern.imp]

        def f(z):
            x, beta = kern.split(z)
            return relaxed_total_delay(inst, dict(zip(kern.ids, x.sum(axis=0))),
                                       Allocation(dict(zip(funded, beta))))

        z = np.concatenate([rng.uniform(0.2, 1.5, size=kern.nm),
                            rng.uniform(0.2, 1.0, size=kern.p)])
        val, grad = kern.stacked_value_grad(z)
        assert val == pytest.approx(f(z), rel=1e-12)
        h = 1e-6
        fd_grad = [(f(z + h * e) - f(z - h * e)) / (2 * h)
                   for e in np.eye(kern.dim)]
        np.testing.assert_allclose(grad, fd_grad, rtol=1e-6, atol=1e-7)

        H = kern.hessian(*kern.split(z))
        h = 1e-4
        steps = h * np.eye(kern.dim)
        fd_hess = np.array([[(f(z + a + b) - f(z + a - b) - f(z - a + b)
                              + f(z - a - b)) / (4 * h * h)
                             for b in steps] for a in steps])
        np.testing.assert_allclose(H, fd_hess, rtol=1e-5,
                                   atol=1e-5 * np.abs(H).max())


def test_exact_step_matches_bisection(rng):
    # Segments of a two-commodity instance with a rigid edge ("at1"), n = 2
    # edges ("sa", "at2"), an n = 0.5 edge ("st", infinite curvature at zero
    # flow, where the step bisects) and an improvable edge with c = 0
    # ("at4"), whose conductance reaches zero at gamma = 1 when the budget
    # vertex funds another edge.
    from netimprove.copt import _Relaxation
    from netimprove.copt import _exact_step

    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    edges = (
        Edge("sa", "s", "a", c=u(0.3, 2), b=u(0, 1), n=2.0, mu=u(0.2, 2)),
        Edge("st", "s", "t", c=u(0.3, 2), b=u(0, 1), n=0.5, mu=u(0.2, 2)),
        Edge("at1", "a", "t", b=u(0, 2), rigid=True),
        Edge("at2", "a", "t", c=u(0.3, 2), b=u(0, 1), n=2.0, mu=u(0.2, 2)),
        Edge("at4", "a", "t", c=0.0, b=u(0, 1), n=1.0, mu=u(0.2, 2)),
    )
    inst = Instance(nodes=("s", "a", "t"), edges=edges,
                    commodities=(Commodity("s", "t", 1.0),
                                 Commodity("a", "t", 2.0)),
                    budget=2.0)
    kern = _Relaxation(inst)
    st, at4 = kern.col["st"], kern.col["at4"]
    at4_funded = list(kern.imp).index(at4)

    def bisect(slope):
        if slope(1.0) <= 0.0:
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    fallback = corner = 0
    for trial in range(60):
        x = rng.uniform(0.0, 1.5, (2, 5)) * (rng.random((2, 5)) < 0.7)
        if trial % 3 == 0:
            x[:, st] = 0.0
        y = rng.uniform(0.0, 1.5, (2, 5)) * (rng.random((2, 5)) < 0.7)
        beta = rng.uniform(0.1, 0.6, kern.p)
        bvert = np.zeros(kern.p)
        bvert[rng.integers(kern.p)] = inst.budget
        dx, dbeta = y - x, bvert - beta

        def slope(gamma):
            _, gx, gb = kern.value_grad(x + gamma * dx, beta + gamma * dbeta)
            return float(gx @ dx.sum(axis=0)) + float(gb @ dbeta)

        derivs = kern.segment(x, beta, dx, dbeta)
        calls = []

        def counted(gamma):
            calls.append(gamma)
            return derivs(gamma)

        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            gamma = _exact_step(counted)
            expected = bisect(slope)
            fallback += (x[:, st].sum() == 0.0 < y[:, st].sum()
                         and derivs(0.0)[1] == np.inf and 0.0 < expected < 1.0)
            corner += (bvert[at4_funded] == 0.0 < y[:, at4].sum()
                       and 0.0 < expected < 1.0)
        assert abs(gamma - expected) <= 1e-12
        assert len(calls) <= 70
    assert fallback and corner
