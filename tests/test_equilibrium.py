import dataclasses
import warnings

import numpy as np
import pytest

from netimprove import equilibrium
from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.equilibrium import (
    _solve_frank_wolfe,
    _solve_paths,
    beckmann_potential,
    dipole_links,
    parallel_links_delay_batch,
    path_delay_rows,
    solve_equilibrium,
    solve_parallel_links_equilibrium,
)
from netimprove.errors import Infeasible, UnsupportedDelay, ValidationError
from netimprove.oracle import evaluate_delay

from conftest import make_dipole


class TestPotential:
    def test_linear_edge(self):
        inst = Instance(nodes=("s", "t"), edges=(Edge("e", "s", "t", c=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        assert beckmann_potential({"e": 1.0}, None, inst) == 0.5

    def test_length_term(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, b=2.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        assert beckmann_potential({"e": 1.0}, None, inst) == 2.5

    def test_quadratic_edge(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, n=2.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        assert beckmann_potential({"e": 1.0}, None, inst) == pytest.approx(1 / 3)

    def test_rigid_contributes_length_times_flow(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", b=3.0, rigid=True),),
                        commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        assert beckmann_potential({"e": 2.0}, None, inst) == 6.0

    def test_overflow_names_every_overflowing_edge(self, fig2):
        flows = {"e1": 1e200, "e2": 1e100}
        with pytest.raises(ValidationError, match="'e1'") as info:
            beckmann_potential(flows, None, fig2)
        assert "'e2'" not in str(info.value)
        flows["e2"] = 1e200
        with pytest.raises(ValidationError, match="'e1'.*'e2'"):
            beckmann_potential(flows, None, fig2)


class TestSolveEquilibrium:
    def test_symmetric_split(self):
        inst = make_dipole([(1, 0, 1), (1, 0, 1)], demand=1.0, budget=0.0)
        res = solve_equilibrium(inst)
        assert res.average_delay == pytest.approx(0.5, abs=1e-12)
        assert res.flow.get("e1") == pytest.approx(0.5, abs=1e-12)
        assert res.flow.get("e2") == pytest.approx(0.5, abs=1e-12)

    def test_pigou(self, pigou):
        res = solve_equilibrium(pigou)
        assert res.average_delay == pytest.approx(1.0, abs=1e-12)
        assert res.flow.get("e1") == pytest.approx(1.0, abs=1e-12)
        assert res.flow.get("e2") == pytest.approx(0.0, abs=1e-12)

    def test_fig2_budget_on_long_link(self, fig2):
        res = solve_equilibrium(fig2, Allocation({"e1": 3.0}))
        assert res.average_delay == pytest.approx(319.0 / 3.3, abs=1e-9)
        assert res.flow.get("e1") > 0 and res.flow.get("e2") > 0

    def test_fig2_budget_on_short_link(self, fig2):
        res = solve_equilibrium(fig2, Allocation({"e2": 3.0}))
        assert res.average_delay == pytest.approx(80.0, abs=1e-9)
        assert res.flow.get("e1") == pytest.approx(0.0, abs=1e-12)

    def test_duality_gap_certificate(self, fig2):
        res = solve_equilibrium(fig2, Allocation({"e1": 1.0, "e2": 1.0}))
        assert res.duality_gap <= 1e-8

    def test_used_paths_share_common_delay(self, wheatstone):
        res = solve_equilibrium(wheatstone, Allocation({"ab": 1.0}))
        assert res.flow.paths
        L = res.common_delay[0]
        for path, v in res.flow.paths:
            if v > 1e-9:
                d = sum(
                    _delay(wheatstone, eid, res.flow.get(eid),
                           1.0 if eid == "ab" else 0.0)
                    for eid in path)
                assert d == pytest.approx(L, rel=1e-8)

    def test_braess_cross_edge_hurts(self, wheatstone):
        base = solve_equilibrium(wheatstone)  # cross edge unusable
        assert base.average_delay == pytest.approx(1.5, abs=1e-10)
        improved = solve_equilibrium(wheatstone, Allocation({"ab": 1.0}))
        assert improved.average_delay > base.average_delay

    def test_quadratic_delay(self):
        # Two links with delay x^2/c^2-style congestion: symmetric split.
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", c=1.0, n=2.0),
                   Edge("e2", "s", "t", c=1.0, n=2.0)),
            commodities=(Commodity("s", "t", 2.0),), budget=0.0)
        res = solve_equilibrium(inst)
        assert res.flow.get("e1") == pytest.approx(1.0, abs=1e-9)
        assert res.average_delay == pytest.approx(1.0, abs=1e-9)

    def test_mixed_exponents(self):
        # x against x^2: at equilibrium f1 = f2^2 with f1 + f2 = 2 -> golden.
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", c=1.0, n=1.0),
                   Edge("e2", "s", "t", c=1.0, n=2.0)),
            commodities=(Commodity("s", "t", 2.0),), budget=0.0)
        res = solve_equilibrium(inst)
        f2 = res.flow.get("e2")
        assert f2 ** 2 == pytest.approx(res.flow.get("e1"), abs=1e-9)
        assert res.flow.get("e1") + f2 == pytest.approx(2.0, abs=1e-12)

    def test_multi_commodity(self):
        inst = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("sm1", "s", "m", c=1.0), Edge("sm2", "s", "m", c=1.0),
                   Edge("mt", "m", "t", c=2.0)),
            commodities=(Commodity("s", "m", 1.0), Commodity("s", "t", 1.0)),
            budget=0.0)
        res = solve_equilibrium(inst)
        # Both s->m links carry 1.0 total across commodities.
        assert res.flow.get("sm1") + res.flow.get("sm2") == pytest.approx(2.0, abs=1e-9)
        assert res.flow.get("mt") == pytest.approx(1.0, abs=1e-9)
        assert len(res.common_delay) == 2

    def test_infeasible_when_no_usable_path(self):
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e", "s", "t", c=0.0, b=0.0, n=1.0, mu=1.0),),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        with pytest.raises(Infeasible):
            solve_equilibrium(inst)  # no allocation: conductance stays zero
        res = solve_equilibrium(inst, Allocation({"e": 1.0}))
        assert res.average_delay == pytest.approx(1.0, abs=1e-12)

    def test_uniqueness_across_starts(self, rng):
        for _ in range(30):
            m = int(rng.integers(2, 5))
            params = [(rng.uniform(0.2, 3), rng.uniform(0, 2), 0.0)
                      for _ in range(m)]
            inst = make_dipole(params, demand=float(rng.uniform(0.5, 5)),
                               budget=0.0)
            tol = 1e-8
            runs = [_solve_paths(inst, Allocation(), s)
                    for s in ("shortest", "longest", "all")]
            for e in inst.edges:
                vals = [r.flow.get(e.id) for r in runs]
                assert max(vals) - min(vals) <= 10 * tol

    def test_frank_wolfe_agrees_on_dipole(self, fig2):
        exact = solve_equilibrium(fig2, Allocation({"e1": 1.0, "e2": 1.0}))
        fw = _solve_frank_wolfe(fig2, Allocation({"e1": 1.0, "e2": 1.0}),
                                1e-10)
        assert fw.average_delay == pytest.approx(exact.average_delay, rel=1e-6)

    def test_frank_wolfe_agrees_on_wheatstone(self, wheatstone, monkeypatch):
        exact = solve_equilibrium(wheatstone, Allocation({"ab": 1.0}))
        monkeypatch.setattr(equilibrium, "_FW_ITERS", 200000)
        fw = _solve_frank_wolfe(wheatstone, Allocation({"ab": 1.0}), 1e-6)
        assert fw.average_delay == pytest.approx(exact.average_delay, rel=1e-4)


def _delay(inst, eid, x, beta):
    from netimprove.core import edge_delay
    return edge_delay(inst.edge_index[eid], x, beta)


class TestParallelLinksClosedForm:
    def test_fig2_short_link_only(self, fig2):
        res = solve_parallel_links_equilibrium(fig2.edges, Allocation({"e2": 3.0}), 40.0)
        assert res.average_delay == pytest.approx(80.0, abs=1e-12)
        assert res.flow.get("e1") == 0.0

    def test_fig2_both_links(self, fig2):
        res = solve_parallel_links_equilibrium(fig2.edges, Allocation({"e1": 3.0}), 40.0)
        assert res.average_delay == pytest.approx(319.0 / 3.3, abs=1e-12)

    def test_single_link(self):
        e = Edge("e", "s", "t", c=1.0)
        res = solve_parallel_links_equilibrium([e], None, 2.0)
        assert res.average_delay == pytest.approx(2.0, abs=1e-15)

    def test_rigid_cap_absorbs_residual(self, pigou):
        # Demand large enough that the rigid link must carry flow.
        res = solve_parallel_links_equilibrium(pigou.edges, None, 3.0)
        assert res.average_delay == pytest.approx(1.0, abs=1e-12)
        assert res.flow.get("e1") == pytest.approx(1.0, abs=1e-12)
        assert res.flow.get("e2") == pytest.approx(2.0, abs=1e-12)

    def test_rigid_cap_absorbs_residual_at_a_tiny_demand(self):
        # The residual 9e-13 is below 1e-12 but not below 1e-12 of the demand.
        links = [Edge("a", "s", "t", c=1.0), Edge("r", "s", "t", b=1e-13, rigid=True)]
        res = solve_parallel_links_equilibrium(links, None, 1e-12)
        assert res.average_delay == 1e-13
        assert res.flow.get("a") == 1e-13
        assert res.flow.get("r") == pytest.approx(9e-13, rel=1e-12, abs=0.0)
        assert sum(res.flow.edge_flow.values()) == pytest.approx(
            1e-12, rel=1e-12, abs=0.0)

    def test_non_affine_rejected(self):
        e = Edge("e", "s", "t", c=1.0, n=2.0)
        with pytest.raises(UnsupportedDelay):
            solve_parallel_links_equilibrium([e], None, 1.0)

    def test_agrees_with_general_solver(self, rng):
        for _ in range(60):
            m = int(rng.integers(2, 6))
            params = []
            for _ in range(m):
                rigid = rng.random() < 0.15
                params.append((rng.uniform(0.1, 3), rng.uniform(0, 3),
                               rng.uniform(0, 2), rigid))
            inst = make_dipole(params, demand=float(rng.uniform(0.5, 8)),
                               budget=2.0)
            beta = {}
            left = inst.budget
            for e in inst.edges:
                if e.improvable and rng.random() < 0.7:
                    amt = rng.uniform(0, left)
                    beta[e.id] = amt
                    left -= amt
            alloc = Allocation(beta)
            closed = solve_parallel_links_equilibrium(inst.edges, alloc,
                                                      inst.commodities[0].demand)
            general = solve_equilibrium(inst, alloc, tol=1e-10)
            assert general.average_delay == pytest.approx(
                closed.average_delay, rel=1e-8, abs=1e-10)

    def test_monotone_improvement_when_all_used(self, rng):
        # With every link carrying flow, adding budget anywhere must strictly
        # lower the common delay.
        for _ in range(40):
            m = int(rng.integers(2, 5))
            params = [(rng.uniform(0.3, 2), rng.uniform(0, 0.5),
                       rng.uniform(0.2, 2)) for _ in range(m)]
            d = float(rng.uniform(5, 10))
            inst = make_dipole(params, demand=d, budget=1.0)
            base = solve_parallel_links_equilibrium(inst.edges, None, d)
            if any(base.flow.get(e.id) <= 1e-9 for e in inst.edges):
                continue
            for e in inst.edges:
                bumped = solve_parallel_links_equilibrium(
                    inst.edges, Allocation({e.id: 0.5}), d)
                assert bumped.average_delay < base.average_delay - 1e-12

    def test_batch_matches_scalar(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 6))
            params = [(rng.uniform(0.1, 3), rng.uniform(0, 3), 0.0)
                      for _ in range(m)]
            params.sort(key=lambda p: p[1])
            d = float(rng.uniform(0.5, 8))
            inst = make_dipole(params, demand=d, budget=0.0)
            batch = rng.uniform(0, 2, size=(40, m))
            c_eff = np.array([p[0] for p in params]) + batch * 0.0
            c_eff = c_eff + batch  # pretend mu = 1 on all links
            b = np.array([p[1] for p in params])
            ls = parallel_links_delay_batch(c_eff, b, d)
            for row in range(40):
                edges = tuple(
                    Edge(f"e{t+1}", "s", "t", c=float(c_eff[row, t]), b=float(b[t]))
                    for t in range(m))
                scalar = solve_parallel_links_equilibrium(edges, None, d)
                assert ls[row] == pytest.approx(scalar.average_delay, rel=1e-12)


def test_dipole_links_detector(fig2, wheatstone):
    assert dipole_links(fig2) is not None
    assert dipole_links(wheatstone) is None


def test_wardrop_pairwise_condition(rng):
    # Every used path's delay is within tolerance of every other path's.
    from netimprove.core import edge_delay as _ed

    for _ in range(25):
        m = int(rng.integers(2, 5))
        params = [(rng.uniform(0.2, 2), rng.uniform(0, 2), rng.uniform(0, 1))
                  for _ in range(m)]
        inst = make_dipole(params, demand=float(rng.uniform(0.5, 4)),
                           budget=1.0)
        beta = Allocation({e.id: 1.0 / m for e in inst.edges})
        res = solve_equilibrium(inst, beta, tol=1e-10)
        L = res.common_delay[0]
        for e in inst.edges:
            d_e = _ed(e, res.flow.get(e.id), beta.get(e.id))
            if res.flow.get(e.id) > 1e-9:
                assert d_e <= L + 1e-8 * max(1.0, L)
            assert d_e >= L - 1e-8 * max(1.0, L) or res.flow.get(e.id) <= 1e-9


def _closed_forms(inst, alloc):
    """Dipole delay from the closed form's three entry points."""
    d = inst.commodities[0].demand
    links = inst.edges
    order = sorted((t for t, e in enumerate(links) if not e.rigid),
                   key=lambda t: links[t].b)
    cap = min((e.b for e in links if e.rigid), default=np.inf)
    row = [[links[t].c + links[t].mu * alloc.get(links[t].id) for t in order]]
    batch = parallel_links_delay_batch(
        np.array(row), np.array([links[t].b for t in order]), d, cap)[0]
    closed = solve_parallel_links_equilibrium(links, alloc, d)
    assert sum(closed.flow.edge_flow.values()) == pytest.approx(d, rel=1e-12)
    return closed.average_delay, evaluate_delay(inst, alloc), batch


@pytest.mark.parametrize("with_rigid", [False, True])
def test_zero_conductance_links_between_usable_links(rng, with_rigid):
    # Links with no conductance carry no flow wherever they fall in length
    # order, including first; the used-set scan must step over them.
    for _ in range(40):
        m = int(rng.integers(3, 7))
        params = []
        for t in range(m):
            dead = t % 2 == 0 or rng.random() < 0.3
            params.append((0.0 if dead else rng.uniform(0.1, 3),
                           rng.uniform(0, 3), rng.uniform(0.5, 2)))
        if with_rigid:
            params.append((0.0, rng.uniform(0.5, 4), 0.0, True))
        if all(p[0] == 0.0 for p in params if len(p) == 3) and not with_rigid:
            params[1] = (1.0,) + params[1][1:]
        inst = make_dipole(params, demand=float(rng.uniform(0.5, 8)),
                           budget=1.0)
        # Budget only on links that already conduct, so the dead ones stay
        # dead; every few cases one dead link is revived instead.
        beta = {e.id: 0.5 for e in inst.edges if e.c > 0.0 and e.improvable}
        if rng.random() < 0.25:
            dead = [e.id for e in inst.edges if e.c == 0.0 and not e.rigid]
            beta = {dead[0]: 0.5}
        alloc = Allocation({k: v / len(beta) for k, v in beta.items()})
        general = solve_equilibrium(inst, alloc, tol=1e-10).average_delay
        for value in _closed_forms(inst, alloc):
            assert value == pytest.approx(general, rel=1e-8, abs=1e-10)


def test_dipole_without_usable_or_rigid_link_is_infeasible():
    inst = make_dipole([(0.0, 1.0, 1.0), (0.0, 0.5, 0.0)], demand=1.0,
                       budget=1.0)
    d = inst.commodities[0].demand
    with pytest.raises(Infeasible):
        solve_parallel_links_equilibrium(inst.edges, None, d)
    with pytest.raises(Infeasible):
        evaluate_delay(inst, Allocation())
    with pytest.raises(Infeasible):
        solve_equilibrium(inst, Allocation())
    ls = parallel_links_delay_batch(np.zeros((1, 2)), np.array([0.5, 1.0]), d)
    assert ls[0] == np.inf


def test_auto_does_not_retry_frank_wolfe_on_bad_input():
    # Only the path cap sends "auto" to Frank-Wolfe; an overflow in the
    # path engine is reported as it is, without a Frank-Wolfe warning.
    # Both links have positive conductance, and the delay overflows.
    huge = Instance(nodes=("s", "t"),
                    edges=(Edge("a", "s", "t", c=1e-300, b=0.0, mu=1e-300),
                           Edge("b", "s", "t", c=1e-300, b=1.0)),
                    commodities=(Commodity("s", "t", 1e10),), budget=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            solve_equilibrium(huge)


def test_an_infinite_common_delay_admits_a_shorter_path():
    # From the shortest free-flow path a, the whole demand gives a delay out
    # of range; the funded link b is shorter, and the Wardrop point puts
    # almost all of the flow on it.
    inst = Instance(nodes=("s", "t"),
                    edges=(Edge("a", "s", "t", c=1e-300, b=0.0, mu=1e-300),
                           Edge("b", "s", "t", c=0.0, b=1.0, mu=1.0)),
                    commodities=(Commodity("s", "t", 1e10),), budget=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = _solve_paths(inst, Allocation({"b": 1.0}))
    assert res.average_delay == pytest.approx(1e10 + 1.0, rel=1e-15)
    assert res.flow.edge_flow == pytest.approx({"a": 1e-290, "b": 1e10},
                                               rel=1e-12)
    assert 0.0 <= res.duality_gap <= 1e-8


def test_auto_takes_frank_wolfe_past_the_path_cap(fig2, monkeypatch):
    # The engine is kept with its instance, so the capped solve takes a fresh
    # copy; its simple paths are cached first, so the cap must hold for
    # cached paths too.
    alloc = Allocation({"e1": 1.0, "e2": 1.0})
    exact = solve_equilibrium(fig2, alloc)
    fresh = dataclasses.replace(fig2)
    fresh.simple_paths("s", "t")
    monkeypatch.setattr(equilibrium, "_PATH_CAP", 1)
    fw = solve_equilibrium(fresh, alloc, tol=1e-10)
    assert fw.flow.paths is None
    assert exact.flow.paths is not None
    assert fw.average_delay == pytest.approx(exact.average_delay, rel=1e-6)


# ---------------------------------------------------------------------------
# The path engine against Frank-Wolfe on random instances

_EXPONENTS = (0.5, 1.0, 2.0, 3.0)


def _random_edge(rng, eid, tail, head):
    return Edge(eid, tail, head, c=float(rng.uniform(0.2, 3.0)),
                b=float(rng.uniform(0.0, 2.0)),
                n=float(rng.choice(_EXPONENTS)),
                mu=float(rng.uniform(0.0, 2.0)))


def _random_dipole(rng):
    edges = tuple(_random_edge(rng, f"e{t}", "s", "t")
                  for t in range(int(rng.integers(2, 5))))
    return Instance(nodes=("s", "t"), edges=edges,
                    commodities=(Commodity("s", "t",
                                           float(rng.uniform(0.5, 4.0))),),
                    budget=float(rng.uniform(0.0, 3.0)))


def _random_two_commodity(rng):
    # Both commodities may cross m and share its two links to t, so their
    # path flows are not fixed by the edge flows.
    arcs = (("a", "s1", "m"), ("b", "s2", "m"), ("c", "m", "t"),
            ("c2", "m", "t"), ("d", "s1", "t"), ("f", "s2", "t"))
    return Instance(
        nodes=("s1", "s2", "m", "t"),
        edges=tuple(_random_edge(rng, *arc) for arc in arcs),
        commodities=(Commodity("s1", "t", float(rng.uniform(0.5, 3.0))),
                     Commodity("s2", "t", float(rng.uniform(0.5, 3.0)))),
        budget=float(rng.uniform(0.0, 3.0)))


def test_path_engine_matches_frank_wolfe_on_random_instances(monkeypatch):
    # The path route must settle every instance within tol and without a
    # warning.  Frank-Wolfe's certificate bounds the optimal potential from
    # below and its own potential from above, whether or not it reaches its
    # tol in 1,000 steps; where it does, the common delays agree.
    rng = np.random.default_rng(1)
    close = 0
    monkeypatch.setattr(equilibrium, "_FW_ITERS", 1000)
    for k in range(40):
        inst = (_random_dipole if k % 2 == 0 else _random_two_commodity)(rng)
        w = rng.dirichlet(np.ones(len(inst.edges) + 1))[:-1] * inst.budget
        alloc = Allocation({e.id: float(v) for e, v in zip(inst.edges, w)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = _solve_paths(inst, alloc)
            warnings.filterwarnings("ignore", message="Frank-Wolfe stopped")
            fw = _solve_frank_wolfe(inst, alloc, 1e-10)
        assert paths.duality_gap <= 1e-8
        phi = beckmann_potential(paths.flow, alloc, inst)
        phi_fw = beckmann_potential(fw.flow, alloc, inst)
        assert phi_fw * (1.0 - fw.duality_gap) * (1.0 - 1e-12) <= phi
        assert phi <= phi_fw * (1.0 + 1e-12)
        if fw.duality_gap <= 1e-10:
            close += 1
            assert paths.common_delay == pytest.approx(fw.common_delay,
                                                       rel=1e-8)
    assert close >= 30


@pytest.mark.parametrize("method", ["paths", "auto"])
def test_a_total_delay_out_of_range_keeps_its_finite_delay(method):
    # Two links of c = 1e-300 at demand 1.6e4 have L = 8e303, and the total
    # delay d * L is out of floating-point range: the relative gap needs no
    # flow unit, so both the one-row solve and a grid row return L.
    inst = Instance(nodes=("s", "t"),
                    edges=(Edge("a", "s", "t", c=1e-300, b=0.0, mu=1.0),
                           Edge("b", "s", "t", c=1e-300, b=0.0)),
                    commodities=(Commodity("s", "t", 1.6e4),), budget=0.0)
    res = (_solve_paths(inst, Allocation()) if method == "paths"
           else solve_equilibrium(inst))
    assert res.average_delay == pytest.approx(8e303, rel=1e-12)
    assert res.duality_gap <= 1e-8
    rows = path_delay_rows(inst, inst.edges[:1], np.zeros((1, 1)))
    assert rows.tolist() == [res.average_delay]


def test_crossing_commodities_settle_without_frank_wolfe():
    # Paths s1-m-t and s2-m-t over links c and c2 form a cycle that leaves
    # the edge flows unchanged, so the Newton system is singular; the
    # engine settles on least-norm steps instead of stalling.
    inst = Instance(
        nodes=("s1", "s2", "m", "t"),
        edges=(Edge("a", "s1", "m", c=2.9, b=0.6, n=2.0),
               Edge("b", "s2", "m", c=1.5, b=0.5),
               Edge("c", "m", "t", c=1.9, b=1.4, n=0.5),
               Edge("c2", "m", "t", c=1.5, b=0.4),
               Edge("d", "s1", "t", c=1.8, b=1.4),
               Edge("f", "s2", "t", c=1.7, b=1.7)),
        commodities=(Commodity("s1", "t", 2.5), Commodity("s2", "t", 2.5)),
        budget=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_equilibrium(inst)
        fw = _solve_frank_wolfe(inst, Allocation(), 1e-10)
    assert res.flow.paths is not None and res.duality_gap <= 1e-8
    assert res.flow.get("c") > 0.0 and res.flow.get("c2") > 0.0
    assert res.common_delay == pytest.approx(fw.common_delay, rel=1e-8)


def test_path_route_warns_when_its_gap_exceeds_tol():
    inst = Instance(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", c=1.0, b=0.3, n=0.5),
               Edge("e2", "s", "t", c=0.7, b=0.0, n=3.0)),
        commodities=(Commodity("s", "t", 1.7),), budget=0.0)
    res = solve_equilibrium(inst)
    assert 0.0 < res.duality_gap <= 1e-8
    with pytest.warns(RuntimeWarning, match="path engine stopped at relative"
                                            " gap"):
        tight = solve_equilibrium(inst, tol=res.duality_gap / 2)
    assert tight == res


@pytest.mark.parametrize("demand", [1e-14, 1e-20])
def test_paths_listed_at_a_small_demand_carry_it(wheatstone, demand):
    # Each path is listed against its own commodity's demand, so a demand
    # far below 1 keeps its paths, beside a commodity of demand 1 too.
    braess = dataclasses.replace(
        wheatstone, commodities=(Commodity("s", "t", demand),))
    res = solve_equilibrium(braess, Allocation({"ab": 1.0}))
    assert res.flow.edge_flow and res.flow.paths
    assert sum(w for _, w in res.flow.paths) == pytest.approx(demand,
                                                              rel=1e-12)
    two = Instance(nodes=("s1", "s2", "t"),
                   edges=(Edge("a", "s1", "t", c=1.0), Edge("b", "s1", "t", c=2.0),
                          Edge("c", "s2", "t", c=1.0)),
                   commodities=(Commodity("s1", "t", demand),
                                Commodity("s2", "t", 1.0)), budget=0.0)
    res = solve_equilibrium(two)
    first = [w for p, w in res.flow.paths if p[0] in ("a", "b")]
    assert len(first) == 2
    assert sum(first) == pytest.approx(demand, rel=1e-12)
    assert res.flow.commodity_flows[0] == pytest.approx(
        {"a": demand / 3, "b": 2 * demand / 3}, rel=1e-12)
