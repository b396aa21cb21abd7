import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from netimprove.copt import solve_copt
from netimprove.core import Allocation, Commodity, Edge, Instance, parse_instance
from netimprove.equilibrium import (dipole_delay_rows, dipole_links,
                                    solve_equilibrium)
from netimprove.errors import (NetimproveError, NotParallelPaths,
                               UnsupportedDelay, ValidationError)
from netimprove.fptas import solve_fptas
from netimprove.oracle import GridSpec, evaluate_delay, grid_search
from netimprove.parallelpaths import (
    _allocate_weighted,
    as_parallel_paths,
    best_single_edge_allocation,
    max_path_conductance,
    paths_delay,
    solve_parallel_paths,
)

from conftest import extreme_dipoles, make_dipole


def _edge(i, c, mu, b=0.0, tail="s", head="t"):
    return Edge(f"e{i}", tail, head, c=c, b=b, n=1.0, mu=mu)


class TestMaxPathConductance:
    def test_single_edge(self):
        c, split = max_path_conductance([_edge(1, 1.0, 1.0)], 2.0)
        assert c == pytest.approx(3.0, abs=1e-12)
        assert split == {"e1": 2.0}

    def test_symmetric_pair(self):
        edges = [_edge(1, 1.0, 1.0, tail="s", head="m"),
                 _edge(2, 1.0, 1.0, tail="m", head="t")]
        c, split = max_path_conductance(edges, 2.0)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert split["e1"] == pytest.approx(1.0, abs=1e-12)
        assert split["e2"] == pytest.approx(1.0, abs=1e-12)

    def test_unbalanced_pair_waterfills_the_weak_edge(self):
        edges = [_edge(1, 1.0, 1.0, head="m"),
                 _edge(2, 3.0, 1.0, tail="m")]
        c, split = max_path_conductance(edges, 2.0)
        assert split["e1"] == pytest.approx(2.0, abs=1e-12)
        assert split["e2"] == pytest.approx(0.0, abs=1e-12)
        assert c == pytest.approx(1.5, abs=1e-12)

    def test_unimprovable_edge_gets_nothing(self):
        edges = [_edge(1, 1.0, 0.0, head="m"), _edge(2, 1.0, 1.0, tail="m")]
        c, split = max_path_conductance(edges, 3.0)
        assert split["e1"] == 0.0
        assert split["e2"] == 3.0
        assert c == pytest.approx(1.0 / (1.0 + 1.0 / 4.0), abs=1e-12)

    @pytest.mark.filterwarnings("ignore:Values in x were outside bounds")
    def test_matches_brute_force(self, rng):
        from scipy.optimize import minimize

        for _ in range(40):
            k = int(rng.integers(1, 4))
            edges = []
            for i in range(k):
                edges.append(_edge(i, float(rng.uniform(0.05, 3.0)),
                                   float(rng.uniform(0.1, 3.0)),
                                   tail=f"v{i}", head=f"v{i+1}"))
            budget = float(rng.uniform(0.0, 5.0))
            c, split = max_path_conductance(edges, budget)
            assert sum(split.values()) == pytest.approx(min(budget, budget), abs=1e-9)

            def resistance(beta):
                return sum(1.0 / (e.c + e.mu * bb) for e, bb in zip(edges, beta))

            res = minimize(resistance, np.full(k, budget / k),
                           bounds=[(0, budget)] * k,
                           constraints=[{"type": "eq",
                                         "fun": lambda b: b.sum() - budget}],
                           method="SLSQP", options={"ftol": 1e-14, "maxiter": 400})
            assert c == pytest.approx(1.0 / res.fun, rel=1e-6)

    def test_nonaffine_rejected(self):
        with pytest.raises(UnsupportedDelay):
            max_path_conductance([Edge("e", "s", "t", c=1.0, n=2.0, mu=1.0)], 1.0)


class TestWeightedWaterfilling:
    def test_symmetric_flat_paths_split_evenly(self):
        ppi = as_parallel_paths(make_dipole([(1, 0, 1), (1, 0, 1)], 1.0, 2.0))
        budgets = _allocate_weighted(ppi.paths, [0.25, 0.25], 2.0)
        assert budgets[0] == pytest.approx(1.0, abs=1e-12)
        assert budgets[1] == pytest.approx(1.0, abs=1e-12)

    def test_distinct_flat_levels_pick_the_best(self):
        # Single-edge paths have constant marginal w * mu: all budget goes
        # to the higher product.
        ppi = as_parallel_paths(make_dipole([(1, 0, 1), (1, 0, 3)], 1.0, 2.0))
        budgets = _allocate_weighted(ppi.paths, [1.0, 1.0], 2.0)
        assert budgets == [0.0, 2.0] or budgets == [2.0, 0.0]
        winner = ppi.paths[0] if budgets[0] > 0 else ppi.paths[1]
        assert winner.edges[0].mu == 3.0

    @pytest.mark.filterwarnings("ignore:Values in x were outside bounds")
    def test_matches_brute_force_on_random_instances(self, rng):
        from scipy.optimize import minimize

        for trial in range(30):
            npaths = int(rng.integers(2, 4))
            edges = []
            specs = []
            for p in range(npaths):
                k = int(rng.integers(1, 3))
                chain = []
                for i in range(k):
                    chain.append(Edge(
                        f"p{p}e{i}",
                        f"n{p}_{i}" if i else "s",
                        f"n{p}_{i+1}" if i + 1 < k else "t",
                        c=float(rng.uniform(0.05, 2.0)),
                        b=float(rng.uniform(0.0, 1.0)),
                        mu=float(rng.uniform(0.0, 2.0)) if rng.random() < 0.8 else 0.0,
                    ))
                edges.extend(chain)
                specs.append(chain)
            inst = Instance(
                nodes=tuple({e.tail for e in edges} | {e.head for e in edges}),
                edges=tuple(edges),
                commodities=(Commodity("s", "t", 1.0),), budget=1.0)
            ppi = as_parallel_paths(inst)
            weights = [float(rng.uniform(0.1, 3.0)) for _ in ppi.paths]
            total = float(rng.uniform(0.2, 4.0))
            budgets = _allocate_weighted(ppi.paths, weights, total)
            assert all(b >= -1e-12 for b in budgets)
            assert sum(budgets) == pytest.approx(total, rel=1e-9) or \
                sum(budgets) <= total + 1e-9

            value = sum(w * p.profile.conductance(b)
                        for w, p, b in zip(weights, ppi.paths, budgets))

            def neg_value(x):
                return -sum(w * p.profile.conductance(b)
                            for w, p, b in zip(weights, ppi.paths, x))

            best_brute = -math.inf
            for attempt in range(4):
                x0 = rng.dirichlet(np.ones(len(ppi.paths))) * total
                res = minimize(neg_value, x0, bounds=[(0, total)] * len(ppi.paths),
                               constraints=[{"type": "eq",
                                             "fun": lambda b: b.sum() - total}],
                               method="SLSQP",
                               options={"ftol": 1e-13, "maxiter": 500})
                best_brute = max(best_brute, -res.fun)
            assert value >= best_brute - 1e-6 * max(1.0, abs(best_brute))


class TestPrefixDelayAndInner:
    def test_fig2_prefix_values(self, fig2):
        ppi = as_parallel_paths(fig2)
        # Paths sorted by length: the 5x link comes first.
        assert ppi.paths[0].length == 0.0
        assert _prefix_delay(ppi, [3.0], 1) == pytest.approx(80.0, abs=1e-12)
        m2 = _prefix_delay(ppi, [3.0, 0.0], 2)
        assert m2 == pytest.approx((40 + 0.1 * 90) / 0.6, abs=1e-10)
        # The equilibrium delay is the least prefix delay.
        assert paths_delay(ppi, [3.0, 0.0]) == pytest.approx(80.0, abs=1e-12)

    def test_inner_allocate_zero_target(self, fig2):
        ppi = as_parallel_paths(fig2)
        budgets, spent = inner_allocate(ppi, _prefix_delay(ppi, [0.0], 1), 1)
        assert spent == 0.0
        assert budgets == [0.0]

    def test_inner_allocate_self_consistent(self, fig2):
        ppi = as_parallel_paths(fig2)
        budgets, spent = inner_allocate(ppi, 90.0, 2)
        assert spent == pytest.approx(2.444444444444, rel=1e-6)
        assert _prefix_delay(ppi, budgets, 2) == pytest.approx(90.0, rel=1e-9)

    def test_inner_allocate_symmetric_example(self):
        inst = make_dipole([(1, 0, 1), (1, 0, 1)], 1.0, 10.0)
        ppi = as_parallel_paths(inst)
        budgets, spent = inner_allocate(ppi, 0.25, 2)
        assert spent == pytest.approx(2.0, rel=1e-9)
        assert budgets[0] == pytest.approx(1.0, rel=1e-6)
        assert budgets[1] == pytest.approx(1.0, rel=1e-6)

    def test_inner_allocate_unreachable_target(self):
        # An unimprovable prefix cannot reach any target below its delay.
        inst = make_dipole([(1, 0, 0), (1, 1, 0)], 1.0, 5.0)
        ppi = as_parallel_paths(inst)
        _, spent = inner_allocate(ppi, 0.5, 1)
        assert spent == math.inf


class TestSolveParallelPaths:
    def test_fig2_optimum(self, fig2):
        res = solve_parallel_paths(fig2)
        assert res.delay == pytest.approx(80.0, abs=1e-7)
        alloc = res.allocation
        assert alloc.get("e2") == pytest.approx(3.0, abs=1e-7)
        assert alloc.get("e1") == pytest.approx(0.0, abs=1e-9)

    def test_single_path_reduces_to_conductance_maximization(self):
        edges = (Edge("a", "s", "m", c=1.0, b=1.0, mu=1.0),
                 Edge("b", "m", "t", c=2.0, b=0.5, mu=0.5))
        inst = Instance(nodes=("s", "m", "t"), edges=edges,
                        commodities=(Commodity("s", "t", 2.0),), budget=3.0)
        res = solve_parallel_paths(inst)
        c_best, _ = max_path_conductance(edges, 3.0)
        assert res.delay == pytest.approx(2.0 / c_best + 1.5, rel=1e-9)

    def test_zero_budget_returns_baseline(self, fig2):
        inst = Instance(nodes=fig2.nodes, edges=fig2.edges,
                        commodities=fig2.commodities, budget=0.0)
        res = solve_parallel_paths(inst)
        base = solve_equilibrium(inst).average_delay
        assert res.delay == pytest.approx(base, rel=1e-10)
        assert res.allocation.total() == 0.0

    def test_budget_monotonicity(self, rng):
        # Optimal delay strictly decreases in the budget while all paths are
        # in use.
        params = [(1.0, 0.0, 1.0), (0.8, 0.1, 0.7), (1.2, 0.2, 0.5)]
        demand = 10.0
        prev = None
        for budget in np.linspace(0.5, 5.0, 8):
            inst = make_dipole(params, demand, float(budget))
            res = solve_parallel_paths(inst)
            if prev is not None:
                assert res.delay < prev - 1e-9
            prev = res.delay

    def test_matches_grid_oracle_on_random_instances(self, rng):
        for trial in range(25):
            npaths = int(rng.integers(2, 4))
            params = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0, 1.5)),
                       float(rng.uniform(0.1, 2.0))) for _ in range(npaths)]
            demand = float(rng.uniform(1.0, 6.0))
            budget = float(rng.uniform(0.3, 3.0))
            inst = make_dipole(params, demand, budget)
            res = solve_parallel_paths(inst, tol=1e-10)
            ppi = as_parallel_paths(inst)
            # Path-budget grid oracle at resolution 200, one batched
            # closed-form evaluation over the whole grid.
            R = 200
            grid = []
            for i in range(R + 1):
                for j in range(R + 1 - i):
                    budgets = [i * budget / R, j * budget / R]
                    if npaths == 3:
                        k = int((budget - i * budget / R - j * budget / R) / budget * R)
                        budgets.append(max(0.0, k * budget / R))
                    grid.append(budgets)
            c_eff = np.array([[p.profile.conductance(pb)
                               for p, pb in zip(ppi.paths, budgets)]
                              for budgets in grid])
            delays = dipole_delay_rows([p.length for p in ppi.paths],
                                       [p.profile.all_rigid for p in ppi.paths],
                                       c_eff, ppi.demand)
            assert np.isfinite(delays).all()
            sample = np.random.default_rng(trial).choice(len(grid), 20,
                                                         replace=False)
            for r in sample:
                assert paths_delay(ppi, grid[r]) == delays[r]
            best = float(delays.min())
            assert res.delay <= best + 1e-6
            assert res.delay >= best - 0.2  # grid resolution slack


@pytest.mark.parametrize("solve", [
    solve_copt,
    lambda inst: best_single_edge_allocation(
        dipole_links(inst), inst.budget, inst.commodities[0].demand),
    solve_parallel_paths,
    lambda inst: solve_fptas(inst, 0.25, k_cap=64, clamp=True),
    lambda inst: grid_search(inst, GridSpec(20)),
], ids=["copt", "parallel-links", "parallel-paths", "fptas", "oracle"])
def test_every_solver_returns_one_allocation_type(fig2, solve):
    res = solve(fig2)
    assert isinstance(res.allocation, Allocation)
    res.allocation.validate_for(fig2)


class TestBestSingleEdge:
    def test_fig2(self, fig2):
        res = best_single_edge_allocation(fig2.edges, 3.0, 40.0)
        assert res.edge_id == "e2"
        assert res.delay == pytest.approx(80.0, abs=1e-12)

    def test_symmetric_tie_breaks_to_lowest_id(self):
        links = [_edge(1, 1.0, 1.0), _edge(2, 1.0, 1.0)]
        res = best_single_edge_allocation(links, 1.0, 1.0)
        assert res.edge_id == "e1"
        assert res.delay == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_zero_budget(self, fig2):
        res = best_single_edge_allocation(fig2.edges, 0.0, 40.0)
        base = solve_equilibrium(fig2).average_delay
        assert res.delay == pytest.approx(base, rel=1e-10)


class TestStructureDetection:
    def test_rejects_shared_vertex(self, wheatstone):
        with pytest.raises(NotParallelPaths):
            as_parallel_paths(wheatstone)

    def test_rejects_nonaffine(self):
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", c=1.0, n=2.0),
                   Edge("e2", "s", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        with pytest.raises(UnsupportedDelay):
            as_parallel_paths(inst)

    def test_drops_permanently_dead_paths(self):
        inst = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("live", "s", "t", c=1.0, mu=1.0),
                   Edge("dead1", "s", "m", c=0.0, mu=0.0),
                   Edge("dead2", "m", "t", c=1.0, mu=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        ppi = as_parallel_paths(inst)
        assert len(ppi.paths) == 1
        assert len(ppi.dropped) == 1

    def test_multi_edge_paths(self):
        edges = (Edge("a1", "s", "m", c=1.0, mu=1.0),
                 Edge("a2", "m", "t", c=2.0, b=1.0, mu=0.0),
                 Edge("b", "s", "t", c=0.5, b=2.0, mu=2.0))
        inst = Instance(nodes=("s", "m", "t"), edges=edges,
                        commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        ppi = as_parallel_paths(inst)
        assert len(ppi.paths) == 2
        assert ppi.paths[0].length == 1.0  # two-edge chain is shorter

    def test_equilibrium_consistency(self, rng):
        # paths_delay agrees with the general equilibrium solver.
        for _ in range(20):
            edges = (Edge("a1", "s", "m", c=float(rng.uniform(0.2, 2)),
                          b=float(rng.uniform(0, 1)), mu=1.0),
                     Edge("a2", "m", "t", c=float(rng.uniform(0.2, 2)), mu=0.5),
                     Edge("b", "s", "t", c=float(rng.uniform(0.2, 2)),
                          b=float(rng.uniform(0, 2)), mu=2.0))
            inst = Instance(nodes=("s", "m", "t"), edges=edges,
                            commodities=(Commodity("s", "t", 3.0),), budget=2.0)
            ppi = as_parallel_paths(inst)
            budgets = [float(rng.uniform(0, 1)), float(rng.uniform(0, 1))]
            L = paths_delay(ppi, budgets)
            split = {}
            for p, pb in zip(ppi.paths, budgets):
                split.update(p.profile.split(pb))
            eq = solve_equilibrium(inst, Allocation(split))
            assert eq.average_delay == pytest.approx(L, rel=1e-8)


def _prefix_delay(ppi, path_budgets, count):
    """Common delay (d + sum c b) / sum c if exactly the ``count`` shortest
    paths carry flow; inf if they have no conductance."""
    paths = ppi.paths[:count]
    cs = [p.profile.conductance(pb) for p, pb in zip(paths, path_budgets)]
    num = ppi.demand + sum(c * p.length for c, p in zip(cs, paths))
    return num / sum(cs) if sum(cs) > 0.0 else math.inf


def inner_allocate(ppi, l_target, count, tol=1e-12):
    """Smallest budget whose optimal prefix allocation reaches ``l_target``.

    Returns (path budgets, spent).  ``spent`` is inf when the target is
    unreachable below 1e9 times the budget.  Budgets are found by bisection
    on the total handed to the weighted water-filling, warm-started
    monotonically: each is floored at the budgets of the last total that
    fell short.  The water-filling solution is monotone in the total, so
    the floor only absorbs float dust.
    """
    paths = ppi.paths[:count]
    weights = [max(0.0, l_target - p.length) for p in paths]

    def allocate(total, lower):
        return [max(b, lb) for b, lb in
                zip(_allocate_weighted(paths, weights, total), lower)]

    zeros = [0.0] * count
    m0 = _prefix_delay(ppi, zeros, count)
    if m0 <= l_target * (1.0 + 1e-15):
        return zeros, 0.0
    if all(w <= 0.0 or not p.profile.segments for w, p in zip(weights, paths)):
        return zeros, math.inf

    cap = 1e9 * max(1.0, ppi.budget)
    hi = max(ppi.budget, 1.0)
    lo = 0.0
    lo_budgets = zeros
    while True:
        budgets = allocate(hi, lo_budgets)
        if _prefix_delay(ppi, budgets, count) <= l_target:
            break
        lo = hi
        lo_budgets = budgets
        hi *= 2.0
        if hi > cap:
            return budgets, math.inf
    hi_budgets = budgets
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        budgets = allocate(mid, lo_budgets)
        if _prefix_delay(ppi, budgets, count) > l_target:
            lo = mid
            lo_budgets = budgets
        else:
            hi = mid
            hi_budgets = budgets
    return hi_budgets, hi


def _bisection_reference(ppi, tol):
    """Nested bisection on the target delay, each step asking
    ``inner_allocate`` for the budget that reaches it, on each prefix that
    ends a run of equal lengths, until the first prefix whose delay does not
    exceed the next length (the window rule); returns the delay and the used
    path count."""
    budget = ppi.budget
    n = len(ppi.paths)
    for count in range(1, n + 1):
        nxt = ppi.paths[count].length if count < n else math.inf
        if nxt == ppi.paths[count - 1].length:
            continue
        m0 = _prefix_delay(ppi, [0.0] * count, count)
        budgets, m_star = [0.0] * count, m0
        if budget > 0.0 and any(p.profile.segments for p in ppi.paths[:count]):
            b_i = ppi.paths[count - 1].length
            lo, hi = b_i, m0
            scale = max(m0 - b_i, 1e-12 * max(1.0, m0))
            while hi - lo > tol * scale:
                mid = 0.5 * (lo + hi)
                if inner_allocate(ppi, mid, count)[1] > budget:
                    lo = mid
                else:
                    hi = mid
            weights = [max(0.0, hi - p.length) for p in ppi.paths[:count]]
            trial = _allocate_weighted(ppi.paths[:count], weights, budget)
            if _prefix_delay(ppi, trial, count) <= m0:
                budgets = trial
                m_star = _prefix_delay(ppi, trial, count)
        if m_star <= nxt:
            full = budgets + [0.0] * (n - count)
            return paths_delay(ppi, full), count
    raise AssertionError("no prefix passed the window rule")


def _random_paths_instance(rng):
    """Parallel paths of one to three edges: some share one length, some
    carry a rigid edge, some are dead (c = mu = 0), and one in ten has no
    budget."""
    shared = float(rng.uniform(0.0, 1.5))
    edges = []
    for p in range(int(rng.integers(1, 6))):
        k = int(rng.integers(1, 4))
        dead = p > 0 and rng.random() < 0.15
        for j in range(k):
            tail = "s" if j == 0 else f"p{p}m{j}"
            head = "t" if j == k - 1 else f"p{p}m{j + 1}"
            b = shared / k if rng.random() < 0.4 else float(rng.uniform(0.0, 1.5))
            if dead and j == 0:
                edges.append(Edge(f"p{p}e{j}", tail, head, c=0.0, b=b))
            elif k > 1 and j == 0 and rng.random() < 0.2:
                edges.append(Edge(f"p{p}e{j}", tail, head, b=b, rigid=True))
            else:
                mu = float(rng.uniform(0.1, 2.0)) if rng.random() < 0.75 else 0.0
                edges.append(Edge(f"p{p}e{j}", tail, head,
                                  c=float(rng.uniform(0.1, 2.0)), b=b, mu=mu))
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    budget = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.1, 5.0))
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", float(rng.uniform(0.2, 8.0))),),
                    budget=budget)


class TestDinkelbachAgainstBisection:
    def test_matches_nested_bisection_on_random_instances(self, rng):
        seen = {"multi-edge": 0, "dropped": 0, "flat tail": 0,
                "equal lengths": 0, "zero budget": 0, "several used": 0}
        for _ in range(30):
            inst = _random_paths_instance(rng)
            ppi = as_parallel_paths(inst)
            ref_delay, ref_used = _bisection_reference(ppi, tol=1e-11)
            res = solve_parallel_paths(ppi, tol=1e-11)
            assert res.delay == pytest.approx(ref_delay, rel=1e-12)
            assert res.used_paths == ref_used
            assert all(b >= 0.0 for b in res.path_budgets)
            assert res.allocation.total() <= inst.budget * (1.0 + 1e-12)
            res.allocation.validate_for(inst)
            assert paths_delay(ppi, res.path_budgets) == res.delay
            seen["multi-edge"] += any(len(p.edges) > 1 for p in ppi.paths)
            seen["dropped"] += bool(ppi.dropped)
            seen["flat tail"] += any(p.profile.flat_level() is not None
                                     for p in ppi.paths[:res.used_paths])
            seen["equal lengths"] += len({p.length for p in ppi.paths}) < len(ppi.paths)
            seen["zero budget"] += inst.budget == 0.0
            seen["several used"] += res.used_paths > 1
        assert all(seen.values()), seen

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_nonpositive_tol_rejected(self, fig2, tol):
        with pytest.raises(ValidationError, match="tol"):
            solve_parallel_paths(fig2, tol=tol)

    def test_huge_improvement_rate(self, fig2):
        edges = (fig2.edges[0], Edge("e2", "s", "t", c=0.2, b=0.0, mu=1e300))
        inst = Instance(nodes=fig2.nodes, edges=edges,
                        commodities=fig2.commodities, budget=3.0)
        res = solve_parallel_paths(inst)
        links = best_single_edge_allocation(edges, 3.0, 40.0)
        assert res.delay == pytest.approx(40.0 / 3e300, rel=1e-12)
        assert links.edge_id == "e2"
        assert links.delay == pytest.approx(res.delay, rel=1e-12)


# Gates (c = 0, mu > 0) carry no flow until funded, so L(0) is inf.
GATES = {"one gate": make_dipole([(0.0, 1.0, 1.0)], 1.0, 1.0),
         "two gates": make_dipole([(0.0, 1.0, 1.0), (0.0, 2.0, 2.0)],
                                  1.0, 1.0)}


@pytest.mark.parametrize("name", sorted(GATES))
def test_gates_alone_take_the_budget(name):
    inst = GATES[name]
    res = solve_parallel_paths(inst)
    links = best_single_edge_allocation(inst.edges, 1.0, 1.0)
    grid = grid_search(inst, GridSpec(resolution=20))
    assert res.delay == links.delay == grid.delay == 2.0
    assert res.used_paths == 1
    assert res.allocation == Allocation({"e1": 1.0})


def test_a_gate_beside_an_overflowing_link_takes_the_budget():
    # Link e1 alone carries the demand at a delay above the float range, so
    # L(0) is inf; funding the gate e2 gives 1e10 + 1.
    inst = make_dipole([(1e-300, 0.0, 1e-300), (0.0, 1.0, 1.0)], 1e10, 1.0)
    res = solve_parallel_paths(inst)
    assert res.delay == best_single_edge_allocation(
        inst.edges, 1.0, 1e10).delay == 1e10 + 1.0
    assert res.allocation == Allocation({"e2": 1.0})


# Two links each, at magnitudes far apart, where the optimum spends the
# whole budget on one link.  The two gates start from L(0) = inf; at the
# tiny delays the first step falls by about 2e-190 and the second by as
# much; at the tiny weight, 8e-174 times the marginal 2e-157 underflows.
FAR_APART = {
    "tiny weight": make_dipole([(4.03e40, 0.0, 2.35e-157),
                                (8.46e131, 7.15e-59, 8.2e-290)],
                               3.26e-133, 2.33e218),
    "tiny delays": make_dipole([(4.49e-11, 1.08e-251, 1.74e234),
                                (2.42e-143, 2.26e-205, 1.75e278)],
                               1e-200, 1.77e-150),
    "two far gates": make_dipole([(0.0, 3.37e-176, 4e-250),
                                  (0.0, 6.79e226, 2.18e-107)],
                                 2e-64, 5.68e194),
    "long short link": make_dipole([(1.77e-128, 2.67e-101, 2.62e71),
                                    (1.43e177, 1.04e-25, 1.92e151)],
                                   2.73e209, 2.57e101),
    "short long link": make_dipole([(3.12e-290, 5.76e8, 7.15e-69),
                                    (1.34e-286, 9.14e-127, 3.32e-164)],
                                   1.85e-272, 5.22e89),
}


@pytest.mark.parametrize("name", sorted(FAR_APART))
def test_far_apart_magnitudes_reach_the_single_link_optimum(name):
    inst = FAR_APART[name]
    res = solve_parallel_paths(inst)
    links = best_single_edge_allocation(inst.edges, inst.budget,
                                        inst.total_demand)
    assert res.delay == pytest.approx(links.delay, rel=1e-12, abs=0.0)
    assert res.used_paths == 1


@settings(max_examples=200, deadline=None)
@given(extreme_dipoles())
def test_extreme_dipoles_play_the_reported_delay(doc):
    # Wherever the optimizer returns, its allocation plays its delay.
    try:
        inst = parse_instance(json.dumps(doc))
        res = solve_parallel_paths(inst)
    except NetimproveError:
        return
    played = evaluate_delay(inst, res.allocation)
    assert played == pytest.approx(res.delay, rel=1e-9, abs=0.0)


class TestSingleEdgeTies:
    def test_tie_floor_is_relative(self, fig2):
        res = best_single_edge_allocation(fig2.edges, 3.0, 1e-300)
        ppi = as_parallel_paths(Instance(
            nodes=fig2.nodes, edges=fig2.edges,
            commodities=(Commodity("s", "t", 1e-300),), budget=3.0))
        assert res.edge_id == "e2"
        assert res.delay == pytest.approx(2e-300, rel=1e-12)
        assert res.delay == pytest.approx(solve_parallel_paths(ppi).delay,
                                          rel=1e-12)

    def test_unusable_first_link_does_not_block_the_rest(self):
        links = [_edge(1, 0.0, 0.0), _edge(2, 0.0, 1.0)]
        res = best_single_edge_allocation(links, 2.0, 1.0)
        assert res.edge_id == "e2"
        assert res.delay == pytest.approx(0.5, rel=1e-15)


class TestRigidPaths:
    """A constant delay is affine with slope 0: a path of rigid edges alone
    caps the delay at its length, and the optimum is the least of that cap
    and the congestible paths' optimum."""

    @staticmethod
    def _agrees(inst, R):
        """The exact optimum, which plays its delay and is at most the grid
        oracle's, and on a dipole the best single-link allocation's."""
        res = solve_parallel_paths(inst)
        grid = grid_search(inst, GridSpec(resolution=R))
        played = evaluate_delay(inst, res.allocation)
        assert played == pytest.approx(res.delay, rel=1e-12)
        assert res.delay <= grid.delay * (1.0 + 1e-12)
        if all(e.tail == "s" and e.head == "t" for e in inst.edges):
            links = best_single_edge_allocation(inst.edges, inst.budget,
                                                inst.total_demand)
            assert res.delay <= links.delay * (1.0 + 1e-12)
            return res, grid, links
        return res, grid, None

    @pytest.mark.parametrize("budget", [0.0, 4.0])
    def test_a_rigid_link_beside_congestible_links(self, budget):
        inst = make_dipole([(1.0, 0.0, 1.0), (0.5, 0.5, 2.0),
                            (0.0, 1.5, 0.0, True)], demand=3.0, budget=budget)
        res, grid, links = self._agrees(inst, 400)
        if budget == 0.0:  # unfunded, the rigid link caps the delay
            assert res.delay == grid.delay == links.delay == 1.5
        else:  # funded, the congestible links beat it
            assert res.delay < 1.5
            assert grid.delay == pytest.approx(res.delay, rel=1e-4)
            assert res.used_paths == 2

    def test_an_all_rigid_dipole_gives_the_shortest_rigid_length(self):
        inst = make_dipole([(0.0, 2.0, 0.0, True), (0.0, 1.5, 0.0, True),
                            (0.0, 3.0, 0.0, True)], demand=3.0, budget=2.0)
        res, grid, links = self._agrees(inst, 4)
        assert res.delay == grid.delay == links.delay == 1.5
        assert res.allocation.total() == 0.0

    def test_a_rigid_path_of_several_edges_among_parallel_paths(self):
        # Unfunded the rigid path, 0.75 + 0.5, caps the delay; funded, the
        # congestible paths go below it.
        paths = [[Edge("a1", "s", "ma", c=1.0, b=0.0, mu=1.0),
                  Edge("a2", "ma", "t", c=2.0, b=0.0)],
                 [Edge("b", "s", "t", c=0.5, b=0.5, mu=1.0)],
                 [Edge("z1", "s", "mz", b=0.75, rigid=True),
                  Edge("z2", "mz", "t", b=0.5, rigid=True)]]
        for budget, capped in ((0.0, True), (3.0, False)):
            inst = Instance(nodes=("s", "t", "ma", "mz"),
                            edges=tuple(e for p in paths for e in p),
                            commodities=(Commodity("s", "t", 2.0),),
                            budget=budget)
            res, grid, _ = self._agrees(inst, 200)
            assert (res.delay == 1.25) == capped
            assert grid.delay == pytest.approx(res.delay, rel=1e-4)
