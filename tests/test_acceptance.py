"""Acceptance criteria, one test per criterion, printed as pass/fail lines.

Each test pins its tolerances inline and reports a one-line verdict so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
random families are seeded; oracle resolutions scale with the number of
improvable edges to keep grids exact-closed-form and within budget.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.copt import solve_copt
from netimprove.equilibrium import solve_equilibrium
from netimprove.fptas import run_dp, solve_fptas
from netimprove.gadgets import (
    build_2ddp_instance,
    build_partition_instance,
    series_dipole_oracle,
    verify_dipole_claim,
)
from netimprove.oracle import (
    GridSpec,
    enumerate_discretized_minmax,
    evaluate_delay,
    grid_search,
    sweep_segment,
)
from netimprove.parallelpaths import best_single_edge_allocation, solve_parallel_paths
from netimprove.seriesparallel import decompose_series_parallel
from netimprove.verify import run_suites

SQRT2 = math.sqrt(2.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def make_dipole_instance(params, demand, budget):
    edges = tuple(
        Edge(f"e{t+1}", "s", "t", c=c, b=b, n=1.0, mu=mu)
        for t, (c, b, mu) in enumerate(params))
    return Instance(nodes=("s", "t"), edges=edges,
                    commodities=(Commodity("s", "t", demand),), budget=budget)


def fig2_instance():
    return Instance(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", c=0.1, b=90.0, n=1.0, mu=1.0),
               Edge("e2", "s", "t", c=0.2, b=0.0, n=1.0, mu=0.1)),
        commodities=(Commodity("s", "t", 40.0),),
        budget=3.0)


def test_criterion_1_nonconvex_sweep():
    """Sweep between the two pure allocations of the two-link example."""
    started = time.perf_counter()
    inst = fig2_instance()
    rows = sweep_segment(inst, Allocation({"e1": 0.0, "e2": 3.0}),
                         Allocation({"e1": 3.0, "e2": 0.0}), steps=100)
    left, right, mid = rows[0][1], rows[-1][1], rows[50][1]
    chord = 0.5 * (left + right)
    elapsed = time.perf_counter() - started
    ok = (abs(left - 80.0) <= 1e-6
          and abs(right - 319.0 / 3.3) <= 1e-6
          and abs(mid - 184.0 / 1.95) <= 1e-6
          and mid > chord + 1.0
          and elapsed < 1.0)
    report("criterion-1 nonconvexity sweep", ok,
           f"endpoints {left:.6f}/{right:.6f}, midpoint {mid:.6f} vs chord "
           f"{chord:.6f}, {elapsed:.2f}s")


def test_criterion_2_parallel_links_optimality():
    """Single-edge funding matches the grid oracle on 200 random dipoles."""
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    counts = [2] * 80 + [3] * 60 + [4] * 40 + [5] * 20
    resolution = {2: 200, 3: 120, 4: 40, 5: 28}
    worst_gap = 0.0
    for m in counts:
        c = rng.uniform(0.3, 2.0, size=m)
        b = rng.uniform(0.0, 0.5, size=m)
        mu = rng.uniform(0.2, 2.0, size=m)
        budget = float(rng.uniform(0.5, 2.0))
        # Demand high enough that every link carries flow at any allocation,
        # the regime in which single-edge funding is provably optimal.
        demand = 2.0 * float(b.max()) * (float(c.sum()) + budget * float(mu.max())) + 1.0
        inst = make_dipole_instance(list(zip(c, b, mu)), demand, budget)
        R = resolution[m]
        single = best_single_edge_allocation(inst.edges, budget, demand)
        oracle = grid_search(inst, GridSpec(resolution=R))
        # The oracle grid contains every single-edge grid point, so its
        # value is sandwiched between the true optimum and the best
        # single-edge grid point.
        grid_single = min(
            evaluate_delay(inst, Allocation({e.id: k * budget / R}))
            for e in inst.edges for k in range(0, R + 1, max(1, R // 40)))
        assert single.delay <= oracle.delay + 1e-9 * max(1.0, single.delay)
        assert oracle.delay <= grid_single + 1e-9 * max(1.0, grid_single)
        worst_gap = max(worst_gap, oracle.delay - single.delay)
    elapsed = time.perf_counter() - started
    report("criterion-2 parallel links vs oracle",
           elapsed < 30.0,
           f"200 dipoles, worst oracle excess {worst_gap:.2e}, {elapsed:.1f}s")


def _random_parallel_paths_instance(rng, n_paths):
    edges = []
    improvable_left = 4
    for p in range(n_paths):
        k = 1 if rng.random() < 0.6 else 2
        for j in range(k):
            tail = "s" if j == 0 else f"p{p}m"
            head = "t" if j == k - 1 else f"p{p}m"
            mu = 0.0
            if improvable_left > 0 and rng.random() < 0.7:
                mu = float(rng.uniform(0.2, 2.0))
                improvable_left -= 1
            edges.append(Edge(f"p{p}e{j}", tail, head,
                              c=float(rng.uniform(0.2, 2.0)),
                              b=float(rng.uniform(0.0, 1.5)), mu=mu))
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", float(rng.uniform(1.0, 6.0))),),
                    budget=float(rng.uniform(0.5, 3.0)))


def test_criterion_3_parallel_paths_optimality():
    """Exact parallel-path solver vs grid oracle on 100 random instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(33)
    counts = [2] * 50 + [3] * 30 + [4] * 20
    worst_excess = -math.inf
    for n_paths in counts:
        inst = _random_parallel_paths_instance(rng, n_paths)
        improvable = [e for e in inst.edges if e.improvable]
        if not improvable:
            continue
        p = len(improvable)
        R = {1: 400, 2: 200, 3: 100, 4: 48}[p]
        res = solve_parallel_paths(inst, tol=1e-11)
        oracle = grid_search(inst, GridSpec(resolution=R))
        assert res.delay <= oracle.delay + 1e-4, \
            f"solver {res.delay} above oracle {oracle.delay}"
        # Between grid nodes the delay can improve by at most its slope
        # times one step; bound that numerically at the oracle point.  The
        # step up may pass the budget, so it is taken on a budget one step
        # larger, which leaves the delay unchanged.
        h = inst.budget / R
        wider = dataclasses.replace(inst, budget=inst.budget + h)
        slope_sum = 0.0
        for e in improvable:
            up = dict(oracle.allocation.beta)
            up[e.id] = up.get(e.id, 0.0) + h
            down = dict(oracle.allocation.beta)
            down[e.id] = max(0.0, down.get(e.id, 0.0) - h)
            l_up = evaluate_delay(wider, Allocation(up))
            l_down = evaluate_delay(inst, Allocation(down))
            slope_sum += abs(l_up - l_down) / (2 * h)
        grid_err = 2.0 * slope_sum * h + 1e-9
        assert res.delay >= oracle.delay - grid_err, \
            f"solver {res.delay} implausibly below oracle {oracle.delay}"
        worst_excess = max(worst_excess, res.delay - oracle.delay)
    elapsed = time.perf_counter() - started
    report("criterion-3 parallel paths vs oracle", elapsed < 120.0,
           f"100 instances, worst solver excess {worst_excess:.2e}, "
           f"{elapsed:.1f}s")


def braess_trap_instance(budget=1e6):
    return Instance(
        nodes=("s", "a", "b", "t"),
        edges=(Edge("sa", "s", "a", c=1.0, b=0.0, mu=0.0),
               Edge("sb", "s", "b", c=0.0, b=1.0, mu=0.0, rigid=True),
               Edge("ab", "a", "b", c=0.0, b=0.0, mu=1.0),
               Edge("at", "a", "t", c=0.0, b=1.0, mu=0.0, rigid=True),
               Edge("bt", "b", "t", c=1.0, b=0.0, mu=0.0)),
        commodities=(Commodity("s", "t", 1.0),),
        budget=budget)


def test_criterion_4_copt_guarantee():
    """Relaxation allocation is a 4/3 approximation on oracle-solvable
    instances, and the bound is not vacuous."""
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    ratios = []
    cases = []
    for _ in range(70):
        m = int(rng.integers(2, 5))
        params = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.0, 2.0)),
                   float(rng.uniform(0.0, 2.0))) for _ in range(m)]
        cases.append(make_dipole_instance(
            params, float(rng.uniform(1.0, 6.0)), float(rng.uniform(0.5, 2.0))))
    for _ in range(29):
        cases.append(_random_parallel_paths_instance(rng, int(rng.integers(2, 4))))
    cases.append(braess_trap_instance())
    checked = 0
    for inst in cases:
        improvable = [e for e in inst.edges if e.improvable]
        p = len(improvable)
        if p == 0:
            continue
        checked += 1
        res = solve_copt(inst, tol=1e-8, fw_iters=300)
        eq = evaluate_delay(inst, res.allocation)
        R = {1: 200, 2: 100, 3: 60, 4: 40}[min(p, 4)]
        oracle = grid_search(inst, GridSpec(resolution=R))
        assert eq <= (4.0 / 3.0) * oracle.delay + 1e-6, \
            f"guarantee violated: {eq} > 4/3 * {oracle.delay}"
        ratios.append(eq / oracle.delay)
    elapsed = time.perf_counter() - started
    ok = max(ratios) > 1.05 and elapsed < 120.0
    report("criterion-4 relaxation guarantee", ok,
           f"{checked} instances, ratio range [{min(ratios):.4f}, "
           f"{max(ratios):.4f}], {elapsed:.1f}s")


def _random_series_parallel_instance(rng, max_edges=6):
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    budget_improvable = [3]

    def build(s, t, leaves):
        counter[0] += 1
        eid = f"g{counter[0]}"
        if leaves <= 1 or rng.random() < 0.3:
            mu = 0.0
            if budget_improvable[0] > 0 and rng.random() < 0.75:
                mu = float(rng.uniform(0.3, 2.0))
                budget_improvable[0] -= 1
            return [Edge(eid, s, t, c=float(rng.uniform(0.3, 2.0)),
                         b=float(rng.uniform(0.0, 1.0)),
                         n=float(rng.choice([1.0, 1.0, 2.0])), mu=mu)]
        if rng.random() < 0.5:
            mid = fresh()
            return build(s, mid, leaves // 2) + build(mid, t, leaves - leaves // 2)
        return build(s, t, leaves // 2) + build(s, t, leaves - leaves // 2)

    while True:
        budget_improvable[0] = 3
        edges = build("s", "t", int(rng.integers(2, max_edges + 1)))
        if any(e.improvable for e in edges):
            nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
            return Instance(
                nodes=tuple(nodes), edges=tuple(edges),
                commodities=(Commodity("s", "t", float(rng.uniform(0.5, 3.0))),),
                budget=float(rng.uniform(0.5, 2.0)))


def test_criterion_5_fptas_guarantee():
    """Scheme result within the squared factor of the oracle, certified by
    the table entry, on 50 random series-parallel instances."""
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    eps = 0.25
    worst_ratio = 0.0
    for _ in range(50):
        inst = _random_series_parallel_instance(rng)
        res = solve_fptas(inst, eps, tol=1e-9, k_cap=64, clamp=True)
        assert res.equilibrium_delay <= res.dp_value + 1e-6, \
            "certificate violated: equilibrium above the table value"
        p = len([e for e in inst.edges if e.improvable])
        R = {1: 100, 2: 40, 3: 20}[min(p, 3)]
        oracle = grid_search(inst, GridSpec(resolution=R))
        # oracle.delay >= L*, so beating the factored oracle value is a
        # stronger statement than the factored optimum plus grid error.
        assert res.equilibrium_delay <= (1 + eps) ** 2 * oracle.delay + 1e-6
        worst_ratio = max(worst_ratio, res.equilibrium_delay / oracle.delay)
    elapsed = time.perf_counter() - started
    report("criterion-5 approximation scheme", elapsed < 300.0,
           f"50 instances at eps=0.25, worst ratio {worst_ratio:.4f} "
           f"(bound {1.25**2:.4f}), {elapsed:.1f}s")


def _all_sp_shapes(max_leaves):
    """Every series/parallel composition shape with up to ``max_leaves``."""
    def shapes(n):
        if n == 1:
            yield "e"
            return
        for left in range(1, n):
            for ls in shapes(left):
                for rs in shapes(n - left):
                    yield ("S", ls, rs)
                    yield ("P", ls, rs)

    for n in range(1, max_leaves + 1):
        yield from shapes(n)


def _instance_from_shape(shape, rng):
    counter = [0]
    edges = []

    def build(node, s, t):
        if node == "e":
            counter[0] += 1
            edges.append(Edge(
                f"g{counter[0]}", s, t, c=float(rng.uniform(0.2, 2.0)),
                b=float(rng.uniform(0.0, 1.0)),
                n=float(rng.choice([1.0, 2.0])),
                mu=float(rng.choice([0.0, 1.0, 0.5]))))
            return
        kind, left, right = node
        if kind == "S":
            counter[0] += 1
            mid = f"m{counter[0]}"
            build(left, s, mid)
            build(right, mid, t)
        else:
            build(left, s, t)
            build(right, s, t)

    build(shape, "s", "t")
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", 1.0),),
                    budget=1.0)


def test_criterion_6_dp_equals_enumeration():
    """Exact agreement between the recursion and raw enumeration on every
    series-parallel shape with up to 4 edges, K up to 6."""
    started = time.perf_counter()
    rng = np.random.default_rng(66)
    shapes = list(_all_sp_shapes(4))
    checked = 0
    for shape in shapes:
        inst = _instance_from_shape(shape, rng)
        tree = decompose_series_parallel(inst)
        for K in (2, 4, 6):
            dpt = run_dp(inst, tree, K, lazy_root=False)
            got = dpt.values_for(tree)
            ref = enumerate_discretized_minmax(inst, K)
            assert (np.isfinite(got) == np.isfinite(ref)).all()
            both = np.isfinite(got)
            assert np.allclose(got[both], ref[both], rtol=1e-12, atol=1e-12), \
                f"shape {shape}, K={K}"
            checked += 1
    elapsed = time.perf_counter() - started
    report("criterion-6 table vs enumeration", True,
           f"{len(shapes)} shapes x 3 grids = {checked} exact matches, "
           f"{elapsed:.1f}s")


def test_criterion_7_partition_gadget():
    """Solvable splits attain the tangency bound; unsolvable ones miss it
    by a definite margin; the curve claim holds at three scales."""
    started = time.perf_counter()
    solvable = build_partition_instance([1.0, 1.0])
    target = 1.0 + 18.0 * SQRT2
    assert solvable.target == pytest.approx(target, abs=1e-12)
    _, best = series_dipole_oracle([1.0, 1.0], solvable.instance.budget, 40)
    assert best >= solvable.target - 1e-9
    assert best <= solvable.target + 0.15

    uneven = build_partition_instance([1.0, 2.0])
    _, best_uneven = series_dipole_oracle([1.0, 2.0], uneven.instance.budget, 40)
    assert best_uneven >= uneven.target + 1e-3

    tangency = []
    for v in (1.0, 2.0, 7.0):
        rep = verify_dipole_claim(v)
        assert rep.passed, rep.message
        tangency.append(max(rep.tangency_error_low, rep.tangency_error_high))
    elapsed = time.perf_counter() - started
    report("criterion-7 partition gadget", True,
           f"solvable {best:.4f} vs target {target:.4f}; unsolvable margin "
           f"{best_uneven - uneven.target:.4f}; worst tangency "
           f"{max(tangency):.1e}; {elapsed:.1f}s")


def test_criterion_8_disjoint_paths_gadget():
    """Disjoint inner paths admit delay 3/2 + o(1); a shared vertex forces
    delay 2 across the whole allocation grid."""
    started = time.perf_counter()
    big = 1e6
    disjoint = build_2ddp_instance(
        ["s1", "s2", "t1", "t2"], [("s1", "t1"), ("s2", "t2")],
        "s1", "s2", "t1", "t2", big_budget=big)
    funded = ["g0", "g1", "src_s1", "t2_snk"]
    alloc = Allocation({eid: big / len(funded) for eid in funded})
    eq = solve_equilibrium(disjoint, alloc)
    assert eq.average_delay <= 1.5 + 1e-3

    shared = build_2ddp_instance(
        ["s1", "s2", "v", "t1", "t2"],
        [("s1", "v"), ("v", "t1"), ("s2", "v"), ("v", "t2")],
        "s1", "s2", "t1", "t2", big_budget=big)
    oracle = grid_search(shared, GridSpec(resolution=20))
    assert oracle.delay >= 2.0 - 1e-3
    elapsed = time.perf_counter() - started
    report("criterion-8 disjoint-paths gadget", True,
           f"disjoint equilibrium {eq.average_delay:.6f}; shared-vertex "
           f"oracle {oracle.delay:.6f} over {oracle.evaluations} points; "
           f"{elapsed:.1f}s")


def test_criterion_9_property_suites():
    """Curvature, concavity, path domination and uniqueness at the stated
    sample counts."""
    started = time.perf_counter()
    results = run_suites(["hessian-psd", "conductance-concavity",
                          "path-domination", "equilibrium-uniqueness"],
                         seed=0)
    failed = [r for r in results if not r.passed]
    elapsed = time.perf_counter() - started
    report("criterion-9 property suites", not failed,
           "; ".join(f"{r.name}={r.cases}" for r in results)
           + f"; {elapsed:.1f}s" + (f"; FAILED {failed}" if failed else ""))
