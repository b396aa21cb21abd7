"""Named property suites: numeric spot checks of the library's invariants.

Each suite draws its own cases from a seeded generator and returns a
CheckResult; the CLI runs them all (or a --only selection) and fails the
process on any violation.  The suites dial the same math from two sides
wherever possible (closed form vs. solver, recursion vs. enumeration), so
a regression in either side trips a check.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .core import (Allocation, Commodity, Edge, Instance, _positive_path,
                   edge_delay, path_decompose)
from .copt import hessian_quadratic_form, relaxed_total_delay
from .equilibrium import (_solve_paths, solve_equilibrium,
                          solve_parallel_links_equilibrium)
from .fptas import run_dp
from .gadgets import verify_dipole_claim
from .oracle import (GridSpec, _check_count, enumerate_discretized_minmax,
                     grid_search)
from .parallelpaths import max_path_conductance
from .seriesparallel import check_tree, decompose_series_parallel

__all__ = ["CheckResult", "SUITES", "run_suites"]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str


def _random_dipole(rng, m=None, allow_rigid=False, demand_scale=5.0):
    m = m or int(rng.integers(2, 5))
    edges = []
    for t in range(m):
        rigid = allow_rigid and rng.random() < 0.15
        edges.append(Edge(
            f"e{t+1}", "s", "t",
            c=float(rng.uniform(0.1, 3.0)),
            b=float(rng.uniform(0.0, 2.0)),
            mu=0.0 if rigid else float(rng.uniform(0.0, 2.0)),
            rigid=rigid))
    return Instance(nodes=("s", "t"), edges=tuple(edges),
                    commodities=(Commodity("s", "t",
                                           float(rng.uniform(0.5, demand_scale))),),
                    budget=float(rng.uniform(0.5, 3.0)))


def _random_sp_instance(rng, max_edges=6, exponents=(1.0, 1.0, 2.0)):
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def build(s, t, budget):
        counter[0] += 1
        eid = f"g{counter[0]}"
        if budget <= 1 or rng.random() < 0.35:
            mu = float(rng.uniform(0.2, 2.0)) if rng.random() < 0.7 else 0.0
            return [Edge(eid, s, t, c=float(rng.uniform(0.2, 2.0)),
                         b=float(rng.uniform(0.0, 1.0)),
                         n=float(rng.choice(exponents)), mu=mu)]
        if rng.random() < 0.5:
            mid = fresh()
            return build(s, mid, budget // 2) + build(mid, t, budget - budget // 2)
        return build(s, t, budget // 2) + build(s, t, budget - budget // 2)

    edges = build("s", "t", int(rng.integers(2, max_edges + 1)))
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t",
                                           float(rng.uniform(0.5, 3.0))),),
                    budget=float(rng.uniform(0.5, 2.0)))


def _random_allocation(inst, rng, p):
    """Random amounts, within budget, on improvable edges drawn with odds p."""
    beta, left = {}, inst.budget
    for e in inst.edges:
        if e.improvable and rng.random() < p:
            beta[e.id] = float(rng.uniform(0, left))
            left -= beta[e.id]
    return Allocation(beta)


def _random_path_flow(inst, rng, value):
    k = inst.commodities[0]
    paths = inst.simple_paths(k.source, k.sink)
    weights = rng.dirichlet(np.ones(len(paths)))
    f: dict[str, float] = {}
    for p, w in zip(paths, weights):
        for eid in p:
            f[eid] = f.get(eid, 0.0) + float(w) * value
    return f


def check_ratio_mixing(rng, cases=2000) -> CheckResult:
    bad = 0
    for _ in range(cases):
        x = float(rng.uniform(0, 100))
        y = float(rng.uniform(1e-6, 100))
        z = float(rng.uniform(1e-6, 100))
        k = float(rng.uniform(1e-6, 100))
        if (x / y > k) != ((x + k * z) / (y + z) < x / y):
            bad += 1
    return CheckResult("ratio-mixing", bad == 0, cases,
                       f"{bad} violations" if bad else "ok")


def check_delay_monotone(rng, cases=300) -> CheckResult:
    for i in range(cases):
        e = Edge("e", "s", "t", c=float(rng.uniform(0.01, 5)),
                 b=float(rng.uniform(0, 5)), n=float(rng.uniform(0.3, 3)),
                 mu=float(rng.uniform(0, 3)))
        xs = np.sort(rng.uniform(0, 10, size=5))
        bs = np.sort(rng.uniform(0, 10, size=5))
        dx = [edge_delay(e, float(x), float(bs[0])) for x in xs]
        db = [edge_delay(e, float(xs[-1]), float(b)) for b in bs]
        if any(a > b + 1e-12 for a, b in zip(dx, dx[1:])) or \
           any(a < b - 1e-12 for a, b in zip(db, db[1:])):
            return CheckResult("delay-monotone", False, cases, f"case {i}")
    return CheckResult("delay-monotone", True, cases, "ok")


def check_path_decompose(rng, cases=200) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng)
        f = _random_path_flow(inst, rng, inst.commodities[0].demand)
        parts = path_decompose(inst, f)
        rebuilt: dict[str, float] = {}
        for path, v in parts:
            for eid in path:
                rebuilt[eid] = rebuilt.get(eid, 0.0) + v
        worst = max(abs(rebuilt.get(eid, 0.0) - f.get(eid, 0.0))
                    for eid in set(f) | set(rebuilt))
        if worst > 1e-12 or len(parts) > len(inst.edges):
            return CheckResult("path-decompose", False, cases,
                               f"case {i}: residual {worst:.2e}")
    return CheckResult("path-decompose", True, cases, "ok")


def check_decompose_recompose(rng, cases=150) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng)
        tree = decompose_series_parallel(inst)
        try:
            check_tree(tree, inst)
        except Exception as exc:
            return CheckResult("decompose-recompose", False, cases,
                               f"case {i}: {exc}")
    return CheckResult("decompose-recompose", True, cases, "ok")


def check_hessian_psd(rng, cases=10000) -> CheckResult:
    worst = 0.0
    for _ in range(cases):
        fd, scale = hessian_quadratic_form(
            float(rng.uniform(0.05, 3)), float(rng.uniform(0, 2)),
            float(rng.choice([1.0, 2.0, 3.0])), float(rng.uniform(0, 3)),
            float(rng.uniform(0, 5)), float(rng.uniform(0, 3)),
            tuple(rng.normal(size=2)))
        worst = min(worst, fd / scale)
        if fd < -1e-9 * scale:
            return CheckResult("hessian-psd", False, cases,
                               f"quadratic form {fd:.2e} at scale {scale:.2e}")
    return CheckResult("hessian-psd", True, cases, f"worst ratio {worst:.2e}")


def check_copt_midpoint(rng, cases=400) -> CheckResult:
    for i in range(cases):
        inst = _random_dipole(rng, m=2)
        d = inst.commodities[0].demand
        B = inst.budget

        def total(x1, b):
            return relaxed_total_delay(inst, {"e1": x1, "e2": d - x1},
                                       Allocation({"e1": b[0], "e2": b[1]}))

        xa, xb = rng.uniform(0, d, size=2)
        ba = rng.dirichlet(np.ones(3))[:2] * B
        bb = rng.dirichlet(np.ones(3))[:2] * B
        mid = total(0.5 * (xa + xb), 0.5 * (ba + bb))
        avg = 0.5 * (total(xa, ba) + total(xb, bb))
        if mid > avg + 1e-9 * max(1.0, abs(avg)):
            return CheckResult("copt-midpoint", False, cases, f"case {i}")
    return CheckResult("copt-midpoint", True, cases, "ok")


def check_conductance_concavity(rng, cases=1000) -> CheckResult:
    worst = -math.inf
    for i in range(cases):
        k = int(rng.integers(1, 4))
        edges = [Edge(f"e{j}", f"u{j}", f"u{j+1}",
                      c=float(rng.uniform(0.05, 2)),
                      mu=float(rng.uniform(0.1, 2)))
                 for j in range(k)]
        budget = float(rng.uniform(0.2, 4.0))
        b_prime = rng.dirichlet(np.ones(k)) * budget
        b_second = rng.dirichlet(np.ones(k)) * budget
        lams = np.linspace(0, 1, 9)
        vals = []
        for lam in lams:
            mix = lam * b_prime + (1 - lam) * b_second
            r = sum(1.0 / (e.c + e.mu * m) for e, m in zip(edges, mix))
            vals.append(1.0 / r)
        second = np.diff(vals, 2)
        worst = max(worst, float(second.max()))
        if (second > 1e-9).any():
            return CheckResult("conductance-concavity", False, cases,
                               f"case {i}: second difference {second.max():.2e}")
    return CheckResult("conductance-concavity", True, cases,
                       f"max second difference {worst:.2e}")


def check_waterfilling_kkt(rng, cases=200) -> CheckResult:
    # Funded edges must share the marginal resistance drop; idle edges may
    # not beat it.
    for i in range(cases):
        k = int(rng.integers(2, 5))
        edges = [Edge(f"e{j}", f"u{j}", f"u{j+1}",
                      c=float(rng.uniform(0.05, 2)),
                      mu=float(rng.uniform(0.1, 2)))
                 for j in range(k)]
        budget = float(rng.uniform(0.1, 4.0))
        _, split = max_path_conductance(edges, budget)
        marginals = [e.mu / (e.c + e.mu * split[e.id]) ** 2 for e in edges]
        funded = [g for e, g in zip(edges, marginals) if split[e.id] > 1e-12]
        idle = [g for e, g in zip(edges, marginals) if split[e.id] <= 1e-12]
        if funded:
            top = max(funded)
            if (max(funded) - min(funded)) > 1e-6 * top or \
               any(g > top * (1 + 1e-6) for g in idle):
                return CheckResult("waterfilling-kkt", False, cases, f"case {i}")
    return CheckResult("waterfilling-kkt", True, cases, "ok")


def check_equilibrium_uniqueness(rng, cases=40, tol=1e-8) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng, max_edges=5, exponents=(1.0, 2.0))
        runs = [_solve_paths(inst, Allocation(), start)
                for start in ("shortest", "longest", "all")]
        if None in runs:
            return CheckResult("equilibrium-uniqueness", False, cases,
                               f"case {i}: the path engine stalled")
        for e in inst.edges:
            vals = [r.flow.get(e.id) for r in runs]
            if max(vals) - min(vals) > 10 * tol:
                return CheckResult(
                    "equilibrium-uniqueness", False, cases,
                    f"case {i}: edge {e.id} spread {max(vals) - min(vals):.2e}")
    return CheckResult("equilibrium-uniqueness", True, cases, "ok")


def check_parallel_consistency(rng, cases=100) -> CheckResult:
    for i in range(cases):
        inst = _random_dipole(rng, allow_rigid=True)
        alloc = _random_allocation(inst, rng, 0.7)
        closed = solve_parallel_links_equilibrium(
            inst.edges, alloc, inst.commodities[0].demand)
        general = solve_equilibrium(inst, alloc, tol=1e-10)
        if abs(closed.average_delay - general.average_delay) > \
           1e-7 * max(1.0, closed.average_delay):
            return CheckResult("parallel-consistency", False, cases,
                               f"case {i}: {closed.average_delay} vs "
                               f"{general.average_delay}")
    return CheckResult("parallel-consistency", True, cases, "ok")


def check_monotone_improvement(rng, cases=60) -> CheckResult:
    done = 0
    i = 0
    while done < cases and i < cases * 20:
        i += 1
        inst = _random_dipole(rng, demand_scale=10.0)
        d = inst.commodities[0].demand
        base = solve_parallel_links_equilibrium(inst.edges, None, d)
        if any(base.flow.get(e.id) <= 1e-9 for e in inst.edges):
            continue
        done += 1
        for e in inst.edges:
            if not e.improvable:
                continue
            bumped = solve_parallel_links_equilibrium(
                inst.edges, Allocation({e.id: 0.3}), d)
            if bumped.average_delay >= base.average_delay - 1e-12:
                return CheckResult("monotone-improvement", False, cases,
                                   f"bump on {e.id} did not help")
    return CheckResult("monotone-improvement", True, done, "ok")


def check_dipole_claim(rng, cases=3) -> CheckResult:
    for v in (1.0, 2.0, 7.0)[:max(1, cases)]:
        report = verify_dipole_claim(v)
        if not report.passed:
            return CheckResult("dipole-claim", False, cases,
                               f"v={v}: {report.message}")
    return CheckResult("dipole-claim", True, cases, "ok")


def check_path_domination(rng, cases=1000) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng)
        k = inst.commodities[0]
        vf = float(rng.uniform(0.1, k.demand))
        vg = float(rng.uniform(vf, k.demand * 1.5))
        f = _random_path_flow(inst, rng, vf)
        g = _random_path_flow(inst, rng, vg)
        ok_edges = {eid for eid, val in g.items()
                    if val > 0.0 and val >= f.get(eid, 0.0) - 1e-12}
        if _positive_path(inst, dict.fromkeys(ok_edges, 1.0), k.source,
                          k.sink, 0.0) is None:
            return CheckResult("path-domination", False, cases, f"case {i}")
    return CheckResult("path-domination", True, cases, "ok")


def check_minmax_domination(rng, cases=150) -> CheckResult:
    # Equilibrium never has a worse maximum used-path delay than any other
    # flow of the same value on a series-parallel graph.
    for i in range(cases):
        inst = _random_sp_instance(rng, max_edges=5)
        alloc = _random_allocation(inst, rng, 0.5)
        eq = solve_equilibrium(inst, alloc, tol=1e-10)
        k = inst.commodities[0]
        g = _random_path_flow(inst, rng, k.demand)
        worst_g = -math.inf
        for p in inst.simple_paths(k.source, k.sink):
            if all(g.get(eid, 0.0) > 0.0 for eid in p):
                dl = sum(edge_delay(inst.edge_index[eid], g[eid],
                                    alloc.get(eid)) for eid in p)
                worst_g = max(worst_g, dl)
        if eq.common_delay[0] > worst_g + 1e-8 * max(1.0, abs(worst_g)):
            return CheckResult("minmax-domination", False, cases,
                               f"case {i}: {eq.common_delay[0]} > {worst_g}")
    return CheckResult("minmax-domination", True, cases, "ok")


def check_dp_oracle(rng, cases=6) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng, max_edges=4)
        tree = decompose_series_parallel(inst)
        K = int(rng.integers(2, 7))
        dpt = run_dp(inst, tree, K, lazy_root=False)
        got = dpt.values_for(tree)
        ref = enumerate_discretized_minmax(inst, K)
        both = np.isfinite(ref) & np.isfinite(got)
        if not (np.isfinite(ref) == np.isfinite(got)).all() or \
           not np.allclose(got[both], ref[both], rtol=1e-12, atol=1e-12):
            return CheckResult("dp-oracle", False, cases, f"case {i}, K={K}")
    return CheckResult("dp-oracle", True, cases, "ok")


def check_dp_monotonic(rng, cases=10) -> CheckResult:
    for i in range(cases):
        inst = _random_sp_instance(rng, max_edges=5)
        tree = decompose_series_parallel(inst)
        dpt = run_dp(inst, tree, 8, lazy_root=False)
        vals = dpt.values_for(tree)
        finite = np.where(np.isfinite(vals), vals, 1e300)
        if (np.diff(finite, axis=0) > 1e-9).any() or \
           (np.diff(finite, axis=1) < -1e-9).any():
            return CheckResult("dp-monotonic", False, cases, f"case {i}")
    return CheckResult("dp-monotonic", True, cases, "ok")


def check_dipole_shift(rng, cases=40) -> CheckResult:
    # At an interior optimum the closed form is indifferent to shifting
    # budget between two funded links.
    done = 0
    tries = 0
    while done < cases and tries < cases * 50:
        tries += 1
        mu1, mu2 = float(rng.uniform(0.5, 3)), float(rng.uniform(0.5, 3))
        if abs(mu1 - mu2) < 0.1:
            continue
        b1, b2 = float(rng.uniform(0.5, 2)), float(rng.uniform(0, 0.4))
        l_star = (b1 * mu1 - b2 * mu2) / (mu1 - mu2)
        if l_star <= max(b1, b2) + 0.05:
            continue
        c1, c2 = float(rng.uniform(0.3, 2)), float(rng.uniform(0.3, 2))
        links = (Edge("e1", "s", "t", c=c1, b=b1, mu=mu1),
                 Edge("e2", "s", "t", c=c2, b=b2, mu=mu2))

        def delay_at(b1v, b2v, d):
            res = solve_parallel_links_equilibrium(
                links, Allocation({"e1": b1v, "e2": b2v}), d)
            return res.average_delay

        # Pick the demand so that the equal-split allocation sits exactly
        # at the equalization delay, then test transfer invariance there.
        t_half = 1.0
        g1 = c1 + mu1 * t_half
        g2 = c2 + mu2 * t_half
        d = l_star * (g1 + g2) - g1 * b1 - g2 * b2
        if d <= 0:
            continue
        done += 1
        base = delay_at(t_half, t_half, d)
        if abs(base - l_star) > 1e-9 * l_star:
            return CheckResult("dipole-shift", False, cases,
                               "equalization point off")
        for delta in (1e-3, -1e-3, 0.1):
            moved = delay_at(t_half + delta, t_half - delta, d)
            if abs(moved - base) > 1e-9 * max(1.0, base):
                return CheckResult(
                    "dipole-shift", False, cases,
                    f"shift {delta} changed delay by {moved - base:.2e}")
    return CheckResult("dipole-shift", True, done, "ok")


def check_oracle_refinement(rng, cases=10) -> CheckResult:
    for i in range(cases):
        inst = _random_dipole(rng, m=int(rng.integers(2, 4)))
        coarse = grid_search(inst, GridSpec(resolution=6)).delay
        fine = grid_search(inst, GridSpec(resolution=12)).delay
        if fine > coarse + 1e-12:
            return CheckResult("oracle-refinement", False, cases, f"case {i}")
    return CheckResult("oracle-refinement", True, cases, "ok")


SUITES: dict[str, Callable] = {
    "ratio-mixing": check_ratio_mixing,
    "delay-monotone": check_delay_monotone,
    "path-decompose": check_path_decompose,
    "decompose-recompose": check_decompose_recompose,
    "hessian-psd": check_hessian_psd,
    "copt-midpoint": check_copt_midpoint,
    "conductance-concavity": check_conductance_concavity,
    "waterfilling-kkt": check_waterfilling_kkt,
    "equilibrium-uniqueness": check_equilibrium_uniqueness,
    "parallel-consistency": check_parallel_consistency,
    "monotone-improvement": check_monotone_improvement,
    "dipole-claim": check_dipole_claim,
    "path-domination": check_path_domination,
    "minmax-domination": check_minmax_domination,
    "dp-oracle": check_dp_oracle,
    "dp-monotonic": check_dp_monotonic,
    "dipole-shift": check_dipole_shift,
    "oracle-refinement": check_oracle_refinement,
}


def run_suites(names: list[str] | None = None, seed: int = 0,
               cases: int | None = None) -> list[CheckResult]:
    """Run the selected suites with a fixed seed (an integer >= 0) and, if
    given, ``cases`` cases each (an integer >= 1); results in listed order."""
    if cases is not None:
        _check_count("cases", cases)
    _check_count("seed", seed, least=0)
    selected = names or list(SUITES)
    out = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        rng = np.random.default_rng(seed)
        fn = SUITES[name]
        out.append(fn(rng, cases) if cases is not None else fn(rng))
    return out
