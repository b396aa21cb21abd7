"""Wardrop equilibria and the average delay for a fixed allocation.

The equilibrium flow is the unique minimizer of the potential

    Phi(f) = sum_e integral_0^{f_e} delay_e(x, beta_e) dx

over the product of per-commodity flow polytopes.  Two engines implement
the minimization:

* A path-based active-set solver.  All simple paths per commodity are
  enumerated (graphs here are desk scale); the solver maintains the set of
  flow-carrying paths, equalizes their delays by a direct linear solve in
  the affine case or damped Newton otherwise, and exchanges paths in and
  out of the set until the Wardrop condition holds.  This reaches machine
  precision, which the tolerance contracts downstream rely on.
  ``path_delay_rows`` runs the same loop on many allocations at once,
  grouping them by active set, for the grid oracle; the rows it cannot
  settle are left to ``solve_equilibrium``.

* Frank-Wolfe on edge flows, used when path enumeration exceeds its cap.
  The linear subproblem is a nonnegative-delay shortest path per commodity
  and the step size is the exact minimizer of the univariate convex step
  objective, found by safeguarded Newton on its derivative
  (``_exact_step``, which the relaxation in ``copt`` shares).  Its duality
  gap converges like O(1/k), so very tight tolerances are out of reach; a
  warning is issued if the iteration cap is hit first.

Either way the returned certificate is the relative duality gap
(Phi(f) - linearized lower bound) / Phi(f), and used-path delays per
commodity agree with the common delay to within the gap.

Dipole graphs (parallel links between the terminals) with affine delays
additionally get an exact closed form: with effective conductances g_e the
common delay over a used set S is (d + sum_S g_e b_e) / sum_S g_e, and the
used set grows along links sorted by length until the delay fits under the
next link's length.  Rigid links cap the delay at their length and absorb
the residual flow.  The used-set scan is written once, in
``parallel_links_delay_batch`` over rows of allocations, and a single
allocation is a batch of one row.  ``dipole_delay_rows`` lays out links,
or whole paths, for it: the parallel-paths optimizer and the grid oracle
use the same scan.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation,
    Edge,
    FlowState,
    Instance,
    edge_delay,
    edge_delay_integral,
    effective_conductance,
)
from .errors import (Infeasible, PathCapExceeded, UnsupportedDelay,
                     ValidationError)

__all__ = [
    "EquilibriumResult",
    "beckmann_potential",
    "solve_equilibrium",
    "solve_parallel_links_equilibrium",
    "length_unit",
    "parallel_links_delay_batch",
    "path_delay_rows",
    "dipole_delay_rows",
    "dipole_links",
]

_BOUNDARY_TOL = 1e-12  # used-set inclusion tolerance at delay == length ties
_PATH_CAP = 200  # simple paths per commodity the path engines enumerate
_BATCH_ROWS = 4096  # allocations per pass of the batched path engine


@dataclass(frozen=True)
class EquilibriumResult:
    flow: FlowState
    common_delay: tuple[float, ...]
    average_delay: float
    duality_gap: float
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "L": self.average_delay,
            "common_delay": list(self.common_delay),
            "flow": {k: v for k, v in sorted(self.flow.edge_flow.items())},
            "gap": self.duality_gap,
        }


def beckmann_potential(flow: FlowState | dict, beta: Allocation | None,
                       inst: Instance) -> float:
    """Potential of a flow: sum of per-edge delay integrals."""
    beta = beta or Allocation()
    fmap = flow.edge_flow if isinstance(flow, FlowState) else flow
    total = 0.0
    overflows = []
    for e in inst.edges:
        x = fmap.get(e.id, 0.0)
        if x < 0:
            raise ValidationError(f"negative flow on edge {e.id!r}")
        try:
            total += edge_delay_integral(e, x, beta.get(e.id))
        except OverflowError:
            overflows.append(f"{e.id!r} (flow {x:.3e})")
    if overflows:
        raise ValidationError(
            f"potential overflows on edge {', '.join(overflows)}: flow is "
            "too large")
    return total


def _usable(edge: Edge, beta: Allocation) -> bool:
    return edge.rigid or effective_conductance(edge, beta.get(edge.id)) > 0.0


def _shortest_path(inst: Instance, delays: dict[str, float], source: str,
                   sink: str) -> tuple[float, tuple[str, ...] | None]:
    """Dijkstra over edges with finite delay; deterministic tie-breaking."""
    dist = {source: 0.0}
    prev: dict[str, str] = {}
    heap: list[tuple[float, str]] = [(0.0, source)]
    done: set[str] = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == sink:
            break
        for e in inst.out_edges[u]:
            w = delays.get(e.id, math.inf)
            if not math.isfinite(w):
                continue
            nd = du + w
            if nd < dist.get(e.head, math.inf):
                dist[e.head] = nd
                prev[e.head] = e.id
                heapq.heappush(heap, (nd, e.head))
    if sink not in dist:
        return math.inf, None
    path: list[str] = []
    u = sink
    while u != source:
        eid = prev[u]
        path.append(eid)
        u = inst.edge_index[eid].tail
    path.reverse()
    return dist[sink], tuple(path)


# ---------------------------------------------------------------------------
# Path-based active-set engine


class _PathProblem:
    def __init__(self, inst: Instance, beta: Allocation, path_cap: int):
        self.inst = inst
        self.beta = beta
        self.g = {e.id: effective_conductance(e, beta.get(e.id)) for e in inst.edges}
        self.paths: list[tuple[int, tuple[str, ...]]] = []  # (commodity, edges)
        self.by_commodity: list[list[int]] = []
        for i, k in enumerate(inst.commodities):
            all_paths = inst.simple_paths(k.source, k.sink, cap=path_cap)
            usable = [p for p in all_paths
                      if all(_usable(inst.edge_index[eid], beta) for eid in p)]
            if not usable:
                raise Infeasible(
                    f"commodity {k.source}->{k.sink} has no usable path")
            idx = []
            for p in usable:
                idx.append(len(self.paths))
                self.paths.append((i, p))
            self.by_commodity.append(idx)
        self.free_flow = [sum(inst.edge_index[eid].b for eid in p)
                          for _, p in self.paths]
        # Shared-edge structure for delay and Jacobian assembly.
        self.edge_paths: dict[str, list[int]] = {}
        for j, (_, p) in enumerate(self.paths):
            for eid in p:
                self.edge_paths.setdefault(eid, []).append(j)

    def edge_flows(self, x: np.ndarray) -> dict[str, float]:
        f = {}
        for eid, js in self.edge_paths.items():
            v = float(sum(x[j] for j in js))
            if v != 0.0:
                f[eid] = max(v, 0.0)
        return f

    def path_delay(self, p: tuple[str, ...], f: dict[str, float]) -> float:
        return sum(edge_delay(self.inst.edge_index[eid], f.get(eid, 0.0),
                              self.beta.get(eid)) for eid in p)

    def _delay_slope(self, e: Edge, x: float) -> float:
        if e.rigid:
            return 0.0
        g = self.g[e.id]
        x = max(x, 0.0)
        if e.n == 1.0:
            return 1.0 / g
        if x == 0.0:
            return 0.0 if e.n > 1.0 else 1e18
        return e.n * x ** (e.n - 1.0) / g ** e.n


def _equalize_affine(prob: _PathProblem, active: list[int]) -> np.ndarray:
    """Solve the delay-equalization linear system on the active path set.

    Returns the stacked vector [x_active, L_1..L_I]; x entries may be
    negative (the caller prunes).
    """
    inst = prob.inst
    na = len(active)
    ncom = len(inst.commodities)
    pos = {j: t for t, j in enumerate(active)}
    A = np.zeros((na + ncom, na + ncom))
    rhs = np.zeros(na + ncom)
    for t, j in enumerate(active):
        i, p = prob.paths[j]
        rhs[t] = -prob.free_flow[j]
        A[t, na + i] = -1.0
        for eid in p:
            e = inst.edge_index[eid]
            if e.rigid:
                continue
            w = 1.0 / prob.g[eid]
            for j2 in prob.edge_paths[eid]:
                t2 = pos.get(j2)
                if t2 is not None:
                    A[t, t2] += w
    for i in range(ncom):
        row = na + i
        for t, j in enumerate(active):
            if prob.paths[j][0] == i:
                A[row, t] = 1.0
        rhs[row] = inst.commodities[i].demand
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(A, rhs, rcond=None)[0]


def _equalize_newton(prob: _PathProblem, active: list[int]) -> np.ndarray | None:
    """Damped Newton on delay equalization for nonlinear delays."""
    inst = prob.inst
    na = len(active)
    ncom = len(inst.commodities)
    pos = {j: t for t, j in enumerate(active)}
    demands = np.array([k.demand for k in inst.commodities])

    z = np.zeros(na + ncom)
    counts = np.zeros(ncom)
    for j in active:
        counts[prob.paths[j][0]] += 1
    for t, j in enumerate(active):
        i = prob.paths[j][0]
        z[t] = demands[i] / counts[i]

    def residual(z):
        x = np.maximum(z[:na], 0.0)
        full = np.zeros(len(prob.paths))
        for t, j in enumerate(active):
            full[j] = x[t]
        f = prob.edge_flows(full)
        r = np.zeros(na + ncom)
        for t, j in enumerate(active):
            i, p = prob.paths[j]
            r[t] = prob.path_delay(p, f) - z[na + i]
        for i in range(ncom):
            r[na + i] = sum(z[t] for t, j in enumerate(active)
                            if prob.paths[j][0] == i) - demands[i]
        return r, f

    r, f = residual(z)
    scale = 1.0 + float(np.max(np.abs(demands))) + max(prob.free_flow, default=0.0)
    for _ in range(120):
        if np.max(np.abs(r)) <= 1e-12 * scale:
            return z
        J = np.zeros((na + ncom, na + ncom))
        slopes = {eid: prob._delay_slope(prob.inst.edge_index[eid], f.get(eid, 0.0))
                  for eid in prob.edge_paths}
        for t, j in enumerate(active):
            i, p = prob.paths[j]
            J[t, na + i] = -1.0
            for eid in p:
                s = slopes[eid]
                if s == 0.0:
                    continue
                for j2 in prob.edge_paths[eid]:
                    t2 = pos.get(j2)
                    if t2 is not None:
                        J[t, t2] += s
        for i in range(ncom):
            for t, j in enumerate(active):
                if prob.paths[j][0] == i:
                    J[na + i, t] = 1.0
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(J, -r, rcond=None)[0]
        alpha = 1.0
        base = np.linalg.norm(r)
        improved = False
        for _ in range(40):
            z_new = z + alpha * step
            r_new, f_new = residual(z_new)
            if np.linalg.norm(r_new) < base * (1.0 - 1e-4 * alpha) or \
               np.max(np.abs(r_new)) <= 1e-12 * scale:
                z, r, f = z_new, r_new, f_new
                improved = True
                break
            alpha *= 0.5
        if not improved:
            return None
    if np.max(np.abs(r)) <= 1e-9 * scale:
        return z
    return None


def _active_set_loop(prob: _PathProblem, active: list[int], affine: bool):
    """Exchange paths in and out of the flow-carrying set until Wardrop
    holds; returns (path flows, common delays, iterations) or None when the
    nonlinear equalization cannot be driven to convergence."""
    inst = prob.inst
    ncom = len(inst.commodities)
    demands = [k.demand for k in inst.commodities]
    dscale = max(1.0, max(demands))

    iterations = 0
    x_full = np.zeros(len(prob.paths))
    L = [math.inf] * ncom
    for _ in range(400):
        iterations += 1
        if affine:
            z = _equalize_affine(prob, active)
        else:
            z = _equalize_newton(prob, active)
            if z is None:
                return None
        na = len(active)
        xs = z[:na]
        worst = int(np.argmin(xs))
        if xs[worst] < -1e-12 * dscale and na > ncom:
            i_worst = prob.paths[active[worst]][0]
            if sum(1 for j in active if prob.paths[j][0] == i_worst) > 1:
                del active[worst]
                continue
        x_full[:] = 0.0
        for t, j in enumerate(active):
            x_full[j] = max(xs[t], 0.0)
        L = [float(z[na + i]) for i in range(ncom)]
        f = prob.edge_flows(x_full)
        added = False
        for i in range(ncom):
            best_j, best_d = None, math.inf
            for j in prob.by_commodity[i]:
                dlt = prob.path_delay(prob.paths[j][1], f)
                if dlt < best_d - 1e-15:
                    best_j, best_d = j, dlt
            if best_j is not None and best_j not in active and \
                    best_d < L[i] - 1e-10 * (1.0 + abs(L[i])):
                active.append(best_j)
                active.sort()
                added = True
        if not added:
            return x_full, L, iterations
    return None


def _solve_paths(inst: Instance, beta: Allocation, tol: float,
                 path_cap: int, start: str) -> EquilibriumResult:
    prob = _PathProblem(inst, beta, path_cap)
    affine = all(e.affine for e in inst.edges)
    ncom = len(inst.commodities)

    active: list[int] = []
    for i in range(ncom):
        cands = prob.by_commodity[i]
        if start == "all":
            active.extend(cands)
        else:
            key = (min if start == "shortest" else max)
            active.append(key(cands, key=lambda j: (prob.free_flow[j], j)))
    result = _active_set_loop(prob, sorted(set(active)), affine)
    if result is None:
        # The equalization stalled (typically flat nonlinear delays near a
        # vanishing path flow).  Locate the support approximately, then
        # finish exactly on it.
        x, nit = _solve_paths_nlp(inst, prob)
        support = []
        for i in range(ncom):
            js = prob.by_commodity[i]
            d = inst.commodities[i].demand
            kept = [j for j in js if x[j] > 1e-5 * d]
            support.extend(kept or [max(js, key=lambda j: x[j])])
        result = _active_set_loop(prob, sorted(set(support)), affine)
        if result is None:
            f = prob.edge_flows(x)
            L = []
            for i in range(ncom):
                pairs = [(prob.path_delay(prob.paths[j][1], f), x[j])
                         for j in prob.by_commodity[i]]
                used = [(dl, w) for dl, w in pairs
                        if w > 1e-9 * inst.commodities[i].demand]
                L.append(sum(dl * w for dl, w in used)
                         / sum(w for _, w in used))
            return _finish(inst, prob, x, L, nit)
    x_full, L, iterations = result
    return _finish(inst, prob, x_full, L, iterations)


def _solve_paths_nlp(inst: Instance, prob: _PathProblem):
    """Approximate potential minimization over path flows with scipy."""
    from scipy import optimize

    npaths = len(prob.paths)
    demands = [k.demand for k in inst.commodities]

    def objective(x):
        f = prob.edge_flows(x)
        val = beckmann_potential(f, prob.beta, inst)
        grad = np.array([prob.path_delay(p, f) for _, p in prob.paths])
        return val, grad

    constraints = []
    for i, d in enumerate(demands):
        row = np.zeros(npaths)
        for j in prob.by_commodity[i]:
            row[j] = 1.0
        constraints.append(optimize.LinearConstraint(row, d, d))
    x0 = np.zeros(npaths)
    for i, d in enumerate(demands):
        for j in prob.by_commodity[i]:
            x0[j] = d / len(prob.by_commodity[i])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="delta_grad == 0.0")
        res = optimize.minimize(
            objective, x0, jac=True, method="trust-constr",
            bounds=optimize.Bounds(0.0, max(demands)), constraints=constraints,
            options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 3000})
    return np.maximum(res.x, 0.0), int(res.nit)


def _finish(inst: Instance, prob: _PathProblem, x: np.ndarray,
            L: list[float], iterations: int) -> EquilibriumResult:
    f = prob.edge_flows(x)
    delays = {e.id: edge_delay(e, f.get(e.id, 0.0), prob.beta.get(e.id))
              for e in inst.edges if _usable(e, prob.beta)}
    total_delay = sum(f.get(eid, 0.0) * d for eid, d in delays.items())
    lower = 0.0
    for k in inst.commodities:
        dist, _ = _shortest_path(inst, delays, k.source, k.sink)
        lower += k.demand * dist
    gap = max(0.0, total_delay - lower)
    phi = beckmann_potential(f, prob.beta, inst)
    rel_gap = gap / phi if phi > 0 else 0.0

    per_comm = []
    paths_out = []
    dscale = max(1.0, max(k.demand for k in inst.commodities))
    for i in range(len(inst.commodities)):
        cmap: dict[str, float] = {}
        for j in prob.by_commodity[i]:
            w = float(x[j])
            if w > 1e-13 * dscale:
                paths_out.append((prob.paths[j][1], w))
                for eid in prob.paths[j][1]:
                    cmap[eid] = cmap.get(eid, 0.0) + w
        per_comm.append(cmap)
    total = sum(k.demand for k in inst.commodities)
    avg = sum(k.demand / total * L[i] for i, k in enumerate(inst.commodities))
    flow = FlowState(edge_flow=f,
                     commodity_flows=tuple(per_comm) if len(per_comm) > 1 else None,
                     paths=tuple(paths_out))
    return EquilibriumResult(flow=flow, common_delay=tuple(L),
                             average_delay=avg, duality_gap=rel_gap,
                             iterations=iterations)


# ---------------------------------------------------------------------------
# Frank-Wolfe engine


_STEP_EVALS = 70  # as many derivative evaluations as bisection to 2^-70


def _exact_step(derivs) -> float:
    """Minimizer over [0, 1] of a convex step objective phi.

    ``derivs(gamma)`` returns (phi'(gamma), phi''(gamma)).  phi'(1) <= 0
    gives the full step.  Otherwise a bracket [lo, hi] with phi'(lo) < 0 <
    phi'(hi) is kept from gamma = 0 on; Newton's step is taken when it lands
    inside the bracket and phi'' is finite and positive, and the bracket is
    bisected when not (an exponent below one at zero flow has infinite
    curvature).  It stops at a step below 1e-15 relative, a bracket below
    1e-15 relative plus 1e-18 (where rounding noise in phi' would only make
    Newton chatter), or after ``_STEP_EVALS`` evaluations in all.
    """
    if derivs(1.0)[0] <= 0.0:
        return 1.0
    lo, hi, gamma = 0.0, 1.0, 0.0
    for _ in range(_STEP_EVALS - 1):
        d1, d2 = derivs(gamma)
        if d1 > 0.0:
            hi = gamma
        else:
            lo = gamma
        step = -d1 / d2 if 0.0 < d2 < math.inf else math.nan
        if abs(step) <= 1e-15 * gamma:
            return gamma + step
        if hi - lo <= 1e-15 * hi + 1e-18:
            return gamma
        gamma += step
        if not lo < gamma < hi:
            gamma = 0.5 * (lo + hi)
    return gamma


def _delay_derivative(e: Edge, x: float, beta: float) -> float:
    """d delay / dx of a usable edge at flow ``x`` >= 0."""
    if e.rigid:
        return 0.0
    if x == 0.0 and e.n < 1.0:
        return math.inf
    g = effective_conductance(e, beta)
    return e.n * (x / g) ** (e.n - 1.0) / g


def _frank_wolfe(inst: Instance, beta: Allocation, tol: float,
                 max_iters: int) -> EquilibriumResult:
    edges = inst.edges
    eidx = {e.id: t for t, e in enumerate(edges)}
    m = len(edges)
    ncom = len(inst.commodities)

    def delays_of(f):
        return {e.id: edge_delay(e, float(f[eidx[e.id]]), beta.get(e.id))
                for e in edges if _usable(e, beta)}

    def aon(delays):
        y = np.zeros((ncom, m))
        dists = []
        for i, k in enumerate(inst.commodities):
            dist, path = _shortest_path(inst, delays, k.source, k.sink)
            if path is None:
                raise Infeasible(
                    f"commodity {k.source}->{k.sink} has no usable path")
            dists.append(dist)
            for eid in path:
                y[i, eidx[eid]] += k.demand
        return y, dists

    fi, _ = aon(delays_of(np.zeros(m)))
    f = fi.sum(axis=0)
    iterations = 0
    rel_gap = math.inf
    for iterations in range(1, max_iters + 1):
        delays = delays_of(f)
        y, dists = aon(delays)
        ytot = y.sum(axis=0)
        total_delay = float(sum(f[eidx[eid]] * d for eid, d in delays.items()))
        lower = sum(k.demand * dists[i] for i, k in enumerate(inst.commodities))
        gap = max(0.0, total_delay - lower)
        phi = beckmann_potential({e.id: float(f[t]) for t, e in enumerate(edges)},
                                 beta, inst)
        rel_gap = gap / phi if phi > 0 else 0.0
        if rel_gap <= tol:
            break
        delta = ytot - f
        moving = [(t, e, beta.get(e.id)) for t, e in enumerate(edges)
                  if delta[t] != 0.0]

        def derivs(gamma):
            fg = f + gamma * delta
            d1 = d2 = 0.0
            for t, e, be in moving:
                x = max(float(fg[t]), 0.0)
                d1 += edge_delay(e, x, be) * delta[t]
                d2 += _delay_derivative(e, x, be) * delta[t] ** 2
            return d1, d2

        gamma = _exact_step(derivs)
        fi = fi + gamma * (y - fi)
        f = fi.sum(axis=0)
    else:
        warnings.warn(
            f"Frank-Wolfe stopped at relative gap {rel_gap:.3e} > tol {tol:.3e}"
            f" after {max_iters} iterations", RuntimeWarning)

    fmap = {e.id: float(f[t]) for t, e in enumerate(edges) if f[t] > 1e-15}
    delays = delays_of(f)
    L = []
    for i, k in enumerate(inst.commodities):
        dist, _ = _shortest_path(inst, delays, k.source, k.sink)
        L.append(dist)
    total = sum(k.demand for k in inst.commodities)
    avg = sum(k.demand / total * L[i] for i, k in enumerate(inst.commodities))
    per_comm = tuple({e.id: float(fi[i, t]) for t, e in enumerate(edges)
                      if fi[i, t] > 1e-15} for i in range(ncom))
    flow = FlowState(edge_flow=fmap,
                     commodity_flows=per_comm if ncom > 1 else None)
    return EquilibriumResult(flow=flow, common_delay=tuple(L),
                             average_delay=avg, duality_gap=rel_gap,
                             iterations=iterations)


def solve_equilibrium(inst: Instance, beta: Allocation | None = None,
                      tol: float = 1e-8, method: str = "auto",
                      path_cap: int = _PATH_CAP, start: str = "shortest",
                      max_iters: int = 50000) -> EquilibriumResult:
    """Equilibrium flow and common path delays under allocation ``beta``.

    ``method`` is "auto" (path engine when the path count fits under
    ``path_cap``, Frank-Wolfe otherwise), "paths" or "frank-wolfe".
    ``start`` seeds the active set ("shortest", "longest" or "all") and only
    affects the iteration trajectory, not the result.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    beta = beta or Allocation()
    beta.validate_for(inst)
    if method not in ("auto", "paths", "frank-wolfe"):
        raise ValidationError(f"unknown method {method!r}")
    if method in ("auto", "paths"):
        try:
            return _solve_paths(inst, beta, tol, path_cap, start)
        except PathCapExceeded:
            if method == "paths":
                raise
    return _frank_wolfe(inst, beta, tol, max_iters)


# ---------------------------------------------------------------------------
# Batched path engine


def path_delay_rows(inst: Instance, edges, betas: np.ndarray) -> np.ndarray:
    """Equilibrium average delay of ``inst`` for each row of allocations.

    ``betas`` has shape (N, len(edges)); column j is the amount on
    ``edges[j]`` and every other edge gets zero.  This is the path engine
    of ``solve_equilibrium`` run on all rows at once: the same start,
    equalization, drop and add rules and constants, with sums taken in the
    scalar code's order, so an accepted row carries the scalar solver's
    floats.  A row with a commodity that has no usable path gets inf.  A
    row the batch does not settle gets nan, and the caller solves it with
    ``solve_equilibrium``: a singular system, a failed Newton solve, a
    value that is not finite (where the scalar code may raise), or no
    Wardrop point within 400 rounds.  Raises PathCapExceeded when a
    commodity has more than 200 simple paths.  Rows go through in slices of
    ``_BATCH_ROWS``, which bounds the working arrays whatever the batch size.
    """
    betas = np.asarray(betas, dtype=float)
    batch = _PathBatch(inst)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.concatenate(
            [batch.delays(edges, betas[lo:lo + _BATCH_ROWS])
             for lo in range(0, len(betas), _BATCH_ROWS)])


class _ActiveSet:
    """Equalization system layout of one active path set (sorted indices)."""

    def __init__(self, batch: "_PathBatch", S: np.ndarray):
        a, ncom = len(S), len(batch.demands)
        com = batch.com[S]
        self.S, self.a, self.com = S, a, com
        self.size = a + ncom
        self.by_com = [np.flatnonzero(com == i) for i in range(ncom)]
        self.many = np.array([len(ts) > 1 for ts in self.by_com])
        counts = np.zeros(ncom)
        np.add.at(counts, com, 1.0)
        self.z0 = np.array(batch.demands)[com] / counts[com]
        self.active_edges = np.flatnonzero(batch.inc[S].any(axis=0))
        # Edge flows: the active paths through each edge in index order.
        self.flow_layers = _layers([np.flatnonzero(col)
                                    for col in batch.inc[S].T])
        # Entry (t, t2) sums the shared non-rigid edges of paths t and t2 in
        # the order of path t, as _equalize_affine does; layer l holds the
        # l-th term of every entry, so one fancy-indexed add per layer
        # keeps that order.
        loc = {int(j): t for t, j in enumerate(S)}
        seen: dict[tuple[int, int], int] = {}
        layers: list[list[tuple[int, int, int]]] = []
        for t, j in enumerate(S):
            for e in batch.path_edges[j]:
                if batch.rigid[e]:
                    continue
                for j2 in batch.on_edge[e]:
                    t2 = loc.get(int(j2))
                    if t2 is None:
                        continue
                    depth = seen.get((t, t2), 0)
                    seen[(t, t2)] = depth + 1
                    if depth == len(layers):
                        layers.append([])
                    layers[depth].append((t, t2, e))
        self.layers = [tuple(np.array(v) for v in zip(*layer))
                       for layer in layers]
        self.rhs = np.concatenate([-batch.free_flow[S], batch.demands])
        rows = np.arange(a)
        self.unit = (np.concatenate([rows, a + com]),
                     np.concatenate([a + com, rows]),
                     np.concatenate([np.full(a, -1.0), np.ones(a)]))

    def matrices(self, weights: np.ndarray) -> np.ndarray:
        """The (N, a + I, a + I) system with per-row edge weights."""
        M = np.zeros((len(weights), self.size, self.size))
        for ts, t2s, es in self.layers:
            M[:, ts, t2s] += weights[:, es]
        rows, cols, vals = self.unit
        M[:, rows, cols] = vals
        return M


class _PathBatch:
    """Edge arrays and path-edge structure of one instance for
    ``path_delay_rows``."""

    def __init__(self, inst: Instance):
        edges = inst.edges
        self.pos = {e.id: t for t, e in enumerate(edges)}
        self.c = np.array([e.c for e in edges])
        self.b = np.array([e.b for e in edges])
        self.n = np.array([e.n for e in edges])
        self.mu = np.array([e.mu for e in edges])
        self.rigid = np.array([e.rigid for e in edges])
        self.affine = all(e.affine for e in edges)
        self.demands = [k.demand for k in inst.commodities]
        self.total = sum(self.demands)
        self.dscale = max(1.0, max(self.demands))
        com, self.path_edges = [], []
        for i, k in enumerate(inst.commodities):
            for p in inst.simple_paths(k.source, k.sink, cap=_PATH_CAP):
                com.append(i)
                self.path_edges.append([self.pos[eid] for eid in p])
        self.com = np.array(com)
        self.free_flow = np.array([sum(edges[t].b for t in p)
                                   for p in self.path_edges])
        self.inc = np.zeros((len(com), len(edges)), dtype=bool)
        for j, p in enumerate(self.path_edges):
            self.inc[j, p] = True
        self.on_edge = [np.flatnonzero(col) for col in self.inc.T]
        self.delay_layers = _layers(self.path_edges)
        self.sets: dict[bytes, _ActiveSet] = {}

    def delays(self, edges, betas: np.ndarray) -> np.ndarray:
        N = len(betas)
        G = np.tile(self.c, (N, 1))
        for j, e in enumerate(edges):
            t = self.pos[e.id]
            G[:, t] = self.c[t] + self.mu[t] * betas[:, j]
        usable = ~(((G == 0.0) & ~self.rigid) @ self.inc.T)
        out = np.full(N, np.nan)
        feasible = np.ones(N, dtype=bool)
        active = np.zeros(usable.shape, dtype=bool)
        for i in range(len(self.demands)):
            mine = np.flatnonzero(self.com == i)
            order = mine[np.lexsort((mine, self.free_flow[mine]))]
            ok = usable[:, order]
            feasible &= ok.any(axis=1)
            active[np.arange(N), order[np.argmax(ok, axis=1)]] = True
        out[~feasible] = np.inf
        scale = (1.0 + float(np.max(np.abs(self.demands)))
                 + np.max(np.where(usable, self.free_flow, -np.inf), axis=1))
        rows = np.flatnonzero(feasible)
        for _ in range(400):
            if not rows.size:
                break
            # Group the open rows by active set: sort their packed masks.
            codes = np.packbits(active[rows], axis=1)
            order = np.lexsort(codes.T[::-1])
            codes = codes[order]
            starts = np.flatnonzero(
                (codes[1:] != codes[:-1]).any(axis=1)) + 1
            rows = np.concatenate([
                self._round(self._set(active[grp[0]]), grp, G, usable,
                            active, scale, out)
                for grp in np.split(rows[order], starts)])
        return out

    def _set(self, mask: np.ndarray) -> _ActiveSet:
        key = mask.tobytes()
        if key not in self.sets:
            self.sets[key] = _ActiveSet(self, np.flatnonzero(mask))
        return self.sets[key]

    def _round(self, aset: _ActiveSet, grp, G, usable, active, scale, out):
        """One equalize-and-exchange round of ``_active_set_loop`` for the
        rows ``grp`` sharing ``aset``; returns the rows left open."""
        if self.affine:
            z, ok = _solve_rows(aset.matrices(1.0 / G[grp]),
                                np.tile(aset.rhs, (len(grp), 1)))
        else:
            z, ok = self._newton(aset, G[grp], scale[grp])
        ok &= np.isfinite(z).all(axis=1)
        grp, z = grp[ok], z[ok]
        a = aset.a
        xs = z[:, :a]
        worst = np.argmin(xs, axis=1)
        drop = ((xs[np.arange(len(grp)), worst] < -1e-12 * self.dscale)
                & aset.many[aset.com[worst]])
        active[grp[drop], aset.S[worst[drop]]] = False
        dropped = grp[drop]
        grp, z = grp[~drop], z[~drop]

        Gg = G[grp]
        F, D, settled = self._flows(aset, z, Gg)
        L = z[:, a:]
        added = np.zeros(len(grp), dtype=bool)
        for i in range(len(self.demands)):
            best_d = np.full(len(grp), np.inf)
            best_j = np.full(len(grp), -1)
            for j in np.flatnonzero(self.com == i):
                better = usable[grp, j] & (D[:, j] < best_d - 1e-15)
                best_d = np.where(better, D[:, j], best_d)
                best_j[better] = j
            Li = L[:, i]
            add = ((best_j >= 0) & ~active[grp, best_j]
                   & (best_d < Li - 1e-10 * (1.0 + np.abs(Li))) & settled)
            active[grp[add], best_j[add]] = True
            added |= add
        done = settled & ~added
        done &= ~self._potential_overflows(F, Gg, done)
        avg = self.demands[0] / self.total * L[done, 0]
        for i in range(1, len(self.demands)):
            avg = avg + self.demands[i] / self.total * L[done, i]
        out[grp[done]] = avg
        return np.concatenate([dropped, grp[added]])

    def _flows(self, aset: _ActiveSet, z: np.ndarray, G: np.ndarray):
        """Edge flows and path delays at the active flows, and the rows
        whose edge delays are all finite."""
        x = np.maximum(z[:, :aset.a], 0.0)
        F = np.zeros(G.shape)
        for es, ts in aset.flow_layers:
            F[:, es] += x[:, ts]
        De = F / G
        np.float_power(De, self.n, out=De)
        De += self.b
        np.copyto(De, self.b, where=self.rigid | (F == 0.0))
        D = np.zeros((len(z), len(self.com)))
        for js, es in self.delay_layers:
            D[:, js] += De[:, es]
        return F, D, np.isfinite(De).all(axis=1)

    def _potential_overflows(self, F: np.ndarray, G: np.ndarray,
                             rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` make ``_finish``'s potential raise: F**(n+1)
        or G**n overflows on a flowing non-rigid edge.  Both powers grow
        with their base, so the largest bases on each edge clear most
        blocks at once."""
        def top(A):
            return np.max(A, axis=0, where=rows[:, None], initial=0.0)
        if not (np.isinf(np.float_power(top(F), self.n + 1.0))
                | np.isinf(np.float_power(top(G), self.n))).any():
            return np.zeros(len(F), dtype=bool)
        over = (np.isinf(np.float_power(F, self.n + 1.0))
                | np.isinf(np.float_power(G, self.n)))
        return (over & (F != 0.0) & ~self.rigid).any(axis=1)

    def _residual(self, aset: _ActiveSet, z: np.ndarray, G: np.ndarray):
        """``_equalize_newton``'s residual; rows whose delays are not
        finite are marked not ok."""
        F, D, ok = self._flows(aset, z, G)
        a = aset.a
        r = np.empty(z.shape)
        r[:, :a] = D[:, aset.S] - z[:, a + aset.com]
        for i, ts in enumerate(aset.by_com):
            acc = z[:, ts[0]]
            for t in ts[1:]:
                acc = acc + z[:, t]
            r[:, a + i] = acc - self.demands[i]
        return r, F, ok & np.isfinite(r).all(axis=1)

    def _slopes(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """``_PathProblem._delay_slope`` of every edge."""
        s = self.n * np.float_power(F, self.n - 1.0) / np.float_power(G, self.n)
        s = np.where(F == 0.0, np.where(self.n > 1.0, 0.0, 1e18), s)
        s = np.where(self.n == 1.0, 1.0 / G, s)
        return np.where(self.rigid, 0.0, s)

    def _newton(self, aset: _ActiveSet, G: np.ndarray, scale: np.ndarray):
        """``_equalize_newton`` on every row: damped Newton, 120 steps of at
        most 40 halvings.  Returns z and the rows that converged."""
        z = np.zeros((len(G), aset.size))
        z[:, :aset.a] = aset.z0
        r, F, live = self._residual(aset, z, G)
        converged = np.zeros(len(G), dtype=bool)
        for _ in range(120):
            hit = live & (np.max(np.abs(r), axis=1) <= 1e-12 * scale)
            converged |= hit
            live &= ~hit
            idx = np.flatnonzero(live)
            if not idx.size:
                break
            s = self._slopes(F[idx], G[idx])
            step, ok = _solve_rows(aset.matrices(s), -r[idx])
            ok &= np.isfinite(s[:, aset.active_edges]).all(axis=1)
            live[idx[~ok]] = False
            idx, step = idx[ok], step[ok]
            base = _norms(r[idx])
            alpha = np.ones(len(idx))
            for _ in range(40):
                if not idx.size:
                    break
                z_new = z[idx] + alpha[:, None] * step
                r_new, F_new, ok = self._residual(aset, z_new, G[idx])
                better = ok & (
                    (_norms(r_new) < base * (1.0 - 1e-4 * alpha))
                    | (np.max(np.abs(r_new), axis=1) <= 1e-12 * scale[idx]))
                took = idx[better]
                z[took], r[took], F[took] = (z_new[better], r_new[better],
                                             F_new[better])
                live[idx[~ok]] = False
                wait = ok & ~better
                idx, step = idx[wait], step[wait]
                base, alpha = base[wait], 0.5 * alpha[wait]
            live[idx] = False  # no halving improved the residual
        converged |= live & (np.max(np.abs(r), axis=1) <= 1e-9 * scale)
        return z, converged


def _layers(groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """Layer l pairs each group having an l-th member with that member."""
    depth = max((len(g) for g in groups), default=0)
    out = []
    for l in range(depth):
        owners = [o for o, g in enumerate(groups) if len(g) > l]
        out.append((np.array(owners), np.array([groups[o][l] for o in owners])))
    return out


def _norms(r: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row, with its dot product's rounding."""
    return np.sqrt((r[:, None, :] @ r[:, :, None])[:, 0, 0])


def _solve_rows(M: np.ndarray, rhs: np.ndarray):
    """Solve each row's system; returns the solutions and the rows whose
    matrix was not singular."""
    ok = np.ones(len(M), dtype=bool)
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0], ok
    except np.linalg.LinAlgError:
        z = np.zeros(rhs.shape)
        for r in range(len(M)):
            try:
                z[r] = np.linalg.solve(M[r], rhs[r])
            except np.linalg.LinAlgError:
                ok[r] = False
        return z, ok


# ---------------------------------------------------------------------------
# Parallel links (dipole) closed form


def dipole_links(inst: Instance) -> tuple[Edge, ...] | None:
    """The instance's edges if it is a single-commodity dipole, else None."""
    if not inst.single_commodity:
        return None
    k = inst.commodities[0]
    if all(e.tail == k.source and e.head == k.sink for e in inst.edges):
        return inst.edges
    return None


def length_unit(c_max: float, b_max: float, count: int) -> float:
    """Power of two to measure lengths in, so that a sum of ``count`` terms
    c * b stays finite; 1 unless that sum could overflow.  Dividing by it is
    exact short of underflow, so a delay computed in it is the same float."""
    k = math.frexp(c_max)[1] + math.frexp(b_max)[1] + count.bit_length()
    return math.ldexp(1.0, max(k - 1022, 0))


def parallel_links_delay_batch(c_eff: np.ndarray, b: np.ndarray, d: float,
                               cap: float = math.inf) -> np.ndarray:
    """Common delay of affine parallel links, one row per allocation.

    ``c_eff`` has shape (N, m) with columns sorted by ``b`` ascending and
    rigid links removed; ``cap`` is the smallest rigid length if any.  The
    used set grows along the columns until its delay fits under the next
    length; zero-conductance columns carry no flow.  A row with no usable
    column gets ``cap``, which is inf without rigid links.  A single
    allocation is a batch of one row.

    The scan walks the columns, contiguous when ``c_eff`` is F-ordered as
    the grid oracle builds it, with running sums over the rows that add as
    a row-wise ``cumsum`` would, until every row has taken its used set.
    """
    if c_eff.shape[1] == 0:
        return np.full(c_eff.shape[0], cap)
    u = length_unit(float(c_eff.max(initial=0.0)), float(b[-1]), b.size)
    L = np.full(c_eff.shape[0], math.inf)
    den, num, M, t = np.zeros((4, len(L)))
    open_ = np.ones(len(L), dtype=bool)
    # A prefix whose delay is out of range gets inf, which passes its test.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, col in enumerate(c_eff.T):
            den += col
            num += np.multiply(col, b[k] / u, out=t)
            np.divide(np.add(num, d / u, out=M), den, out=M)
            if u != 1.0:
                M *= u
            if k + 1 < b.size:
                np.maximum(np.abs(M, out=t), 1.0, out=t)
                t *= _BOUNDARY_TOL
                ok = M <= np.add(t, b[k + 1], out=t)
            else:  # the next length is inf: only a nan delay fails
                ok = M <= math.inf
            ok &= (den > 0.0) & open_
            np.copyto(L, M, where=ok)
            open_ ^= ok
            if not open_.any():
                break
    return np.minimum(L, cap)


def dipole_delay_rows(lengths, rigid, c_eff: np.ndarray, d: float) -> np.ndarray:
    """Common delay of parallel affine links for each row of ``c_eff``.

    ``lengths`` and ``rigid`` describe the links in any order; ``c_eff`` has
    shape (N, links), and its entries for rigid links are ignored.  Puts the
    links in the column layout of ``parallel_links_delay_batch``: rigid
    links removed, the rest sorted by length (ties keep their order), and
    the delay capped at the shortest rigid length.
    """
    order = sorted((t for t, r in enumerate(rigid) if not r),
                   key=lambda t: lengths[t])
    cap = min((b for b, r in zip(lengths, rigid) if r), default=math.inf)
    if order != list(range(c_eff.shape[1])):  # a gather copies c_eff
        c_eff = c_eff[:, order]
    return parallel_links_delay_batch(
        c_eff, np.array([lengths[t] for t in order], dtype=float), d, cap)


def solve_parallel_links_equilibrium(links, beta: Allocation | None,
                                     d: float) -> EquilibriumResult:
    """Exact equilibrium on affine parallel links via the closed form."""
    links = list(links)
    if not links:
        raise ValidationError("no links")
    if len({(e.tail, e.head) for e in links}) != 1:
        raise ValidationError("links do not share endpoints")
    for e in links:
        if not e.affine:
            raise UnsupportedDelay(f"link {e.id!r} has exponent {e.n} != 1")
    beta = beta or Allocation()
    c_eff = [effective_conductance(e, beta.get(e.id)) for e in links]
    L = float(dipole_delay_rows([e.b for e in links], [e.rigid for e in links],
                                np.array([c_eff]), d)[0])
    if math.isinf(L):
        if max(c_eff) > 0.0:  # a usable link, so the delay overflowed
            raise ValidationError("a delay is out of floating-point range")
        raise Infeasible("no usable link")
    flows = [0.0] * len(links)
    residual = d
    for t, e in enumerate(links):
        if not e.rigid and c_eff[t] > 0.0 and e.b < L:
            flows[t] = c_eff[t] * (L - e.b)
            residual -= flows[t]
    if residual > 1e-12 * max(1.0, d):
        # Flow is left over only when the shortest rigid length caps L.
        rigid_min = [t for t, e in enumerate(links) if e.rigid and e.b == L]
        if not rigid_min:
            raise Infeasible("flow residual without a rigid link to absorb it")
        for t in rigid_min:
            flows[t] = residual / len(rigid_min)
    fmap = {e.id: flows[t] for t, e in enumerate(links) if flows[t] > 0.0}
    paths = tuple(((e.id,), flows[t]) for t, e in enumerate(links)
                  if flows[t] > 0.0)
    flow = FlowState(edge_flow=fmap, paths=paths)
    return EquilibriumResult(flow=flow, common_delay=(L,), average_delay=L,
                             duality_gap=0.0, iterations=0)
