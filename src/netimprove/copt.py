"""Joint convex relaxation over flows and allocations.

The relaxation drops the equilibrium constraint and minimizes the total
delay sum_e x_e * delay_e(x_e, beta_e) over the product of the flow
polytope and the budget simplex.  Each edge term

    T(x, beta) = x^(n+1) / (c + mu * beta)^n + b * x

has a positive semidefinite Hessian (its quadratic form collapses to a
perfect square), so the whole objective is convex.  Its gradient in x is a
nonnegative edge cost and in beta nonpositive, so the best vertex routes
each commodity on a shortest path and drops the entire budget on the
steepest edge (or spends nothing).

Frank-Wolfe with the exact step drives the relative duality gap down: along
a segment the objective is a sum of one-dimensional convex edge terms whose
first two derivatives come in closed form, and a safeguarded Newton
iteration finds the step's root.  A primal active-set Newton method polishes
the point after Frank-Wolfe steps 1, 2, 4, ... until the gap is within the
tolerance; the reported certificate is always the exact Frank-Wolfe gap at
the returned point.  The returned allocation carries the standard
price-of-anarchy guarantee for the equilibrium played under it: factor 4/3
when every delay is affine, O(p / log p) for maximum exponent p otherwise
(reported as metadata, not numerically certified).

One kernel, built once per solve from the instance's edge arrays, gives the
value, gradient and dense Hessian of the summed edge terms to every phase.
It has two weightings: the relaxation's term above, and, at a fixed
allocation, the Beckmann potential's x^(n+1) / ((n+1) g^n) + b x, whose
gradient is the edge delay.  The same Frank-Wolfe loop minimizes either;
``solve_equilibrium`` runs it on the potential when the path engine cannot.
Exponents below one break the relaxation's smoothness at zero flow; such
instances are solved with Frank-Wolfe only, after a warning.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Allocation, FlowState, Instance, edge_delay
from .errors import Infeasible, ValidationError

__all__ = [
    "CoptResult",
    "solve_copt",
    "relaxed_total_delay",
    "hessian_quadratic_form",
    "hessian_quadratic_form_exact",
]

_G_PAD = 1e-300  # keeps 1/g**n finite during line search at the g=0 corner
_EPS_ACTIVE = 1e-13  # relative distance to a bound at which the polish pins
# The C library's pow, as Python's ** on floats; numpy's ** may take a
# vectorized pow that differs from it in the last bit.
_pow = np.float_power


@dataclass(frozen=True)
class CoptResult:
    relaxed_flow: FlowState
    allocation: Allocation
    relaxed_objective: float
    guarantee_label: str
    guarantee_factor: float | None
    max_exponent: float
    duality_gap: float
    iterations: int

    def to_json_dict(self) -> dict:
        return {
            "relaxed_objective": self.relaxed_objective,
            "guarantee": self.guarantee_label,
            "gap": self.duality_gap,
        }


def relaxed_total_delay(inst: Instance, flow: FlowState | dict,
                        beta: Allocation) -> float:
    """Total delay sum_e x_e * delay_e(x_e, beta_e) of an arbitrary flow."""
    fmap = flow.edge_flow if isinstance(flow, FlowState) else flow
    total = 0.0
    for e in inst.edges:
        x = fmap.get(e.id, 0.0)
        if x > 0.0:
            total += x * edge_delay(e, x, beta.get(e.id))
    return total


class _Relaxation:
    """Edge arrays and constraint rows of one instance, built once per solve.

    The stacked variable vector of the polish holds the per-commodity edge
    flows x (ncom, m) row by row, then the budget beta (p,) over the
    improvable edges.  A rigid edge gets infinite conductance, which
    reduces its term to b * x.  As T(x; c, mu) / s = T(x / s; c / s, mu / s)
    for every n, demands, c and mu are held divided by ``scale``, and so
    are the kernel's flows and objective (exactly, for a power of two).

    Given an allocation ``fixed``, the kernel is the Beckmann potential at
    the conductances c + mu * fixed: no budget variables, each power term
    divided by n + 1, and the gradient 1.0 * r^n + b the edge delay.
    """

    def __init__(self, inst: Instance, scale: float = 1.0,
                 fixed: Allocation | None = None):
        edges = inst.edges
        self.inst = inst
        self.m = m = len(edges)
        self.ncom = len(inst.commodities)
        self.ids = [e.id for e in edges]
        self.col = {e.id: t for t, e in enumerate(edges)}
        self.imp = np.array([t for t, e in enumerate(edges)
                             if e.improvable and fixed is None], dtype=np.intp)
        self.p = len(self.imp)
        self.nm = self.ncom * m
        self.dim = self.nm + self.p
        self.budget = inst.budget
        self.scale = s = scale
        self.demands = np.array([k.demand for k in inst.commodities]) / s
        self.c = np.array([math.inf if e.rigid else e.c if fixed is None
                           else e.c + e.mu * fixed.get(e.id)
                           for e in edges]) / s
        self.b = np.array([e.b for e in edges])
        self.n = np.array([e.n for e in edges])
        self.mu = np.array([edges[t].mu for t in self.imp]) / s
        self.div = 1.0 if fixed is None else self.n + 1.0  # of the power term
        self.n1 = (self.n + 1.0) / self.div
        self.gates = self.c[self.imp] == 0.0
        self.gated = self.gates & (inst.budget > 0.0)
        self.dbeta = -self.n[self.imp] * self.mu

        rows, rhs = [], []
        for i, k in enumerate(inst.commodities):
            for u in inst.nodes:
                if u == k.sink:
                    continue
                row = np.zeros(self.dim)
                for e in inst.out_edges[u]:
                    row[i * m + self.col[e.id]] += 1.0
                for e in inst.in_edges[u]:
                    row[i * m + self.col[e.id]] -= 1.0
                rows.append(row)
                rhs.append(self.demands[i] if u == k.source else 0.0)
        self.conservation = np.array(rows)
        self.conservation_rhs = np.array(rhs)
        self.budget_row = np.zeros(self.dim)
        self.budget_row[self.nm:] = 1.0

    def conductance(self, beta: np.ndarray) -> np.ndarray:
        g = self.c.copy()
        g[self.imp] += self.mu * beta
        return g

    def split(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return z[:self.nm].reshape(self.ncom, self.m), z[self.nm:]

    def value_grad(self, x: np.ndarray, beta: np.ndarray):
        """Objective, its gradient in each edge's total flow (m,) and its
        gradient in beta (p,)."""
        xt = x[0] if self.ncom == 1 else np.add.reduce(x, 0)
        g = self.conductance(beta)
        np.maximum(g, _G_PAD, out=g)
        rn = _pow(xt / g, self.n)
        val = sum((xt * rn / self.div + self.b * xt).tolist())
        gx = self.n1 * rn + self.b
        i = self.imp
        gb = self.dbeta * rn[i] * xt[i] / g[i]
        return val, gx, gb

    def stacked_value_grad(self, z: np.ndarray):
        """Objective and gradient in the stacked variables."""
        val, gx, gb = self.value_grad(*self.split(z))
        return val, np.concatenate([np.tile(gx, self.ncom), gb])

    def segment(self, x: np.ndarray, beta: np.ndarray, dx: np.ndarray,
                dbeta: np.ndarray):
        """Derivatives in gamma of the objective at (x + gamma dx,
        beta + gamma dbeta), as a function of gamma.

        With r = x / g on an edge, the relaxation term's first derivative
        is ((n+1) r^n + b) dx - n r^(n+1) dg and its second the perfect
        square n (n+1) r^(n-1) (dx - r dg)^2 / g; the potential's are these
        over n + 1, with dg = 0.  Rigid edges, and edges whose flow and
        conductance do not move, add only the constant b dx.
        """
        xt = x.sum(axis=0)
        dxt = dx.sum(axis=0)
        g = self.conductance(beta)
        dg = np.zeros(self.m)
        dg[self.imp] = self.mu * dbeta
        lin = float(self.b @ dxt)
        s = np.flatnonzero(np.isfinite(g) & ((dxt != 0.0) | (dg != 0.0)))
        xs, dxs, gs, dgs, n = xt[s], dxt[s], g[s], dg[s], self.n[s]
        n1dx = self.n1[s] * dxs
        nn1 = n * self.n1[s]
        nm1 = n - 1.0

        def derivs(gamma: float) -> tuple[float, float]:
            gg = np.maximum(gs + gamma * dgs, _G_PAD)
            r = (xs + gamma * dxs) / gg
            rdg = r * dgs
            d1 = lin + float(_pow(r, n) @ (n1dx - n * rdg))
            w = dxs - rdg
            d2 = float((nn1 * _pow(r, nm1) / gg) @ (w * w))
            return d1, d2
        return derivs

    def hessian(self, x: np.ndarray, beta: np.ndarray) -> np.ndarray:
        """Dense Hessian in the stacked variables, from its blocks.

        Flows are clipped at zero and conductances padded to 1e-12; an edge
        with zero flow and n > 1 has no curvature.
        """
        xt = np.maximum(np.add.reduce(x, 0), 0.0)
        g = np.maximum(self.conductance(beta), 1e-12)
        n, i, mu = self.n, self.imp, self.mu
        nn1 = n * self.n1
        hxx = np.where((xt == 0.0) & (n > 1.0), 0.0,
                       nn1 * _pow(xt, np.maximum(n - 1.0, 0.0)) / _pow(g, n))
        xi, gi, ni = xt[i], g[i], n[i]
        hbb = nn1[i] * _pow(mu, 2.0) * _pow(xi, ni + 1.0) / _pow(gi, ni + 2.0)
        hxb = -nn1[i] * mu * _pow(xi, ni) / _pow(gi, ni + 1.0)
        cross = np.zeros((self.m, self.p))
        cross[i, np.arange(self.p)] = hxb
        nm = self.nm
        H = np.zeros((self.dim, self.dim))
        H[:nm, :nm] = np.tile(np.diag(hxx), (self.ncom, self.ncom))
        H[:nm, nm:] = np.tile(cross, (self.ncom, 1))
        H[nm:, :nm] = H[:nm, nm:].T
        H[nm:, nm:] = np.diag(hbb)
        return H

    def route(self, costs: np.ndarray, usable: np.ndarray):
        """Each commodity's demand on its shortest path over the ``usable``
        edges at edge ``costs``: the flows (ncom, m) and the path lengths."""
        delays = {eid: d for eid, d, ok
                  in zip(self.ids, costs.tolist(), usable.tolist()) if ok}
        y, dists = np.zeros((self.ncom, self.m)), []
        for i, k in enumerate(self.inst.commodities):
            dist, path = _shortest_path(self.inst, delays, k.source, k.sink)
            if path is None:
                raise Infeasible(
                    f"commodity {k.source}->{k.sink} has no usable path")
            dists.append(dist)
            y[i, [self.col[eid] for eid in path]] = self.demands[i]
        return y, dists

    def linearize(self, x: np.ndarray, beta: np.ndarray):
        """Objective, the point to step towards and the linearized value
        at the best vertex, which bounds the optimum from below; raises
        ValidationError where the objective is out of floating-point range.

        A gate (improvable, zero conductance) with no flow is closed:
        zeroing its budget changes no term, and there its 1-homogeneous
        term has as subgradient its gradient on any ray (x, beta) =
        t (rho, 1).  The bound takes the ray whose budget slope is m0, the
        steepest one elsewhere, which makes it exact at an optimum that
        keeps the gate closed; a step through the gate opens it along that
        ray.
        """
        imp, gates, budget = self.imp, self.imp[self.gated], self.budget
        val, gx, gb = self.value_grad(x, beta)
        if not math.isfinite(val):
            raise ValidationError("a delay is out of floating-point range")
        xt = x.sum(axis=0)
        usable = self.conductance(beta) > 0.0
        if gates.size:
            m0 = min(0.0, float(gb.min()))
            closed = self.gated & (xt[imp] == 0.0)
            n, mu = self.n[imp][closed], self.mu[closed]
            rho = _pow(-m0 * _pow(mu, n) / n, 1.0 / (n + 1.0))
            gx = gx.copy()
            gx[imp[closed]] += (n + 1.0) * _pow(rho / mu, n)
            usable[gates] = True
        y, dists = self.route(gx, usable)
        bvert = np.zeros(self.p)
        if self.p and gb.min() < 0.0:
            bvert[int(np.argmin(gb))] = budget
        lower = (sum(d * dist for d, dist in zip(self.demands.tolist(), dists))
                 + float(gb @ bvert) + (val - float(gx @ xt) - float(gb @ beta)))
        routed = closed & (y.sum(axis=0)[imp] > 0.0) if gates.size else None
        if routed is not None and routed.any():
            # Budget for the routed gates, taken from the other edges in
            # proportion; a free budget (m0 = 0) all goes to the gates.
            flow = y.sum(axis=0)[imp][routed]
            need = (flow / rho[routed[closed]] if m0 < 0.0
                    else flow * (budget / flow.sum()))
            shrink = min(1.0, budget / need.sum())
            rest = budget - shrink * need.sum()
            bvert = beta * min(1.0, rest / max(beta.sum(), 1e-300))
            bvert[routed] = shrink * need
            y = x + shrink * (y - x)
        return val, y, bvert, lower

    def flow(self, x: np.ndarray) -> FlowState:
        """The flows ``x`` in the instance's units, but for those up to 1e-15
        of the kernel's unit."""
        maps = [{eid: float(self.scale * v) for eid, v in zip(self.ids, row)
                 if v > 1e-15} for row in (x.sum(axis=0), *x)]
        return FlowState(edge_flow=maps[0], commodity_flows=tuple(maps[1:])
                         if self.ncom > 1 else None)


def _flow_unit(demand: float, top: float, low: float) -> float:
    """The power of two to hold flows in: within a factor two of
    ``demand``, so that no demand takes them out of floating-point range,
    unless a conductance up to ``top`` would overflow in it, or one down to
    ``low`` (a half, for ``low`` zero) would fall under ``_G_PAD``."""
    unit = max(math.frexp(demand)[1] - 1, math.frexp(top)[1] - 1023)
    return math.ldexp(1.0, min(unit, math.frexp(low)[1] + 995))


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


# At the zero-conductance corner the 1e-300 pad can make the edge terms
# overflow; inf is the intended value there, so the warning is silenced.
# The step's curvature is inf (0 ** negative) at zero flow when n < 1, and
# nan where such an edge meets a zero direction; the step then bisects.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _frank_wolfe(kern: _Relaxation, tol: float, iters: int,
                 polish: bool = False):
    """Frank-Wolfe with the exact step on the kernel's objective, from the
    shortest paths at zero flow and an even budget split (which keeps the
    gates open) until the relative gap to the best linearized bound met is
    at most ``tol``, or for ``iters`` steps (the gap then predates the last
    one); with ``polish``, on ``solve_copt``'s schedule.  Returns the flows,
    the budget, the gap and the steps taken.
    """
    beta = np.full(kern.p, kern.budget / max(kern.p, 1))
    x = kern.linearize(np.zeros((kern.ncom, kern.m)), beta)[1]
    # The Newton method stops at a closed gate; a step through it opens it.
    best_lower = -math.inf
    for it in range(1, iters + 5):
        val, y, bvert, lower = kern.linearize(x, beta)
        best_lower = max(best_lower, lower)
        gap = (val - best_lower) / max(abs(val), 1e-300)
        if gap <= tol or it > iters + (3 if polish else 0):
            break
        dx, dbeta = y - x, bvert - beta
        gamma = _exact_step(kern.segment(x, beta, dx, dbeta))
        x, beta = x + gamma * dx, beta + gamma * dbeta
        if it >= iters or polish and not it & (it - 1):
            if not polish:
                break
            x, beta = _newton_polish(kern, x, beta)
    return x, beta, gap, min(it, iters)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_copt(inst: Instance, tol: float = 1e-8, fw_iters: int = 2000,
               polish: bool = True) -> CoptResult:
    """Solve the relaxation to relative duality gap ``tol``.

    Until the gap is at most ``tol``, the active-set Newton method polishes
    after Frank-Wolfe steps 1, 2, 4, ... < ``fw_iters`` and after each of up
    to four more (Frank-Wolfe only if ``polish`` is false).  Returns the
    relaxed flow, the allocation to play, the relaxed objective (a lower
    bound on any valid allocation's equilibrium total delay) and the gap.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    if fw_iters < 0:
        raise ValidationError("fw_iters must be nonnegative")
    exponents = [e.n for e in inst.edges if not e.rigid]
    max_n = max(exponents, default=1.0)
    if any(n < 1.0 for n in exponents):
        warnings.warn(
            "exponents below 1: the relaxation is solved by Frank-Wolfe only "
            "and the approximation guarantee is not established", RuntimeWarning)
        polish = False
        fw_iters = max(fw_iters, 20000)

    edges = inst.edges
    top = max((e.c + e.mu * inst.budget for e in edges if not e.rigid), default=1.0)
    low = min((e.c for e in edges if not e.rigid and e.c > 0.0), default=0.0)
    kern = _Relaxation(inst, _flow_unit(inst.total_demand, top, low))
    x, beta, gap_rel, iterations = _frank_wolfe(kern, tol, fw_iters, polish)
    if gap_rel > tol:
        warnings.warn(f"relaxation gap {gap_rel:.3e} above tol {tol:.3e}",
                      RuntimeWarning)

    flow = kern.flow(x)
    vals = np.maximum(beta, 0.0)
    if vals.sum() > inst.budget > 0.0:
        vals = vals * (inst.budget / vals.sum())
    alloc = Allocation({kern.ids[t]: float(v) for t, v in zip(kern.imp, vals)
                        if v > 1e-15})
    objective_value = relaxed_total_delay(inst, flow, alloc)
    affine = all(e.affine for e in edges)
    return CoptResult(
        relaxed_flow=flow,
        allocation=alloc,
        relaxed_objective=objective_value,
        guarantee_label="4/3" if affine else "O(p/log p)",
        guarantee_factor=4.0 / 3.0 if affine else None,
        max_exponent=max_n,
        duality_gap=gap_rel,
        iterations=iterations,
    )


def _newton_polish(kern: _Relaxation, x: np.ndarray, beta: np.ndarray):
    """Primal active-set Newton method from a feasible point.

    The working set holds the pinned zero bounds and, while it binds, the
    budget row.  A step solves the KKT system of the Newton step on the free
    variables, conservation residual included, is cut at the first free
    bound or the budget it would cross, and backtracks on the convex
    objective.  A blocking constraint joins the set, as does a bound within
    ``_EPS_ACTIVE`` (relative) of zero: a nearly closed gate, whose
    curvature grows as 1 / beta, would ruin the step's conditioning.  With
    no decrease left, the constraint whose multiplier has the wrong sign by
    the widest margin, outside closed gates, leaves; when none has, it stops.
    """
    nm, dim, budget = kern.nm, kern.dim, kern.budget
    gate_b = nm + np.flatnonzero(kern.gates)
    gate_x = (np.arange(kern.ncom)[:, None] * kern.m + kern.imp[kern.gates]).T
    eps = _EPS_ACTIVE * np.repeat([kern.demands.sum(), budget], [nm, kern.p])
    z = np.maximum(np.concatenate([x.ravel(), beta]), 0.0)
    # Entry dim of the working set stands for the budget row.
    pinned = np.zeros(dim + 1, dtype=bool)
    pinned[dim] = kern.p > 0 and z[nm:].sum() >= budget

    def settle(falling):  # a gate's budget closes only with its flow
        low = ~pinned[:dim] & falling & (z <= eps)
        z[:nm][low[:nm]] = 0.0
        low[gate_b[(z[gate_x] > 0.0).any(axis=1)]] = False
        z[low] = 0.0
        pinned[:dim] |= low

    settle(True)
    f, g = kern.stacked_value_grad(z)
    for _ in range(200):
        free = ~pinned[:dim]
        rows, rhs = kern.conservation, kern.conservation_rhs
        if pinned[dim]:
            rows = np.vstack([rows, kern.budget_row])
            rhs = np.append(rhs, budget)
        # Eliminating the pinned variables can leave the rows dependent (a
        # node whose edges are all pinned); their SVD gives an equivalent
        # independent set.
        U, S, Vt = np.linalg.svd(rows[:, free], full_matrices=False)
        keep = S > 1e-9 * S.max(initial=0.0)
        Ur, Q = U[:, keep], S[keep, None] * Vt[keep]
        H = kern.hessian(*kern.split(z))
        kkt = np.block([[H[np.ix_(free, free)] + 1e-12 * np.eye(free.sum()),
                         Q.T], [Q, np.zeros((len(Q), len(Q)))]])
        resid = np.concatenate([-g[free], Ur.T @ (rhs - rows @ z)])
        try:
            sol = np.linalg.solve(kkt, resid)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, resid, rcond=None)[0]
        if not np.isfinite(sol).all():
            break
        d = np.zeros(dim)
        d[free] = sol[:free.sum()]
        w = Ur @ sol[free.sum():]

        # Ratio test.  A bound that only rounding would cross is left to the
        # clip, as pinning it at a zero step would undo the release that
        # freed it.
        ratio = np.full(dim + 1, np.inf)
        fall = free & (d < -1e-13 * max(1.0, z.max()))
        ratio[:dim][fall] = z[fall] / -d[fall]
        rise = float(d[nm:].sum())
        if kern.p and not pinned[dim] and rise > 0.0:
            ratio[dim] = max(budget - z[nm:].sum(), 0.0) / rise
        block = int(np.argmin(ratio))
        t = min(1.0, ratio[block])
        g0, pred, slack = g, -float(g @ d), 1e-15 * abs(f)
        for _ in range(60):
            trial = z + t * d
            if ratio[block] <= t and block < dim:
                trial[block] = 0.0
            trial[free] = np.maximum(trial[free], 0.0)
            f_new, g_new = kern.stacked_value_grad(trial)
            if f_new <= f + slack:
                break
            t *= 0.5
        else:
            trial = None
        if trial is not None:
            z, f, g = trial, f_new, g_new
            blocked = ratio[block] <= t
            pinned[block] |= blocked
            settle(fall)
            if blocked or pred > slack:
                continue

        lam = np.zeros(dim + 1)
        lam[:dim] = np.where(pinned[:dim], g0 + H @ d + rows.T @ w, 0.0)
        lam[dim] = w[-1] if pinned[dim] else 0.0
        shut = pinned[gate_b]
        lam[gate_b[shut]] = lam[gate_x[shut]] = 0.0
        worst = int(np.argmin(lam))
        if lam[worst] >= -1e-12 * max(1.0, float(np.abs(g0).max())):
            break
        pinned[worst] = False
    x, beta = kern.split(z)
    return x.copy(), beta.copy()


# ---------------------------------------------------------------------------
# Curvature checks for the relaxation's edge terms


def hessian_quadratic_form(c: float, b: float, n: float, mu: float,
                           x: float, beta: float,
                           alpha: tuple[float, float]) -> tuple[float, float]:
    """Directional second difference of one edge term along ``alpha``.

    Returns (quadratic form estimate, roundoff scale).  The estimate is the
    central second difference of T at (x, beta) along alpha; the scale is
    the magnitude against which its rounding error must be judged, so a
    convexity check should assert value >= -tol * scale.
    """
    def term(xx, bb):
        if xx <= 0.0:
            return 0.0
        g = c + mu * bb
        if g <= 0.0:
            return math.inf
        return xx ** (n + 1.0) / g ** n + b * xx

    h = 1e-4 * max(1.0, abs(x), abs(beta))
    f_plus = term(x + h * alpha[0], beta + h * alpha[1])
    f_mid = term(x, beta)
    f_minus = term(x - h * alpha[0], beta - h * alpha[1])
    value = (f_plus - 2.0 * f_mid + f_minus) / (h * h)
    scale = (abs(f_plus) + 2.0 * abs(f_mid) + abs(f_minus)) / (h * h) + 1.0
    return value, scale


def hessian_quadratic_form_exact(c: float, b: float, n: float, mu: float,
                                 x: float, beta: float,
                                 alpha: tuple[float, float]) -> float:
    """Closed form of the quadratic form: a weighted perfect square."""
    g = c + mu * beta
    if g <= 0.0:
        raise ValidationError("effective conductance must be positive")
    if x == 0.0:
        if n > 1.0:
            return 0.0
        if n == 1.0:
            return n * (n + 1.0) / g * alpha[0] ** 2
        raise ValidationError("exact form needs x > 0 when n < 1")
    lead = n * (n + 1.0) * x ** (n - 1.0) / g ** n
    return lead * (alpha[0] - alpha[1] * x * mu / g) ** 2
