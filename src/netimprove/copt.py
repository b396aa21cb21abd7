"""Joint convex relaxation over flows and allocations.

The relaxation drops the equilibrium constraint and minimizes the total
delay sum_e x_e * delay_e(x_e, beta_e) over the product of the flow
polytope and the budget simplex.  Each edge term

    T(x, beta) = x^(n+1) / (c + mu * beta)^n + b * x

has a positive semidefinite Hessian (its quadratic form collapses to a
perfect square), so the whole objective is convex and a first-order method
with a linear-minimization oracle applies:

* flow block: the gradient in x is a nonnegative edge cost, so the best
  vertex is a shortest-path all-or-nothing assignment per commodity;
* budget block: the gradient in beta is nonpositive, so the best vertex
  drops the entire budget on the steepest edge (or spends nothing).

Frank-Wolfe with the exact step drives the relative duality gap down: the
objective along a Frank-Wolfe segment is a sum of one-dimensional convex
edge terms, whose first and second derivatives in the step size come in
closed form, and a safeguarded Newton iteration finds the step's root.  A
trust-region polish over the same constraints finishes the job when very
tight gaps are requested; the reported certificate is always the exact
Frank-Wolfe gap at the returned point.  The returned allocation
carries the standard price-of-anarchy guarantee for the equilibrium played
under it: factor 4/3 when every delay is affine, O(p / log p) for maximum
exponent p otherwise (reported as metadata, not numerically certified).

One kernel, built once per solve from the instance's edge arrays, gives the
value, gradient and dense Hessian of the summed edge terms to every phase:
the Frank-Wolfe loop, its step and its linearized lower bound, the polish
and the KKT refinement.

Exponents below one break the relaxation's smoothness at zero flow; such
instances are solved with Frank-Wolfe only, after a warning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import Allocation, FlowState, Instance, edge_delay
from .equilibrium import _exact_step, _shortest_path
from .errors import Infeasible, ValidationError

__all__ = [
    "CoptResult",
    "solve_copt",
    "relaxed_total_delay",
    "hessian_quadratic_form",
    "hessian_quadratic_form_exact",
]

_G_PAD = 1e-300  # keeps 1/g**n finite during line search at the g=0 corner
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

    The stacked variable vector of the polish and the KKT refinement holds
    the per-commodity edge flows x (ncom, m) row by row, then the budget
    beta (p,) over the improvable edges.  A rigid edge gets infinite
    conductance, which reduces its term to b * x.
    """

    def __init__(self, inst: Instance):
        edges = inst.edges
        self.m = m = len(edges)
        self.ncom = len(inst.commodities)
        self.ids = [e.id for e in edges]
        self.col = {e.id: t for t, e in enumerate(edges)}
        self.imp = np.array([t for t, e in enumerate(edges) if e.improvable],
                            dtype=np.intp)
        self.p = len(self.imp)
        self.nm = self.ncom * m
        self.dim = self.nm + self.p
        self.budget = inst.budget
        self.demands = np.array([k.demand for k in inst.commodities])
        self.c = np.array([math.inf if e.rigid else e.c for e in edges])
        self.b = np.array([e.b for e in edges])
        self.n = np.array([e.n for e in edges])
        self.mu = np.array([edges[t].mu for t in self.imp])
        self.n1 = self.n + 1.0
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
                rhs.append(k.demand if u == k.source else 0.0)
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
        val = sum((xt * rn + self.b * xt).tolist())
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

        With r = x / g on an edge, the term's first derivative is
        ((n+1) r^n + b) dx - n r^(n+1) dg and its second the perfect square
        n (n+1) r^(n-1) (dx - r dg)^2 / g.  Rigid edges, and edges whose
        flow and conductance do not move, add only the constant b dx.
        """
        xt = x.sum(axis=0)
        dxt = dx.sum(axis=0)
        g = self.conductance(beta)
        dg = np.zeros(self.m)
        dg[self.imp] = self.mu * dbeta
        lin = float(self.b @ dxt)
        s = np.flatnonzero(np.isfinite(g) & ((dxt != 0.0) | (dg != 0.0)))
        xs, dxs, gs, dgs, n = xt[s], dxt[s], g[s], dg[s], self.n[s]
        n1dx = (n + 1.0) * dxs
        nn1 = n * (n + 1.0)
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


# At the zero-conductance corner the 1e-300 pad can make the edge terms
# overflow; inf is the intended value there, so the warning is silenced.
# The step's curvature is inf (0 ** negative) at zero flow when n < 1, and
# nan where such an edge meets a zero direction; the step then bisects.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def solve_copt(inst: Instance, tol: float = 1e-8, fw_iters: int = 2000,
               polish: bool = True) -> CoptResult:
    """Solve the relaxation to relative duality gap ``tol``.

    Returns the relaxed flow, the allocation to play, the relaxed objective
    (a lower bound on the total delay of the equilibrium under any valid
    allocation) and the achieved certificate.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    exponents = [e.n for e in inst.edges if not e.rigid]
    max_n = max(exponents, default=1.0)
    if any(n < 1.0 for n in exponents):
        warnings.warn(
            "exponents below 1: the relaxation is solved by Frank-Wolfe only "
            "and the approximation guarantee is not established", RuntimeWarning)
        polish = False
        fw_iters = max(fw_iters, 20000)

    edges = inst.edges
    kern = _Relaxation(inst)
    m, ncom, p = kern.m, kern.ncom, kern.p
    improvable = [edges[t] for t in kern.imp]

    def aon(gx: np.ndarray, beta: np.ndarray):
        usable = (kern.conductance(beta) > 0.0).tolist()
        delays = {eid: d for eid, d, ok in zip(kern.ids, gx.tolist(), usable)
                  if ok}
        y = np.zeros((ncom, m))
        lower = 0.0
        for i, k in enumerate(inst.commodities):
            dist, path = _shortest_path(inst, delays, k.source, k.sink)
            if path is None:
                raise Infeasible(
                    f"commodity {k.source}->{k.sink} is disconnected")
            lower += k.demand * dist
            for eid in path:
                y[i, kern.col[eid]] += k.demand
        return y, lower

    def linearize(x: np.ndarray, beta: np.ndarray):
        """Objective, gradient, best vertex and the linearized value there,
        which bounds the optimum from below."""
        val, gx, gb = kern.value_grad(x, beta)
        y, sp_lower = aon(gx, beta)
        bvert = np.zeros(p)
        if p and gb.min() < 0.0:
            bvert[int(np.argmin(gb))] = inst.budget
        lower = sp_lower + float(gb @ bvert) + (val - float(gx @ x.sum(axis=0))
                                                - float(gb @ beta))
        return val, y, bvert, lower

    # Interior budget start keeps zero-conductance improvable edges usable.
    beta = np.full(p, inst.budget / p) if p else np.zeros(0)
    x = linearize(np.zeros((ncom, m)), beta)[1]

    best_lower = -math.inf
    gap_rel = math.inf
    iterations = 0
    for iterations in range(1, fw_iters + 1):
        val, y, bvert, lower = linearize(x, beta)
        best_lower = max(best_lower, lower)
        gap_rel = (val - best_lower) / max(abs(val), 1e-300)
        if gap_rel <= tol:
            break
        dx = y - x
        dbeta = bvert - beta
        gamma = _exact_step(kern.segment(x, beta, dx, dbeta))
        x = x + gamma * dx
        beta = beta + gamma * dbeta

    if polish and gap_rel > tol:
        # A single polish can settle into a near-optimal face; restart it
        # from a few budget configurations and keep the best point.  Every
        # start contributes a valid linearization lower bound, so the
        # certificate tightens even when the point does not move.
        best_val, *_, lower = linearize(x, beta)
        best_lower = max(best_lower, lower)
        starts = [(x, beta)]
        if p:
            vertex = np.zeros(p)
            vertex[int(np.argmax(beta)) if beta.size else 0] = inst.budget
            starts.append((x, vertex))
            starts.append((x, np.full(p, inst.budget / p)))
        for sx, sb in starts:
            if gap_rel <= tol:
                break
            xx, bb = _polish(kern, sx, sb)
            for freeze in (1e-7, 1e-5, 1e-3):
                refined = _kkt_refine(kern, xx, bb, freeze=freeze)
                if refined is not None:
                    rx, rb = refined
                    # The objective is a sum of nonnegative terms, so its
                    # rounding error is a few ulps of its value: a refined
                    # point that ties within that is kept, rather than
                    # letting the last bit pick between the two.
                    held = kern.value_grad(xx, bb)[0]
                    if kern.value_grad(rx, rb)[0] <= held + 1e-15 * held:
                        xx, bb = rx, rb
            val2, *_, lower2 = linearize(xx, bb)
            best_lower = max(best_lower, lower2)
            if val2 < best_val:
                best_val = val2
                x, beta = xx, bb
            gap_rel = (best_val - best_lower) / max(abs(best_val), 1e-300)
    if gap_rel > tol:
        warnings.warn(f"relaxation gap {gap_rel:.3e} above tol {tol:.3e}",
                      RuntimeWarning)

    xt = x.sum(axis=0)
    fmap = {e.id: float(xt[t]) for t, e in enumerate(edges) if xt[t] > 1e-15}
    per_comm = tuple({e.id: float(x[i, t]) for t, e in enumerate(edges)
                      if x[i, t] > 1e-15} for i in range(ncom))
    flow = FlowState(edge_flow=fmap,
                     commodity_flows=per_comm if ncom > 1 else None)
    total = inst.budget
    vals = np.maximum(beta, 0.0)
    if vals.sum() > total > 0.0:
        vals = vals * (total / vals.sum())
    alloc = Allocation({e.id: float(vals[j]) for j, e in enumerate(improvable)
                        if vals[j] > 1e-15})
    objective_value = relaxed_total_delay(inst, fmap, alloc)
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


def _polish(kern: _Relaxation, x0: np.ndarray, beta0: np.ndarray):
    """Tighten the Frank-Wolfe point: trust-region, then active-set."""
    from scipy import optimize

    fun = kern.stacked_value_grad
    eq_rows = list(zip(kern.conservation, kern.conservation_rhs))
    budget_row = kern.budget_row
    budget = kern.budget

    tc_cons = [optimize.LinearConstraint(row, rhs, rhs) for row, rhs in eq_rows]
    if kern.p:
        tc_cons.append(optimize.LinearConstraint(budget_row, 0.0, budget))
    ub = np.concatenate([np.repeat(kern.demands, kern.m),
                         np.full(kern.p, budget)])
    z0 = np.concatenate([np.clip(x0.ravel(), 0.0, None),
                         np.clip(beta0, 0.0, None)])
    res = optimize.minimize(
        fun, z0, jac=True, hess=lambda z: kern.hessian(*kern.split(z)),
        method="trust-constr",
        bounds=optimize.Bounds(np.zeros(kern.dim), ub), constraints=tc_cons,
        options={"gtol": 1e-12, "xtol": 1e-16, "barrier_tol": 1e-14,
                 "maxiter": 3000})
    z = np.asarray(res.x)

    # The interior-point loop stalls around 1e-7 relative; an active-set
    # refinement from its output reaches much tighter gaps.
    sq_cons = [{"type": "eq",
                "fun": lambda zz, row=row, rhs=rhs: float(row @ zz - rhs),
                "jac": lambda zz, row=row: row}
               for row, rhs in eq_rows]
    if kern.p:
        sq_cons.append({"type": "ineq",
                        "fun": lambda zz: budget - float(budget_row @ zz),
                        "jac": lambda zz: -budget_row})
    res2 = optimize.minimize(
        fun, z, jac=True, method="SLSQP",
        bounds=[(0.0, float(u)) for u in ub], constraints=sq_cons,
        options={"ftol": 1e-16, "maxiter": 500})
    if res2.success and fun(np.asarray(res2.x))[0] <= fun(z)[0]:
        z = np.asarray(res2.x)
    x, beta = kern.split(z)
    return np.clip(x, 0.0, None), np.clip(beta, 0.0, None)


def _kkt_refine(kern: _Relaxation, x0: np.ndarray, beta0: np.ndarray,
                iters: int = 6, freeze: float = 1e-7):
    """Newton on the equality-constrained problem at the guessed active set.

    Variables below ``freeze`` (relative to their scale) are pinned at
    zero; the smooth KKT system then drives the remainder to machine
    precision.  Returns None when the guess proves inconsistent (a free
    variable wants to move negative).
    """
    nm, p, dim, budget = kern.nm, kern.p, kern.dim, kern.budget
    dscale = float(kern.demands.max())

    z = np.concatenate([x0.ravel(), beta0])
    frozen = np.zeros(dim, dtype=bool)
    frozen[:nm] = z[:nm] < freeze * dscale
    if p:
        frozen[nm:] = z[nm:] < freeze * max(1.0, budget)
    rows = [kern.conservation]
    rhs = [kern.conservation_rhs]
    if p and z[nm:].sum() > budget * (1.0 - 1e-7):
        rows.append(kern.budget_row[None, :])
        rhs.append([budget])
    rows.append(np.eye(dim)[frozen])
    rhs.append(np.zeros(int(frozen.sum())))
    A = np.vstack(rows)
    b = np.concatenate(rhs)

    nrows = len(A)
    for _ in range(iters):
        _, g = kern.stacked_value_grad(z)
        H = kern.hessian(*kern.split(z))
        if not np.isfinite(g).all() or not np.isfinite(H).all():
            return None
        kkt = np.zeros((dim + nrows, dim + nrows))
        kkt[:dim, :dim] = H + 1e-12 * np.eye(dim)
        kkt[:dim, dim:] = A.T
        kkt[dim:, :dim] = A
        resid = np.concatenate([-g, b - A @ z])
        try:
            sol = np.linalg.solve(kkt, resid)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, resid, rcond=None)[0]
        step = sol[:dim]
        if not np.isfinite(step).all():
            return None
        z = z + step
        if np.max(np.abs(step)) < 1e-14 * max(1.0, np.max(np.abs(z))):
            break
    if not np.isfinite(z).all() or \
            (z < -1e-9 * max(1.0, dscale, budget)).any():
        return None
    z = np.clip(z, 0.0, None)
    if p and z[nm:].sum() > budget * (1.0 + 1e-12):
        return None
    return kern.split(z)


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
