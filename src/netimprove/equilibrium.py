"""Wardrop equilibria and the average delay for a fixed allocation.

The equilibrium flow is the unique minimizer of the potential

    Phi(f) = sum_e integral_0^{f_e} delay_e(x, beta_e) dx

over the product of per-commodity flow polytopes.  Two engines implement
the minimization:

* A path-based active-set engine, ``_PathBatch``, the only one that
  reaches machine precision, which the tolerance contracts downstream rely
  on.  It enumerates all simple paths per commodity once per instance
  (graphs here are desk scale) and keeps itself with the instance.  Each
  round equalizes the delays of the flow-carrying paths, by a direct linear
  solve in the affine case and damped Newton otherwise, and exchanges paths
  in and out of that set until the Wardrop condition holds.  Newton sees
  each delay extended to negative flow as an odd function, so it has a
  root, and a path it drives negative is dropped as the linear solve's are
  (Bertsekas and Gafni 1982).  It runs on rows of allocations at once,
  grouped by active set: ``path_delay_rows`` feeds it a grid block, and
  ``solve_equilibrium`` a single row, which it turns into a flow with its
  certificate, or hands to Frank-Wolfe if the engine stalls.

* Frank-Wolfe on edge flows, used when path enumeration exceeds its cap or
  the path engine stalls: ``copt``'s loop on the relaxation's edge kernel,
  weighted as this potential at the fixed allocation.  The linear
  subproblem is a nonnegative-delay shortest path per commodity and the
  step the exact minimizer of the convex step objective.  The gap
  converges like O(1/k), so very tight tolerances are out of reach; it
  warns if the iteration cap is hit first, and raises where the potential
  leaves floating-point range.  It shares only ``_shortest_path`` with the
  path engine, so it serves the tests as an independent reference for it.

Either way the returned certificate is the relative duality gap
(Phi(f) - linearized lower bound) / Phi(f), for Frank-Wolfe the best bound
met on the way, and used-path delays per commodity agree with the common
delay to within the gap.

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

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

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
from .copt import _flow_unit, _frank_wolfe, _Relaxation, _shortest_path
from .errors import (InapplicableError, Infeasible, PathCapExceeded,
                     UnsupportedDelay, ValidationError)

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


# ---------------------------------------------------------------------------
# Path-based active-set engine


def path_delay_rows(inst: Instance, edges, betas: np.ndarray) -> np.ndarray:
    """Equilibrium average delay of ``inst`` for each row of allocations.

    ``betas`` has shape (N, len(edges)); column j is the amount on
    ``edges[j]`` and every other edge gets zero.  This is the path engine
    of ``solve_equilibrium`` run on all rows at once, from the same start.
    A row with a commodity that has no usable path gets inf.  A row gets
    nan, and the caller solves it with ``solve_equilibrium``, where the
    engine leaves it open (a failed Newton solve, or no Wardrop point in
    400 rounds; Frank-Wolfe finishes it with a warning) or where
    ``_solve_paths`` may raise or report a value that is not finite.  Raises
    PathCapExceeded when a commodity has more than 200 simple paths.  Rows
    go through in slices of ``_BATCH_ROWS``, which bounds the working
    arrays whatever the batch size.
    """
    betas = np.asarray(betas, dtype=float)
    batch = _path_batch(inst, _PATH_CAP)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.concatenate(
            [batch.delays(edges, betas[lo:lo + _BATCH_ROWS])
             for lo in range(0, len(betas), _BATCH_ROWS)])


def _path_batch(inst: Instance, path_cap: int) -> "_PathBatch":
    """The instance's path engine for ``path_cap``, built once and kept with
    its simple paths, so that every solve shares the active sets met."""
    key = (_PathBatch, path_cap)  # never a (source, sink) key
    if key not in inst._path_cache:
        inst._path_cache[key] = _PathBatch(inst, path_cap)
    return inst._path_cache[key]


class _Rows(NamedTuple):
    """What ``_PathBatch.solve`` leaves for each row."""
    done: np.ndarray    # settled: no path left to add
    L: np.ndarray       # (N, commodities) common delays of settled rows
    X: np.ndarray | None  # (N, paths) path flows of settled rows
    rounds: np.ndarray  # equalizations, drop rounds included


class _ActiveSet:
    """Equalization system layout of one active path set (sorted indices)."""

    def __init__(self, batch: "_PathBatch", S: np.ndarray):
        a, ncom = len(S), len(batch.demands)
        com = batch.com[S]
        self.S, self.a, self.com = S, a, com
        self.size = a + ncom
        self.by_com = [np.flatnonzero(com == i) for i in range(ncom)]
        self.many = np.array([len(ts) > 1 for ts in self.by_com])
        self.z0 = np.array(batch.demands)[com] / np.bincount(com)[com]
        self.active_edges = np.flatnonzero(batch.inc[S].any(axis=0))
        # Edge flows: the active paths through each edge in index order.
        self.flow_layers = _layers([np.flatnonzero(col)
                                    for col in batch.inc[S].T])
        # Entry (t, t2) sums the shared non-rigid edges of paths t and t2 in
        # the order of path t; layer l holds the l-th term of every entry,
        # so one fancy-indexed add per layer keeps that order.
        loc = {int(j): t for t, j in enumerate(S)}
        terms: dict[tuple[int, int], list[int]] = {}
        for t, j in enumerate(S):
            for e in batch.path_edges[j]:
                if batch.rigid[e]:
                    continue
                for j2 in batch.on_edge[e]:
                    if int(j2) in loc:
                        terms.setdefault((t, loc[int(j2)]), []).append(e)
        pairs = np.array(list(terms), dtype=int).reshape(-1, 2)
        self.layers = [(pairs[o, 0], pairs[o, 1], es)
                       for o, es in _layers(list(terms.values()))]
        self.rhs = np.concatenate([-batch.free_flow[S], batch.demands])
        rows = np.arange(a)
        self.unit = (np.concatenate([rows, a + com]),
                     np.concatenate([a + com, rows]),
                     np.concatenate([np.full(a, -1.0), np.ones(a)]))
        self.edges = len(batch.c)

    @functools.cached_property
    def singular(self) -> bool:
        """Whether the edge flows leave a path flow free (commodities crossing
        over two shared links); computed on the set's first Newton step."""
        return bool(np.linalg.matrix_rank(
            self.matrices(np.ones((1, self.edges)))[0]) < self.size)

    def matrices(self, weights: np.ndarray) -> np.ndarray:
        """The (N, a + I, a + I) system with per-row edge weights."""
        M = np.zeros((len(weights), self.size, self.size))
        for ts, t2s, es in self.layers:
            M[:, ts, t2s] += weights[:, es]
        rows, cols, vals = self.unit
        M[:, rows, cols] = vals
        return M


class _PathBatch:
    """The path engine of one instance: its edge arrays, every simple path
    and its edges, and the active sets met so far."""

    def __init__(self, inst: Instance, path_cap: int):
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
        per_com = [inst.simple_paths(k.source, k.sink, cap=path_cap)
                   for k in inst.commodities]
        self.paths = [p for ps in per_com for p in ps]
        self.com = np.repeat(np.arange(len(per_com)), list(map(len, per_com)))
        self.path_edges = [[self.pos[eid] for eid in p] for p in self.paths]
        self.free_flow = np.array([sum(edges[t].b for t in p)
                                   for p in self.path_edges])
        for p, length in zip(self.paths, self.free_flow):
            if math.isinf(length):
                raise ValidationError(
                    f"length of the path from {p[0]!r} overflows")
        self.by_com = [np.flatnonzero(self.com == i)
                       for i in range(len(self.demands))]
        # Each commodity's paths, shortest first, ties to the lower index.
        self.by_length = [js[np.lexsort((js, self.free_flow[js]))]
                          for js in self.by_com]
        self.inc = np.zeros((len(self.paths), len(edges)), dtype=bool)
        for j, p in enumerate(self.path_edges):
            self.inc[j, p] = True
        self.on_edge = [np.flatnonzero(col) for col in self.inc.T]
        self.delay_layers = _layers(self.path_edges)
        self.sets: dict[bytes, _ActiveSet] = {}

    def usable(self, G: np.ndarray):
        """Per row, the paths without a non-rigid edge of zero conductance,
        and the commodities left without such a path (N, commodities)."""
        usable = ~(((G == 0.0) & ~self.rigid) @ self.inc.T)
        return usable, np.stack([~usable[:, js].any(axis=1)
                                 for js in self.by_com], axis=1)

    def start(self, usable: np.ndarray, start: str = "shortest"
              ) -> np.ndarray:
        """Initial active sets: each commodity's shortest usable path by
        free-flow length, "longest" its longest, "all" every usable path."""
        if start == "all":
            return usable.copy()
        active = np.zeros(usable.shape, dtype=bool)
        for js in self.by_length:
            if start != "shortest":
                js = js[::-1]
            first = np.argmax(usable[:, js], axis=1)
            active[np.arange(len(usable)), js[first]] = True
        return active

    def delays(self, edges, betas: np.ndarray) -> np.ndarray:
        N = len(betas)
        G = np.tile(self.c, (N, 1))
        for j, e in enumerate(edges):
            t = self.pos[e.id]
            G[:, t] = self.c[t] + self.mu[t] * betas[:, j]
        usable, stranded = self.usable(G)
        feasible = ~stranded.any(axis=1)
        res = self.solve(G, usable, self.start(usable),
                         np.flatnonzero(feasible))
        out = np.full(N, np.nan)
        out[~feasible] = np.inf
        L = res.L[res.done]
        out[res.done] = sum(d / self.total * L[:, i]
                            for i, d in enumerate(self.demands))
        return out

    def solve(self, G: np.ndarray, usable: np.ndarray, active: np.ndarray,
              rows: np.ndarray, flows: bool = False) -> _Rows:
        """Run the active-set loop on ``rows`` of the conductances ``G``
        (N, edges) from the active sets ``active`` (N, paths), which it
        updates; ``flows`` asks for the path flows of settled rows.

        A round equalizes the delays of a row's active paths, by one linear
        solve when every delay is affine and by damped Newton otherwise; it
        drops the path whose flow came out most negative, or else adds each
        commodity's shortest usable path where that is shorter than the
        common delay.  A row settles in the first round that changes
        nothing.  Rows sharing an active set go through a round together.
        Callers ignore floating-point errors: a value out of range is kept
        and judged where it is reported.
        """
        N = len(G)
        res = _Rows(np.zeros(N, dtype=bool),
                    np.full((N, len(self.demands)), np.nan),
                    np.zeros(usable.shape) if flows else None,
                    np.zeros(N, dtype=int))
        scale = (1.0 + float(np.max(np.abs(self.demands)))
                 + np.max(np.where(usable, self.free_flow, -np.inf), axis=1))
        for _ in range(400):
            if not rows.size:
                break
            res.rounds[rows] += 1
            # Group the open rows by active set: sort their packed masks.
            codes = np.packbits(active[rows], axis=1)
            order = np.lexsort(codes.T[::-1])
            codes = codes[order]
            starts = np.flatnonzero((codes[1:] != codes[:-1]).any(axis=1)) + 1
            groups = np.split(rows[order], starts)
            rows = np.concatenate([
                self._round(self._set(active[grp[0]]), grp, G, usable,
                            active, scale, res) for grp in groups])
        return res

    def _set(self, mask: np.ndarray) -> _ActiveSet:
        key = mask.tobytes()
        if key not in self.sets:
            self.sets[key] = _ActiveSet(self, np.flatnonzero(mask))
        return self.sets[key]

    def _round(self, aset: _ActiveSet, grp, G, usable, active, scale,
               res: _Rows):
        """One equalize-and-exchange round for the rows ``grp`` sharing
        ``aset``; returns the rows left open."""
        if self.affine:
            z = _solve_rows(aset.matrices(1.0 / G[grp]),
                            np.tile(aset.rhs, (len(grp), 1)))
        else:
            z, ok = self._newton(aset, G[grp], scale[grp])
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
        x = np.maximum(z[:, :a], 0.0)
        F, D, settled = self._flows(aset, x, Gg)
        L = z[:, a:]
        added = np.zeros(len(grp), dtype=bool)
        for i, js in enumerate(self.by_com):
            best_d = np.full(len(grp), np.inf)
            best_j = np.full(len(grp), -1)
            for j in js:
                better = usable[grp, j] & (D[:, j] < best_d - 1e-15)
                best_d = np.where(better, D[:, j], best_d)
                best_j[better] = j
            Li = L[:, i]
            add = ((best_j >= 0) & ~active[grp, best_j]
                   & (best_d < Li - 1e-10 * (1.0 + np.abs(Li))))
            active[grp[add], best_j[add]] = True
            added |= add
        done = ~added
        res.done[grp[done]] = True
        res.L[grp[done]] = L[done]
        if res.X is not None:
            res.X[grp[done][:, None], aset.S] = x[done]
        else:  # nan where only _solve_paths can tell the value or the error
            settled &= np.isfinite(L).all(axis=1)
            settled &= ~self._potential_overflows(F, Gg, done & settled)
            res.L[grp[done & ~settled]] = np.nan
        return np.concatenate([dropped, grp[added]])

    def _flows(self, aset: _ActiveSet, x: np.ndarray, G: np.ndarray):
        """Edge flows and path delays at the active path flows ``x``, with
        delays extended to negative flow as sign(x) |x/g|^n + b, and the
        rows whose edge delays are all finite."""
        F = np.zeros(G.shape)
        for es, ts in aset.flow_layers:
            F[:, es] += x[:, ts]
        De = F / G
        np.copysign(np.float_power(np.abs(De), self.n), De, out=De)
        De += self.b
        np.copyto(De, self.b, where=self.rigid | (F == 0.0))
        D = np.zeros((len(x), len(self.com)))
        for js, es in self.delay_layers:
            D[:, js] += De[:, es]
        return F, D, np.isfinite(De).all(axis=1)

    def _potential_overflows(self, F: np.ndarray, G: np.ndarray,
                             rows: np.ndarray) -> np.ndarray:
        """Which of ``rows`` make ``_solve_paths``'s potential raise:
        F**(n+1) or G**n overflows on a flowing non-rigid edge.  Both powers
        grow with their base, so the largest bases on each edge clear most
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
        """The equalization residual: each active path's delay less its
        commodity's common delay, and each commodity's flow less its
        demand; rows whose delays are not finite are marked not ok."""
        a = aset.a
        F, D, ok = self._flows(aset, z[:, :a], G)
        r = np.empty(z.shape)
        r[:, :a] = D[:, aset.S] - z[:, a + aset.com]
        for i, ts in enumerate(aset.by_com):
            acc = z[:, ts[0]]
            for t in ts[1:]:
                acc = acc + z[:, t]
            r[:, a + i] = acc - self.demands[i]
        return r, F, ok & np.isfinite(r).all(axis=1)

    def _slopes(self, F: np.ndarray, G: np.ndarray) -> np.ndarray:
        """d delay / d flow of every edge, odd-extended delays included;
        1e18 for an exponent below one at zero flow."""
        s = (self.n * np.float_power(np.abs(F), self.n - 1.0)
             / np.float_power(G, self.n))
        s = np.where(F == 0.0, np.where(self.n > 1.0, 0.0, 1e18), s)
        s = np.where(self.n == 1.0, 1.0 / G, s)
        return np.where(self.rigid, 0.0, s)

    def _newton(self, aset: _ActiveSet, G: np.ndarray, scale: np.ndarray):
        """Damped Newton on the residual of every row from equal splits of
        each demand: 120 steps of at most 40 halvings, a step taken when it
        cuts the residual norm by 1e-4 of its length or reaches 1e-12 of
        ``scale``.  Returns z and the rows that converged; a row whose
        start or slopes are not finite, or whose step no halving takes,
        does not."""
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
            ok = np.isfinite(s[:, aset.active_edges]).all(axis=1)
            live[idx[~ok]] = False
            idx, M = idx[ok], aset.matrices(s[ok])
            step = _solve_rows(M, -r[idx], aset.singular)
            base = _norms(r[idx])
            alpha = np.ones(len(idx))
            for _ in range(40):
                if not idx.size:
                    break
                z_new = z[idx] + alpha[:, None] * step
                r_new, F_new, _ = self._residual(aset, z_new, G[idx])
                better = ((_norms(r_new) < base * (1.0 - 1e-4 * alpha))
                          | (np.max(np.abs(r_new), axis=1)
                             <= 1e-12 * scale[idx]))
                took = idx[better]
                z[took], r[took], F[took] = (z_new[better], r_new[better],
                                             F_new[better])
                idx, step = idx[~better], step[~better]
                base, alpha = base[~better], 0.5 * alpha[~better]
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


def _solve_rows(M: np.ndarray, rhs: np.ndarray,
                singular: bool = False) -> np.ndarray:
    """Solve each row's system: least-norm when the layout is ``singular``,
    and a row the direct solve finds singular by least squares."""
    if singular:
        return (np.linalg.pinv(M) @ rhs[..., None])[..., 0]
    try:
        return np.linalg.solve(M, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        z = np.empty(rhs.shape)
        for r in range(len(M)):
            try:
                z[r] = np.linalg.solve(M[r], rhs[r])
            except np.linalg.LinAlgError:
                z[r] = np.linalg.lstsq(M[r], rhs[r], rcond=None)[0]
        return z


def _solve_paths(inst: Instance, beta: Allocation, path_cap: int,
                 start: str) -> EquilibriumResult | None:
    """The path engine on one allocation: its flow, path flows and common
    delays, certified by the duality gap; None when the engine leaves the
    row open."""
    batch = _path_batch(inst, path_cap)
    G = np.array([[effective_conductance(e, beta.get(e.id))
                   for e in inst.edges]])
    usable, stranded = batch.usable(G)
    for i in np.flatnonzero(stranded[0]):
        k = inst.commodities[i]
        raise Infeasible(f"commodity {k.source}->{k.sink} has no usable path")
    active = batch.start(usable, start)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res = batch.solve(G, usable, active, np.arange(1), flows=True)
        if not res.done[0]:
            return None
        aset = batch._set(active[0])  # the settled set, built in its round
        x = res.X[0]
        F = batch._flows(aset, x[None, aset.S], G)[0][0]
    f = {e.id: float(F[t]) for t, e in enumerate(inst.edges) if F[t] != 0.0}
    L = res.L[0].tolist()
    delays = {e.id: edge_delay(e, f.get(e.id, 0.0), beta.get(e.id))
              for e in inst.edges
              if e.rigid or effective_conductance(e, beta.get(e.id)) > 0.0}
    dists = [_shortest_path(inst, delays, k.source, k.sink)[0]
             for k in inst.commodities]
    per_comm: list[dict[str, float]] = [{} for _ in inst.commodities]
    paths_out = []
    for j in aset.S:  # commodity by commodity
        w = float(x[j])
        if w > 1e-13 * batch.dscale:
            paths_out.append((batch.paths[j], w))
            cmap = per_comm[batch.com[j]]
            for eid in batch.paths[j]:
                cmap[eid] = cmap.get(eid, 0.0) + w
    flow = FlowState(edge_flow=f,
                     commodity_flows=tuple(per_comm) if len(per_comm) > 1 else None,
                     paths=tuple(paths_out))
    return EquilibriumResult(flow=flow, common_delay=tuple(L),
                             average_delay=_average(inst, L),
                             duality_gap=_relative_gap(inst, beta, f, delays,
                                                       dists),
                             iterations=int(res.rounds[0]))


def _relative_gap(inst: Instance, beta: Allocation, f: dict[str, float],
                  delays: dict[str, float], dists: list[float]) -> float:
    """(Phi(f) - linearized lower bound) / Phi(f) for edge flows ``f`` with
    edge delays ``delays`` and shortest path lengths ``dists`` under them."""
    total_delay = sum(f.get(eid, 0.0) * d for eid, d in delays.items())
    lower = sum(k.demand * dist for k, dist in zip(inst.commodities, dists))
    gap = max(0.0, total_delay - lower)
    phi = beckmann_potential(f, beta, inst)
    return gap / phi if phi > 0 else 0.0


def _average(inst: Instance, L: list[float]) -> float:
    """The demand-weighted mean of the commodities' common delays."""
    total = sum(k.demand for k in inst.commodities)
    return sum(k.demand / total * L[i] for i, k in enumerate(inst.commodities))


def solve_equilibrium(inst: Instance, beta: Allocation | None = None,
                      tol: float = 1e-8, method: str = "auto",
                      path_cap: int = _PATH_CAP, start: str = "shortest",
                      max_iters: int = 50000) -> EquilibriumResult:
    """Equilibrium flow and common path delays under allocation ``beta``.

    ``method`` is "auto" (path engine when the path count fits under
    ``path_cap``, Frank-Wolfe otherwise), "paths" or "frank-wolfe".
    ``start`` seeds the active set ("shortest", "longest" or "all") and only
    affects the iteration trajectory, not the result.  A stalled path engine
    raises InapplicableError under "paths" and hands over to Frank-Wolfe
    with a RuntimeWarning under "auto"; either engine warns when its
    relative duality gap ends above ``tol``.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    if max_iters < 0:
        raise ValidationError("max_iters must be nonnegative")
    beta = beta or Allocation()
    beta.validate_for(inst)
    if method not in ("auto", "paths", "frank-wolfe"):
        raise ValidationError(f"unknown method {method!r}")
    if method in ("auto", "paths"):
        try:
            res = _solve_paths(inst, beta, path_cap, start)
        except PathCapExceeded:
            if method == "paths":
                raise
        else:
            if res is not None:
                if res.duality_gap > tol:
                    warnings.warn(f"path engine stopped at relative gap "
                                  f"{res.duality_gap:.3e} > tol {tol:.3e}",
                                  RuntimeWarning)
                return res
            if method == "paths":
                raise InapplicableError("path engine stalled")
            warnings.warn("path engine stalled; Frank-Wolfe finishes",
                          RuntimeWarning)
    g = [effective_conductance(e, beta.get(e.id)) for e in inst.edges
         if not e.rigid]
    kern = _Relaxation(inst, _flow_unit(inst.total_demand, max(g, default=1.0),
                                        min(filter(None, g), default=0.0)),
                       fixed=beta)
    x, _, gap, iterations = _frank_wolfe(kern, tol, max_iters)
    if gap > tol:
        warnings.warn(f"Frank-Wolfe stopped at relative gap {gap:.3e} > tol "
                      f"{tol:.3e} after {max_iters} iterations", RuntimeWarning)
    L = kern.route(kern.value_grad(x, np.zeros(0))[1], kern.c > 0.0)[1]
    return EquilibriumResult(flow=kern.flow(x), common_delay=tuple(L),
                             average_delay=_average(inst, L),
                             duality_gap=max(0.0, gap), iterations=iterations)


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


def _in_range(rows: np.ndarray, conductances: np.ndarray) -> np.ndarray:
    """The closed form's delays ``rows``; ValidationError for a row that is
    inf although a link or path has positive conductance (an overflow)."""
    inf = np.isinf(rows)
    if inf.any() and (conductances[inf] > 0.0).any():
        raise ValidationError("a delay is out of floating-point range")
    return rows


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
    G = np.array([c_eff])
    L = float(_in_range(dipole_delay_rows([e.b for e in links],
                                          [e.rigid for e in links], G, d), G)[0])
    if math.isinf(L):
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
