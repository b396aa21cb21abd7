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
  in and out of that set until the Wardrop condition holds: it drops the
  path driven most negative, or adds each commodity's usable path of least
  delay, one masked argmin, where that is below the common delay.  Newton
  sees each delay extended to negative flow as an odd function, so it has
  a root, and a path it drives negative is dropped as the linear solve's
  are (Bertsekas and Gafni 1982).  It runs on rows of allocations at once,
  grouped by active set: ``path_delay_rows`` feeds it a grid block, and
  ``solve_equilibrium`` a single row, which it turns into a flow with its
  certificate, or hands to Frank-Wolfe if the engine stalls.  Each round
  solves its set afresh, Newton from equal splits, so a row's result
  depends only on the set it settles in.  A grid block's Newton rows use
  that: every 32nd row starts from its shortest paths and the others from
  the set the sampled row before them settled in, which saves rounds and
  changes no bit.  Affine rows all start from their shortest paths, since
  an affine round costs one solve per set and the borrowed sets would
  split the block into more of them.

* Frank-Wolfe on edge flows, used past ``_PATH_CAP`` simple paths or where
  the path engine stalls: ``copt``'s loop on the relaxation's edge kernel,
  weighted as this potential at the fixed allocation.  The linear subproblem
  is a nonnegative-delay shortest path per commodity and the step the exact
  minimizer of the convex step objective.  The gap converges like O(1/k), so
  very tight tolerances are out of reach; it warns if its ``_FW_ITERS``
  steps run out first, and raises where the potential leaves floating-point
  range.  It shares only the edge delays with the path engine, so it serves
  the tests, as ``_solve_frank_wolfe``, as an independent reference for it.

The path engine certifies with the relative gap in delay units (Boyce,
Ralevic-Dekic and Bar-Gera 2004), sum_i s_i (Lbar_i - min_p D_p) / sum_i s_i
Lbar_i: s_i is commodity i's demand share, Lbar_i its flow-weighted mean
path delay, the minimum over its usable paths.  It needs no flow unit.
Frank-Wolfe keeps the potential's relative duality gap from ``copt``'s
kernel, which its steps need and which bounds the optimal Phi.

Dipole graphs (parallel links between the terminals) with affine delays
additionally get an exact closed form: with effective conductances g_e the
common delay over a used set S is (d + sum_S g_e b_e) / sum_S g_e, and over
the prefixes of the links sorted by length it is least at the used set, so
no tolerance decides ties.  Rigid links cap the delay at their length and
absorb the residual flow.  The scan is written once, in
``parallel_links_delay_batch`` over rows of allocations, which works in
fresh scratch or, for the grid oracle, in its block buffers; a single
allocation is a batch of one row.  ``dipole_delay_rows`` lays out links, or
whole paths, for it by ``_scan_layout``: the parallel-paths optimizer and
the grid oracle use the same scan.  A row is finite; inf (or the rigid cap)
where no link conducts; or nan where one does but the delay is out of range.
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
    edge_delay_integral,
    effective_conductance,
)
from .copt import _flow_unit, _frank_wolfe, _Relaxation
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

_PATH_CAP = 200  # simple paths per commodity the path engines enumerate
_FW_ITERS = 50_000  # Frank-Wolfe steps of one solve
_BATCH_ROWS = 4096  # allocations per pass of the batched path engine
_SAMPLE = 32  # a block's Newton rows start from one sampled row in this many


@dataclass(frozen=True)
class EquilibriumResult:
    """``duality_gap`` is the path engine's relative gap in delay units,
    Frank-Wolfe's on the potential, or the closed form's 0."""
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
    of ``solve_equilibrium`` run on all rows at once; a Newton row may
    start from a sampled row's settled set (``_PathBatch.delays``), which
    gives the same delay in fewer rounds.
    A row with a commodity that has no usable path gets inf.  A row gets
    nan, and the caller solves it with ``solve_equilibrium``, where the
    engine leaves it open (a failed Newton solve, or no Wardrop point in
    400 rounds; Frank-Wolfe finishes it with a warning) or where a delay is
    not finite.  Rows carry no gap; ``solve_equilibrium`` reports one row's
    relative gap in delay units.  Raises
    PathCapExceeded when a commodity has more than 200 simple paths.  Rows
    go through in slices of ``_BATCH_ROWS``, which bounds the working
    arrays whatever the batch size.
    """
    betas = np.asarray(betas, dtype=float)
    batch = _path_batch(inst)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.concatenate(
            [batch.delays(edges, betas[lo:lo + _BATCH_ROWS])
             for lo in range(0, len(betas), _BATCH_ROWS)])


def _path_batch(inst: Instance) -> "_PathBatch":
    """The instance's path engine, built once and kept with its simple
    paths, so that every solve shares the active sets met."""
    if _PathBatch not in inst._path_cache:  # never a (source, sink) key
        inst._path_cache[_PathBatch] = _PathBatch(inst)
    return inst._path_cache[_PathBatch]


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
        # The system with zero weights: -1 for each path's common delay and
        # 1 for its flow in its commodity's demand row.
        self.template = np.zeros((self.size, self.size))
        self.template[np.arange(a), a + com] = -1.0
        self.template[a + com, np.arange(a)] = 1.0
        self.edges = len(batch.c)

    @functools.cached_property
    def singular(self) -> bool:
        """Whether the edge flows leave a path flow free (commodities crossing
        over two shared links); computed on the set's first Newton step."""
        return bool(np.linalg.matrix_rank(
            self.matrices(np.ones((1, self.edges)))[0]) < self.size)

    def matrices(self, weights: np.ndarray) -> np.ndarray:
        """The (N, a + I, a + I) system with per-row edge weights."""
        M = np.repeat(self.template[None], len(weights), axis=0)
        for ts, t2s, es in self.layers:
            M[:, ts, t2s] += weights[:, es]
        return M


class _PathBatch:
    """The path engine of one instance: its edge arrays, every simple path
    and its edges, and the active sets met so far."""

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
        per_com = [inst.simple_paths(k.source, k.sink, cap=_PATH_CAP)
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
        """The average delay of each row of allocations, as
        ``path_delay_rows`` gives it.

        Affine rows start from their shortest paths.  Newton rows go in two
        passes: every 32nd feasible row from its shortest paths, then each
        other row from the set that the sampled row before it settled in, if
        it settled, less the paths this row cannot use; a commodity left
        with no active path keeps its shortest one.
        """
        N = len(betas)
        G = np.tile(self.c, (N, 1))
        for j, e in enumerate(edges):
            t = self.pos[e.id]
            G[:, t] = self.c[t] + self.mu[t] * betas[:, j]
        usable, stranded = self.usable(G)
        rows = np.flatnonzero(~stranded.any(axis=1))
        active = self.start(usable)
        if self.affine:
            res = self.solve(G, usable, active, rows)
        else:
            res = self.solve(G, usable, active, rows[::_SAMPLE])
            at = np.flatnonzero(np.arange(len(rows)) % _SAMPLE)
            own, near = rows[at], rows[at // _SAMPLE * _SAMPLE]
            for js in self.by_com:
                take = active[near[:, None], js] & usable[own[:, None], js]
                keep = take.any(axis=1) & res.done[near]
                active[own[keep, None], js] = take[keep]
            self.solve(G, usable, active, own, res=res)
        out = np.full(N, np.inf)
        out[rows] = np.nan
        L = res.L[res.done]
        out[res.done] = sum(d / self.total * L[:, i]
                            for i, d in enumerate(self.demands))
        return out

    def solve(self, G: np.ndarray, usable: np.ndarray, active: np.ndarray,
              rows: np.ndarray, flows: bool = False,
              res: _Rows | None = None) -> _Rows:
        """Run the active-set loop on ``rows`` of the conductances ``G``
        (N, edges) from the active sets ``active`` (N, paths), which it
        updates, into ``res`` or a fresh record; ``flows`` asks for the path
        flows of settled rows.

        A round equalizes the delays of a row's active paths, by one linear
        solve when every delay is affine and by damped Newton otherwise; it
        drops the path whose flow came out most negative, or else adds, per
        commodity, the usable path of least finite delay (the lowest index
        among equals) where that is below the common delay.  A row settles
        in the first round that changes nothing.  Rows sharing an active set
        go through a round together.  Callers ignore floating-point errors:
        a value out of range is kept and judged where it is reported.
        """
        N = len(G)
        if res is None:
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
            if len(rows) == 1:
                groups = [rows]
            else:  # group the open rows by active set: sort packed masks
                codes = np.packbits(active[rows], axis=1)
                order = np.lexsort(codes.T[::-1])
                codes = codes[order]
                starts = np.flatnonzero(
                    (codes[1:] != codes[:-1]).any(axis=1)) + 1
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
        G = G[grp]
        if self.affine:
            z = _solve_rows(aset.matrices(1.0 / G),
                            np.broadcast_to(aset.rhs, (len(grp), aset.size)))
        else:
            z, ok = self._newton(aset, G, scale[grp])
            grp, z, G = grp[ok], z[ok], G[ok]
        a = aset.a
        xs = z[:, :a]
        worst = np.argmin(xs, axis=1)
        drop = ((xs[np.arange(len(grp)), worst] < -1e-12 * self.dscale)
                & aset.many[aset.com[worst]])
        active[grp[drop], aset.S[worst[drop]]] = False
        dropped = grp[drop]
        grp, z, G = grp[~drop], z[~drop], G[~drop]

        x = np.maximum(z[:, :a], 0.0)
        _, D, settled = self._flows(aset, x, G)
        L = z[:, a:]
        # Each commodity's candidate: its usable path of least finite delay.
        D = np.where(usable[grp] & np.isfinite(D), D, np.inf)
        added = np.zeros(len(grp), dtype=bool)
        for i, js in enumerate(self.by_com):
            best = js[np.argmin(D[:, js], axis=1)]
            best_d = D[np.arange(len(grp)), best]
            Li = L[:, i]
            # An infinite common delay admits any shorter path.
            floor = np.where(np.isinf(Li), Li, Li - 1e-10 * np.abs(Li))
            add = (best_d < floor) & ~active[grp, best]
            active[grp[add], best[add]] = True
            added |= add
        done = ~added
        res.done[grp[done]] = True
        res.L[grp[done]] = L[done]
        if res.X is not None:
            res.X[grp[done][:, None], aset.S] = x[done]
        else:  # nan where only _solve_paths can tell the value or the error
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
        if not self.affine:  # |x|^1 is |x|, so affine rows skip the power
            np.copysign(np.float_power(np.abs(De), self.n), De, out=De)
        De += self.b
        np.copyto(De, self.b, where=self.rigid | (F == 0.0))
        D = np.zeros((len(x), len(self.com)))
        for js, es in self.delay_layers:
            D[:, js] += De[:, es]
        return F, D, np.isfinite(De).all(axis=1)

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
    and a row the direct solve finds singular by least squares.  A row whose
    system is not finite gets nan and reaches no LAPACK routine."""
    ok = np.isfinite(M).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
    if not ok.all():
        z = np.full(rhs.shape, np.nan)
        z[ok] = _solve_rows(M[ok], rhs[ok], singular)
        return z
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


def _solve_paths(inst: Instance, beta: Allocation,
                 start: str = "shortest") -> EquilibriumResult | None:
    """The path engine on one allocation: its flow, path flows and common
    delays, certified by the relative gap, which forms no product of a
    demand and a delay; None when the engine leaves the row open."""
    batch = _path_batch(inst)
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
        F, D, _ = batch._flows(aset, x[None, aset.S], G)
        F, D = F[0], D[0]
        d = np.array(batch.demands)
        Lbar = np.bincount(aset.com, x[aset.S] / d[aset.com] * D[aset.S])
        least = [D[js][usable[0, js]].min() for js in batch.by_com]
        mean = float(d / batch.total @ Lbar)
        gap = float(d / batch.total @ (Lbar - least)) / mean if mean else 0.0
    if not math.isfinite(gap):
        raise ValidationError("a delay is out of floating-point range")
    f = {e.id: float(F[t]) for t, e in enumerate(inst.edges) if F[t] != 0.0}
    L = res.L[0].tolist()
    per_comm: list[dict[str, float]] = [{} for _ in inst.commodities]
    paths_out = []
    for j in aset.S:  # commodity by commodity
        w = float(x[j])
        if w > 1e-13 * d[batch.com[j]]:
            paths_out.append((batch.paths[j], w))
            cmap = per_comm[batch.com[j]]
            for eid in batch.paths[j]:
                cmap[eid] = cmap.get(eid, 0.0) + w
    flow = FlowState(edge_flow=f,
                     commodity_flows=tuple(per_comm) if len(per_comm) > 1 else None,
                     paths=tuple(paths_out))
    return EquilibriumResult(flow=flow, common_delay=tuple(L),
                             average_delay=_average(inst, L),
                             duality_gap=max(0.0, gap),
                             iterations=int(res.rounds[0]))


def _average(inst: Instance, L: list[float]) -> float:
    """The demand-weighted mean of the commodities' common delays."""
    total = sum(k.demand for k in inst.commodities)
    return sum(k.demand / total * L[i] for i, k in enumerate(inst.commodities))


def solve_equilibrium(inst: Instance, beta: Allocation | None = None,
                      tol: float = 1e-8) -> EquilibriumResult:
    """Equilibrium flow and common path delays under allocation ``beta``.

    The path engine solves it where each commodity has at most
    ``_PATH_CAP`` simple paths, and Frank-Wolfe past the cap or, with a
    RuntimeWarning, where the engine stalls.  The path engine reports the
    relative gap in delay units and Frank-Wolfe the potential's relative
    duality gap; either warns when its gap ends above ``tol``.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    beta = beta or Allocation()
    beta.validate_for(inst)
    try:
        res = _solve_paths(inst, beta)
    except PathCapExceeded:
        return _solve_frank_wolfe(inst, beta, tol)
    if res is None:
        warnings.warn("path engine stalled; Frank-Wolfe finishes",
                      RuntimeWarning)
        return _solve_frank_wolfe(inst, beta, tol)
    if res.duality_gap > tol:
        warnings.warn(f"path engine stopped at relative gap "
                      f"{res.duality_gap:.3e} > tol {tol:.3e}", RuntimeWarning)
    return res


def _solve_frank_wolfe(inst: Instance, beta: Allocation,
                       tol: float) -> EquilibriumResult:
    """Frank-Wolfe on the potential at ``beta``, for at most ``_FW_ITERS``
    steps, certified by the potential's relative duality gap."""
    g = [effective_conductance(e, beta.get(e.id)) for e in inst.edges
         if not e.rigid]
    kern = _Relaxation(inst, _flow_unit(inst.total_demand, max(g, default=1.0),
                                        min(filter(None, g), default=0.0)),
                       fixed=beta)
    x, _, gap, iterations = _frank_wolfe(kern, tol, _FW_ITERS)
    if gap > tol:
        warnings.warn(f"Frank-Wolfe stopped at relative gap {gap:.3e} > tol "
                      f"{tol:.3e} after {_FW_ITERS} iterations", RuntimeWarning)
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
                               cap: float = math.inf,
                               rows: np.ndarray | None = None) -> np.ndarray:
    """Common delay of affine parallel links, one row per allocation.

    ``c_eff`` has shape (N, m) with columns sorted by ``b`` ascending and
    rigid links removed; ``cap`` is the smallest rigid length if any.  The
    delay M_k = (d + sum g b) / sum g of the first k columns is a weighted
    mean of M_{k-1} and b_k, so it falls until the used set is complete and
    never falls again: the least prefix delay, capped, is the equilibrium.
    A single allocation is a batch of one row.  Each row is finite; inf,
    or ``cap`` with rigid links, where no column conducts; or nan where a
    column conducts but the delay is out of floating-point range.

    The scan walks the columns, contiguous when ``c_eff`` is F-ordered as
    the grid oracle builds it, with running sums over the rows that add as
    a row-wise ``cumsum`` would, and a running minimum of their delays, in
    fresh scratch or in the leading N columns of ``rows`` (5, >= N), which a
    grid search reuses block after block; the result is then a view of
    ``rows[0]``.  A delay that is inf, as where d + sum g b overflows, is
    taken again in the unit u that keeps that sum finite, if it is at least
    2^-5 there, as an overflowing sum is: then the terms that u pushes below
    the normal range do not count.
    """
    rows = np.empty((5, c_eff.shape[0])) if rows is None else rows
    L, den, num, M, t = rows[:, :c_eff.shape[0]]
    if c_eff.shape[1] == 0:
        L.fill(cap)
        return L
    u = length_unit(max(float(c_eff.max(initial=0.0)), 1.0),
                    max(float(b[-1]), d), b.size + 1)
    far = None if u == 1.0 else np.zeros((2, len(L)))  # the sums in unit u
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for k, col in enumerate(c_eff.T):
            if k:
                den += col
                num += np.multiply(col, b[k], out=t)
            else:
                np.copyto(den, col)
                np.multiply(col, b[0], out=num)
            np.divide(np.add(num, d, out=M), den, out=M)
            if far is not None:
                far[0] += np.multiply(col, b[k] / u, out=t)
                np.add(far[0], d / u, out=far[1])
                np.copyto(M, far[1] / den * u,
                          where=np.isinf(M) & (far[1] >= 2.0 ** -5))
            np.fmin(L if k else cap, M, out=L)  # a nan delay is skipped
    if not L.max(initial=0.0) < math.inf:  # den: each row's conductance
        np.copyto(L, np.nan, where=np.isinf(L) & (den > 0.0))
    return L


def _scan_layout(lengths, rigid) -> tuple[list[int], np.ndarray, float]:
    """The column layout of ``parallel_links_delay_batch`` for links, or
    whole paths, of the given lengths: the indices of the non-rigid ones
    sorted by length (ties keep their order), their lengths, and the cap,
    the shortest rigid length."""
    order = sorted((t for t, r in enumerate(rigid) if not r),
                   key=lambda t: lengths[t])
    cap = min((b for b, r in zip(lengths, rigid) if r), default=math.inf)
    return order, np.array([lengths[t] for t in order], dtype=float), cap


def dipole_delay_rows(lengths, rigid, c_eff: np.ndarray, d: float) -> np.ndarray:
    """Common delay of parallel affine links for each row of ``c_eff``.

    ``lengths`` and ``rigid`` describe the links in any order; ``c_eff`` has
    shape (N, links), and its entries for rigid links are ignored.  Puts the
    links in the column layout of ``parallel_links_delay_batch``: rigid
    links removed, the rest sorted by length (ties keep their order), and
    the delay capped at the shortest rigid length.
    """
    order, b, cap = _scan_layout(lengths, rigid)
    if order != list(range(c_eff.shape[1])):  # a gather copies c_eff
        c_eff = c_eff[:, order]
    return parallel_links_delay_batch(c_eff, b, d, cap)


def _reported(L: float, infeasible: str) -> float:
    """The scan's row ``L`` where it is finite; ValidationError where it is
    nan (out of range), Infeasible(``infeasible``) where it is inf."""
    if math.isnan(L):
        raise ValidationError("a delay is out of floating-point range")
    if math.isinf(L):
        raise Infeasible(infeasible)
    return L


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
    L = _reported(float(dipole_delay_rows(
        [e.b for e in links], [e.rigid for e in links], np.array([c_eff]),
        d)[0]), "no usable link")
    flows = [0.0] * len(links)
    residual = d
    for t, e in enumerate(links):
        if not e.rigid and c_eff[t] > 0.0 and e.b < L:
            flows[t] = c_eff[t] * (L - e.b)
            residual -= flows[t]
    if residual > 1e-12 * d:
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
