"""Brute-force ground truth: grid search over the allocation simplex.

The oracle enumerates allocations beta_e = k_e * B / R with sum k_e <= R
(an explicit slack coordinate keeps under-spending reachable, since delay
monotonicity in the budget is not assumed globally), evaluates the exact
equilibrium delay at every grid point and keeps the best.  Compositions
come in blocks of ``_GRID_ROWS`` rows, few enough that the closed form's
running sums stay in cache, and each block is evaluated in one batch call,
by the first route that applies:

* affine dipoles: the link-major used-set scan, one column per link;
* affine parallel-path graphs: per-path conductances from the edge-level
  allocation, then the same scan at path level;
* anything else: ``path_delay_rows``, the path engine of
  ``solve_equilibrium`` on all rows at once; the rows it leaves open are
  solved by ``solve_equilibrium``.

The grid, ``evaluate_delay`` and every replay of an argmin share that
engine, so they do not check each other.  The independent checks are
``solve_equilibrium``'s certificate (the Beckmann potential against a
Dijkstra lower bound) and Frank-Wolfe, which the tests compare with the
grid.

Ties break toward the lexicographically smallest composition because the
generator emits compositions in lexicographic order and only strict
improvements replace the incumbent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .core import Allocation, Instance
from .equilibrium import (_in_range, dipole_delay_rows, dipole_links,
                          path_delay_rows, solve_equilibrium)
from .errors import (GridTooLarge, Infeasible, NotParallelPaths, PathCapExceeded,
                     UnsupportedDelay, ValidationError)
from .parallelpaths import as_parallel_paths

_GRID_ROWS = 16_384  # grid rows per batch, so the scan's sums stay in cache

__all__ = [
    "GridSpec",
    "OracleResult",
    "grid_search",
    "sweep_segment",
    "evaluate_delay",
    "compositions",
    "count_compositions",
    "enumerate_discretized_minmax",
]


@dataclass(frozen=True)
class GridSpec:
    resolution: int
    max_evals: int = 10_000_000
    improvable: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.resolution < 1:
            raise ValidationError("resolution must be >= 1")
        if self.max_evals < 1:
            raise ValidationError("max_evals must be >= 1")


class OracleResult(NamedTuple):
    allocation: Allocation
    delay: float
    evaluations: int
    trace: list[tuple[dict, float]] | None


def count_compositions(total: int, parts: int) -> int:
    return comb(total + parts - 1, parts - 1)


def compositions(total: int, parts: int, chunk: int = 200_000
                 ) -> Iterator[np.ndarray]:
    """Nonnegative integer vectors summing to ``total``, lexicographically.

    Yields int32 arrays of shape (N, parts), at most ``chunk`` rows each and
    the same rows in the same order at any ``chunk``: whole first coordinates,
    a first coordinate with more rows split the same way by the second.  A
    row with remainder r expands into r + 1 rows, one column at a time.
    """
    if parts == 1:
        yield np.array([[total]], dtype=np.int32)
        return
    sizes = [count_compositions(total - v, parts - 1) for v in range(total + 1)]
    v = 0
    while v <= total:
        if sizes[v] > chunk:
            for block in compositions(total - v, parts - 1, chunk):
                yield np.hstack([np.full((len(block), 1), v, np.int32), block])
            v += 1
            continue
        end, rows = v, 0
        while end <= total and rows + sizes[end] <= chunk:
            rows += sizes[end]
            end += 1
        cols = [np.arange(v, end)]
        rest = total - cols[0]
        for _ in range(parts - 2):
            counts = rest + 1
            cols = [np.repeat(c, counts) for c in cols]
            cols.append(np.arange(len(cols[0]))
                        - np.repeat(np.cumsum(counts) - counts, counts))
            rest = np.repeat(rest, counts) - cols[-1]
        yield np.array(cols + [rest], dtype=np.int32).T
        v = end


def _improvable_edges(inst: Instance, spec: GridSpec):
    if spec.improvable is not None:
        out = []
        for eid in spec.improvable:
            e = inst.edge_index.get(eid)
            if e is None:
                raise ValidationError(f"unknown edge {eid!r} in grid spec")
            if e.rigid:
                raise ValidationError(f"rigid edge {eid!r} cannot be improved")
            out.append(e)
        return out
    return [e for e in inst.edges if e.improvable]


def _closed_form(inst: Instance):
    """The vectorized exact delay ``batch(edges, betas)`` for affine
    dipoles and affine parallel-path graphs, or None for anything else."""
    if not all(e.affine for e in inst.edges):
        return None
    if dipole_links(inst) is not None:
        return partial(_batch_dipole, inst)
    if inst.single_commodity:
        try:
            return partial(_batch_paths, as_parallel_paths(inst))
        except (NotParallelPaths, UnsupportedDelay):
            pass
    return None


def evaluate_delay(inst: Instance, alloc: Allocation, tol: float = 1e-8) -> float:
    """Equilibrium average delay under ``alloc`` via the cheapest exact route."""
    batch = _closed_form(inst)
    if batch is None:
        return solve_equilibrium(inst, alloc, tol=tol).average_delay
    alloc.validate_for(inst)
    improvable = inst.improvable_edges()
    L = float(batch(improvable,
                    np.array([[alloc.get(e.id) for e in improvable]]))[0])
    if math.isinf(L):
        raise Infeasible("no usable path")
    return L


def _batch_route(inst: Instance, tol: float):
    """``batch(edges, betas)``: the exact delay of each row of ``betas``,
    column j being the amount on ``edges[j]``, by a closed form or the
    batched path engine."""
    return _closed_form(inst) or partial(_batch_general, inst, tol)


def _batch_general(inst: Instance, tol: float, edges, betas: np.ndarray
                   ) -> np.ndarray:
    """Exact delay of each row by the batched path engine.

    The rows it leaves open, and every row when a commodity has more simple
    paths than the engine's cap, are solved one by one by
    ``solve_equilibrium``, whose errors pass through.  ``tol`` and the
    budget are checked first for the whole block, as ``solve_equilibrium``
    checks them per allocation; the callers have checked the edges."""
    if not tol > 0:
        raise ValidationError("tol must be positive")
    total = np.zeros(len(betas))
    for j in range(betas.shape[1]):  # Allocation.total's order
        total += betas[:, j]
    over = np.flatnonzero(total > inst.budget + 1e-9 * max(1.0, inst.budget))
    if over.size:
        _allocation(edges, betas[over[0]]).validate_for(inst)
    try:
        ls = path_delay_rows(inst, edges, betas)
    except PathCapExceeded:
        ls = np.full(len(betas), np.nan)
    for r in np.flatnonzero(np.isnan(ls)):
        try:
            ls[r] = solve_equilibrium(inst, _allocation(edges, betas[r]),
                                      tol=tol).average_delay
        except Infeasible:
            ls[r] = math.inf
    return ls


def _allocation(edges, row: np.ndarray) -> Allocation:
    return Allocation({e.id: row[j] for j, e in enumerate(edges)})


def _batch_dipole(inst: Instance, improvable, betas: np.ndarray) -> np.ndarray:
    links = inst.edges
    c_eff = np.tile([[e.c] for e in links], len(betas)).T  # F-ordered
    for j, e in enumerate(improvable):
        c_eff[:, links.index(e)] += e.mu * betas[:, j]
    return _in_range(dipole_delay_rows([e.b for e in links],
                                       [e.rigid for e in links], c_eff,
                                       inst.commodities[0].demand), c_eff)


def _batch_paths(ppi, improvable, betas: np.ndarray) -> np.ndarray:
    beta_of = {e.id: betas[:, j] for j, e in enumerate(improvable)}
    # Dropped (permanently unusable) paths carry no flow at any grid point.
    c_mat = np.zeros((betas.shape[0], len(ppi.paths)), order="F")
    with np.errstate(divide="ignore"):
        for col, p in enumerate(ppi.paths):
            r = 0.0
            for e in p.edges:
                if not e.rigid:
                    g = e.c + e.mu * beta_of.get(e.id, 0.0)
                    r = r + np.where(g > 0.0, 1.0 / np.maximum(g, 1e-300),
                                     np.inf)
            c_mat[:, col] = np.where(np.isfinite(r),
                                     1.0 / np.maximum(r, 1e-300), 0.0)
    return _in_range(dipole_delay_rows([p.length for p in ppi.paths],
                                       [p.profile.all_rigid for p in ppi.paths],
                                       c_mat, ppi.demand), c_mat)


def grid_search(inst: Instance, spec: GridSpec, tol: float = 1e-8,
                keep_trace: bool = False) -> OracleResult:
    """Best allocation on the simplex grid {k * B / R : sum k <= R}."""
    improvable = _improvable_edges(inst, spec)
    R = spec.resolution
    if inst.budget == 0.0 or not improvable:
        alloc = Allocation()
        return OracleResult(alloc, evaluate_delay(inst, alloc, tol), 1, None)
    parts = len(improvable) + 1  # slack coordinate allows under-spending
    n_evals = count_compositions(R, parts)
    if n_evals > spec.max_evals:
        r_ok = R
        while r_ok > 1 and count_compositions(r_ok, parts) > spec.max_evals:
            r_ok = r_ok * 3 // 4
        raise GridTooLarge(
            f"grid needs {n_evals} evaluations (cap {spec.max_evals}); "
            f"try resolution <= {r_ok}")

    batch = _batch_route(inst, tol)
    best_L, best_row, seen = math.inf, None, 0
    trace: list[tuple[dict, float]] | None = [] if keep_trace else None
    for block in compositions(R, parts, _GRID_ROWS):
        betas = np.multiply(block[:, :-1], inst.budget / R, order="F")
        ls = batch(improvable, betas)
        seen += len(betas)
        if trace is not None:
            trace += [({e.id: float(v) for e, v in zip(improvable, row)},
                       float(L)) for row, L in zip(betas, ls)]
        idx = int(np.argmin(ls))
        if ls[idx] < best_L:
            best_L, best_row = float(ls[idx]), betas[idx].copy()
    if best_row is None or not math.isfinite(best_L):
        raise Infeasible("no grid allocation admits a feasible routing")
    alloc = Allocation({e.id: float(best_row[j])
                        for j, e in enumerate(improvable) if best_row[j] > 0.0})
    return OracleResult(alloc, best_L, seen, trace)


def sweep_segment(inst: Instance, beta_from: Allocation, beta_to: Allocation,
                  steps: int, tol: float = 1e-8) -> list[tuple[float, float]]:
    """Delay along the line segment between two allocations."""
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    beta_from.validate_for(inst)
    beta_to.validate_for(inst)
    keys = sorted(set(beta_from.beta) | set(beta_to.beta))
    lams = [i / steps for i in range(steps + 1)]
    betas = np.array([[(1.0 - lam) * beta_from.get(k) + lam * beta_to.get(k)
                       for k in keys] for lam in lams]).reshape(len(lams), len(keys))
    ls = _batch_route(inst, tol)([inst.edge_index[k] for k in keys], betas)
    if np.isinf(ls).any():
        raise Infeasible("no usable path")
    return list(zip(lams, ls.tolist()))


# ---------------------------------------------------------------------------
# Exhaustive reference for the discretized min-max table


def enumerate_discretized_minmax(inst: Instance, K: int) -> np.ndarray:
    """Table T[k, l] = min over discretized allocations of total k * B/K and
    discretized flows of value l * d/K of the maximum delay over paths whose
    every edge carries positive flow.

    Pure enumeration over edge-budget compositions and path-flow
    compositions; intended as an independent reference for the dynamic
    program on small graphs (a handful of edges, K of a few units).
    """
    if not inst.single_commodity:
        raise ValidationError("single-commodity instances only")
    from .core import edge_delay

    k0 = inst.commodities[0]
    paths = inst.simple_paths(k0.source, k0.sink, cap=64)
    edges = inst.edges
    m = len(edges)
    d_unit = k0.demand / K
    b_unit = inst.budget / K

    table = np.zeros((K + 1, K + 1))
    alloc_rows = {k: np.vstack(list(compositions(k, m))) for k in range(K + 1)}
    flow_rows = {l: np.vstack(list(compositions(l, len(paths))))
                 for l in range(K + 1)}

    for k in range(K + 1):
        for l in range(K + 1):
            if l == 0:
                table[k, l] = 0.0
                continue
            best = math.inf
            for arow in alloc_rows[k]:
                beta = {e.id: float(arow[j]) * b_unit for j, e in enumerate(edges)}
                for frow in flow_rows[l]:
                    f: dict[str, float] = {}
                    for pj, units in enumerate(frow):
                        if units == 0:
                            continue
                        for eid in paths[pj]:
                            f[eid] = f.get(eid, 0.0) + float(units) * d_unit
                    worst = -math.inf
                    for p in paths:
                        if all(f.get(eid, 0.0) > 0.0 for eid in p):
                            dl = sum(edge_delay(inst.edge_index[eid], f[eid],
                                                beta[eid]) for eid in p)
                            worst = max(worst, dl)
                    if worst == -math.inf:
                        continue
                    best = min(best, worst)
            table[k, l] = best
    return table
