"""Brute-force ground truth: grid search over the allocation simplex.

The oracle enumerates allocations beta_e = k_e * B / R on the improvable
edges with sum k_e <= R (an explicit slack coordinate keeps under-spending
reachable, since delay monotonicity in the budget is not assumed globally),
at most ``_MAX_EVALS`` of them, evaluates the exact equilibrium delay at
every grid point and keeps the best.  Compositions come in blocks of
``_GRID_ROWS`` rows, few enough that the closed form's running sums stay in
cache, and each block is evaluated in one batch call, by the first of two
routes that applies:

* affine parallel-path graphs, affine dipoles among them as paths of one
  edge: per-path conductances from the edge-level allocation, then the
  link-major used-set scan, one column per path;
* anything else: ``path_delay_rows``, the path engine of
  ``solve_equilibrium`` on all rows at once; the rows it leaves open are
  solved by ``solve_equilibrium``.

A search owns one set of block buffers, sized for its first block: the
float allocations, the conductances in the scan's column order (sorted
non-rigid paths, so no gather copies them) and the scan's running sums and
minimum.  Every block, the last and shorter one too, works in their leading
rows, and they are freed when the search returns; fresh ones each block
would fault their pages in anew.  A path with one non-rigid edge has that
edge's g = c + mu * beta as its conductance.  Any other path's is 1 / r
with r the plain sum of 1 / g over its non-rigid edges, inf where a g is
zero, with no pad or floor.  Paths of tied length are scanned in the order
``as_parallel_paths`` gives them, by edge ids, so a dipole's tied links are
summed in edge-id order.

The grid, ``evaluate_delay`` and every replay of an argmin share that
engine, so they do not check each other.  The independent checks are
Frank-Wolfe on ``copt``'s edge kernel, which the tests compare with the
grid, and that kernel's duality gap at the path engine's flows.

Ties break toward the lexicographically smallest composition because the
generator emits compositions in lexicographic order and only strict
improvements replace the incumbent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Iterator, NamedTuple

import numpy as np

from .core import Allocation, Instance, edge_delay
from .equilibrium import (_reported, _scan_layout, parallel_links_delay_batch,
                          path_delay_rows, solve_equilibrium)
from .errors import (GridTooLarge, Infeasible, NotParallelPaths, PathCapExceeded,
                     UnsupportedDelay, ValidationError)
from .parallelpaths import as_parallel_paths

_GRID_ROWS = 16_384  # grid rows per batch, so the scan's sums stay in cache
_MAX_EVALS = 10_000_000  # grid points one search may evaluate

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

    def __post_init__(self):
        _check_count("resolution", self.resolution)


def _check_count(name: str, value) -> None:
    """A grid size must be an integer >= 1; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1")


def _check_tol(tol: float) -> None:
    if not tol > 0:
        raise ValidationError("tol must be positive")


class OracleResult(NamedTuple):
    allocation: Allocation
    delay: float
    evaluations: int


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


class _Buffers:
    """Block buffers of one closed-form route, for blocks of up to ``rows``
    rows of allocations: the conductances of the scan's columns, two
    scratch rows for ``_batch_paths`` and the scan's five float rows.
    ``order`` lists the scan's columns, the non-rigid paths sorted by
    length.  A block of n rows uses the leading n rows of each buffer, and
    the delays it returns are a view that the next block overwrites."""

    def __init__(self, lengths, rigid, demand: float, rows: int):
        self.order, self.b, self.cap = _scan_layout(lengths, rigid)
        self.demand = demand
        self.c = np.empty((rows, len(self.order)), order="F")
        self.g, self.r = np.empty((2, rows))
        self.rows = np.empty((5, rows))


def _closed_form(inst: Instance, edges, rows: int):
    """The vectorized exact delay ``batch(betas)`` of affine parallel-path
    graphs, dipoles included, column j of ``betas`` being the amount on
    ``edges[j]``, for blocks of up to ``rows`` rows; None for anything
    ``as_parallel_paths`` rejects.  The route owns its ``_Buffers``."""
    try:
        ppi = as_parallel_paths(inst)
    except (NotParallelPaths, UnsupportedDelay):
        return None
    cols = {e.id: j for j, e in enumerate(edges)}
    bufs = _Buffers([p.length for p in ppi.paths],
                    [p.profile.all_rigid for p in ppi.paths], ppi.demand, rows)
    return partial(_batch_paths, ppi.paths, cols, bufs)


def evaluate_delay(inst: Instance, alloc: Allocation, tol: float = 1e-8) -> float:
    """Equilibrium average delay under ``alloc`` via the cheapest exact route."""
    _check_tol(tol)
    improvable = inst.improvable_edges()
    batch = _closed_form(inst, improvable, 1)
    if batch is None:
        return solve_equilibrium(inst, alloc, tol=tol).average_delay
    alloc.validate_for(inst)
    L = float(batch(np.array([[alloc.get(e.id) for e in improvable]]))[0])
    return _reported(L, "no usable path")


def _batch_route(inst: Instance, edges, tol: float, rows: int):
    """``batch(betas)``: the exact delay of each row of ``betas``, column j
    being the amount on ``edges[j]``, by a closed form or the batched path
    engine, for blocks of up to ``rows`` rows."""
    return (_closed_form(inst, edges, rows)
            or partial(_batch_general, inst, tol, edges))


def _batch_general(inst: Instance, tol: float, edges, betas: np.ndarray
                   ) -> np.ndarray:
    """Exact delay of each row by the batched path engine.

    The rows it leaves open, and every row when a commodity has more simple
    paths than the engine's cap, are solved one by one by
    ``solve_equilibrium``, whose errors pass through.  The budget is
    checked first for the whole block, as ``solve_equilibrium`` checks it
    per allocation; the callers have checked ``tol`` and the edges."""
    total = np.zeros(len(betas))
    for j in range(betas.shape[1]):  # Allocation.total's order
        total += betas[:, j]
    over = np.flatnonzero(total > inst.budget + 1e-9 * inst.budget)
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


def _batch_paths(paths, cols, bufs: _Buffers, betas: np.ndarray) -> np.ndarray:
    """Delay of an affine parallel-path graph for each row: the scan over
    path conductances, g = c + mu * beta for a path with one non-rigid edge
    and otherwise 1 / r for the resistance r = sum 1 / g over its non-rigid
    edges, which is positive, as instance validation bounds every g.  A
    zero g, or one whose reciprocal overflows, adds inf to r: no flow."""
    n = len(betas)
    g, r = bufs.g[:n], bufs.r[:n]
    with np.errstate(divide="ignore", over="ignore"):
        for k, t in enumerate(bufs.order):
            col = bufs.c[:n, k]
            edges = [e for e in paths[t].edges if not e.rigid]
            if len(edges) == 1:  # its g is the path's conductance
                e, j = edges[0], cols.get(edges[0].id)
                if j is None:
                    col.fill(e.c)
                else:
                    np.add(np.multiply(betas[:, j], e.mu, out=col), e.c,
                           out=col)
                continue
            acc = 0.0  # r, a float until an edge's amount varies by row
            for e in edges:
                j = cols.get(e.id)
                if j is None:
                    x = 1.0 / e.c if e.c > 0.0 else math.inf
                else:
                    np.add(np.multiply(betas[:, j], e.mu, out=g), e.c, out=g)
                    x = np.divide(1.0, g, out=g)
                if acc is r or isinstance(x, float):
                    acc += x
                else:
                    acc = np.add(x, acc, out=r)
            if acc is r:
                np.divide(1.0, r, out=col)
            else:
                col.fill(1.0 / acc)
    return parallel_links_delay_batch(bufs.c[:n], bufs.b, bufs.demand,
                                      bufs.cap, bufs.rows)


def grid_search(inst: Instance, spec: GridSpec,
                tol: float = 1e-8) -> OracleResult:
    """Best allocation on the simplex grid {k * B / R : sum k <= R} over
    the improvable edges, of at most ``_MAX_EVALS`` points."""
    _check_tol(tol)
    improvable = inst.improvable_edges()
    R = spec.resolution
    if inst.budget == 0.0 or not improvable:
        alloc = Allocation()
        return OracleResult(alloc, evaluate_delay(inst, alloc, tol), 1)
    parts = len(improvable) + 1  # slack coordinate allows under-spending
    n_evals = count_compositions(R, parts)
    if n_evals > _MAX_EVALS:
        r_ok = R
        while r_ok > 1 and count_compositions(r_ok, parts) > _MAX_EVALS:
            r_ok = r_ok * 3 // 4
        raise GridTooLarge(
            f"grid needs {n_evals} evaluations (cap {_MAX_EVALS}); "
            f"try resolution <= {r_ok}")

    # The float allocations' buffer is here, the route's in its batch.
    rows = min(_GRID_ROWS, n_evals)
    batch = _batch_route(inst, improvable, tol, rows)
    betas_buf = np.empty((rows, len(improvable)), order="F")
    best_L, best_row, seen, out_of_range = math.inf, None, 0, False
    for block in compositions(R, parts, _GRID_ROWS):
        betas = np.multiply(block[:, :-1], inst.budget / R,
                            out=betas_buf[:len(block)])
        ls = batch(betas)
        seen += len(betas)
        idx = int(np.argmin(ls))  # the first nan, where there is one
        if math.isnan(ls[idx]):  # skip the rows out of range
            out_of_range = True
            idx = int(np.argmin(np.where(np.isnan(ls), math.inf, ls)))
        if ls[idx] < best_L:
            best_L, best_row = float(ls[idx]), betas[idx].copy()
    if best_row is None:  # no finite row
        _reported(math.nan if out_of_range else math.inf,
                  "no grid allocation admits a feasible routing")
    alloc = Allocation({e.id: float(best_row[j])
                        for j, e in enumerate(improvable) if best_row[j] > 0.0})
    return OracleResult(alloc, best_L, seen)


def sweep_segment(inst: Instance, beta_from: Allocation, beta_to: Allocation,
                  steps: int, tol: float = 1e-8) -> list[tuple[float, float]]:
    """Delay along the line segment between two allocations."""
    _check_count("steps", steps)
    _check_tol(tol)
    beta_from.validate_for(inst)
    beta_to.validate_for(inst)
    keys = sorted(set(beta_from.beta) | set(beta_to.beta))
    lams = [i / steps for i in range(steps + 1)]
    betas = np.array([[(1.0 - lam) * beta_from.get(k) + lam * beta_to.get(k)
                       for k in keys] for lam in lams]).reshape(len(lams), len(keys))
    ls = _batch_route(inst, [inst.edge_index[k] for k in keys], tol,
                      len(betas))(betas)
    _reported(float(ls.max()), "no usable path")  # nan first: out of range
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
