"""Brute-force ground truth: grid search over the allocation simplex.

The oracle enumerates allocations beta_e = k_e * B / R on the improvable
edges with sum k_e <= R (an explicit slack coordinate keeps under-spending
reachable, since delay monotonicity in the budget is not assumed globally),
at most ``_MAX_EVALS`` of them, evaluates the exact equilibrium delay at
every grid point and keeps the best.  Each route hands the grid over in
blocks of at most ``_GRID_ROWS`` rows, few enough that the scan's running
sums stay in cache:

* affine parallel-path graphs, affine dipoles among them as paths of one
  edge: the closed form, ``_Paths``.  Per-path conductances come from the
  edge-level allocation, then the link-major used-set scan, one
  ``_Scan.step`` per path.  Its grid is enumerated in two levels: the scan
  columns that a prefix of the coordinates fixes are summed once per
  prefix, and the coordinate of the edge the scan meets last is broadcast
  over the rows that share them (``_Paths.grid``);
* anything else: ``compositions`` in lexicographic order through
  ``path_delay_rows``, the path engine of ``solve_equilibrium`` on all rows
  at once, which finishes the rows the engine leaves open.

A path with one non-rigid edge has that edge's g = c + mu * beta as its
conductance.  Any other path's is 1 / r with r the plain sum of 1 / g over
its non-rigid edges in path order, inf where a g is zero, with no pad or
floor.  Paths of tied length are scanned in the order ``as_parallel_paths``
gives them, by edge ids, so a dipole's tied links are summed in edge-id
order.  The closed form's grid, ``evaluate_delay`` and ``sweep_segment``
share that arithmetic and the scan step, so they do not check each other.
``evaluate_delay`` and ``sweep_segment`` read their rows through the route
the grid takes, so on either route a grid row's delay is the float
``evaluate_delay`` gives its allocation, short of a length unit above 1 on
the closed form's.  A row is finite; inf where a commodity has no usable
path; or nan where it is out of floating-point range, and the search skips
it.  The independent checks are Frank-Wolfe on ``copt``'s edge kernel,
which the tests compare with the grid, and that kernel's duality gap at the
path engine's flows.

Ties break toward the lexicographically smallest composition: ``_offer``
keeps a block's least delay where it is below the incumbent's, or equal and
its lexicographically first row comes first, whatever order the route
visits the grid in.
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
from .equilibrium import (_reported, _Scan, _scan_layout, length_unit,
                          parallel_links_delay_batch, path_delay_rows)
# bench/tracing.py wraps the solver at this name; the oracle calls none.
from .equilibrium import solve_equilibrium as solve_equilibrium
from .errors import (GridTooLarge, NotParallelPaths, UnsupportedDelay,
                     ValidationError)
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


def _check_count(name: str, value, least: int = 1) -> None:
    """A count must be an integer >= ``least``; a bool is not taken for one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be >= {least}")


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


def _closed_form(inst: Instance, edges) -> _Paths | None:
    """The closed form of affine parallel-path graphs, dipoles included,
    with amounts on ``edges``; None for anything ``as_parallel_paths``
    rejects."""
    try:
        ppi = as_parallel_paths(inst)
    except (NotParallelPaths, UnsupportedDelay):
        return None
    return _Paths(ppi, edges)


def _rows(inst: Instance, edges, tol: float):
    """The delays of rows of amounts on ``edges``: the closed form's
    ``_Paths.delays``, or else ``path_delay_rows`` at ``tol``."""
    route = _closed_form(inst, edges)
    if route is None:
        return partial(path_delay_rows, inst, edges, tol=tol)
    return route.delays


def evaluate_delay(inst: Instance, alloc: Allocation, tol: float = 1e-8) -> float:
    """Equilibrium average delay under ``alloc`` via the cheapest exact route."""
    _check_tol(tol)
    alloc.validate_for(inst)
    improvable = inst.improvable_edges()
    row = np.array([[alloc.get(e.id) for e in improvable]])
    L = float(_rows(inst, improvable, tol)(row)[0])
    return _reported(L, "no usable path")


def _g(e, beta):
    """An edge's conductance c + mu * beta, its c where ``beta`` is None."""
    return e.c if beta is None else beta * e.mu + e.c


def _unfunded(e) -> None:
    """The amount on an edge that no coordinate funds: none."""
    return None


def _resistance(edges, amount, r=0.0):
    """``r`` plus 1 / g of each edge in turn, a float until an edge's
    ``amount(e)`` is an array over rows, then an array, added to in place.
    A zero g, or one whose reciprocal overflows, adds inf: no flow."""
    for e in edges:
        beta = amount(e)
        if beta is None:
            r += 1.0 / e.c if e.c > 0.0 else math.inf
            continue
        x = _g(e, beta)
        x = np.divide(1.0, x, out=x)
        r = (np.add(x, r, out=x) if isinstance(r, float)
             else np.add(r, x, out=r))
    return r


def _conductance(free, amount):
    """A path's conductance from its non-rigid edges ``free``: the g of a
    lone one, else 1 / r for the resistance r, which is positive, as
    instance validation bounds every g."""
    if len(free) == 1:
        return _g(free[0], amount(free[0]))
    return 1.0 / _resistance(free, amount)


class _Paths:
    """The delay of an affine parallel-path graph under amounts on
    ``edges``: the used-set scan over the path conductances, one column per
    non-rigid path in the order of ``_scan_layout``."""

    def __init__(self, ppi, edges):
        order, self.b, self.cap = _scan_layout(
            [p.length for p in ppi.paths],
            [p.profile.all_rigid for p in ppi.paths])
        self.demand = ppi.demand
        self.free = [[e for e in ppi.paths[t].edges if not e.rigid]
                     for t in order]
        self.cols = {e.id: j for j, e in enumerate(edges)}

    def delays(self, betas: np.ndarray) -> np.ndarray:
        """The delay of each row of ``betas``, column j the amount on
        ``edges[j]``."""
        def amount(e):
            j = self.cols.get(e.id)
            return None if j is None else betas[:, j]
        c = np.empty((len(betas), len(self.free)), order="F")
        with np.errstate(divide="ignore", over="ignore"):
            for k, free in enumerate(self.free):
                c[:, k] = _conductance(free, amount)
        return parallel_links_delay_batch(c, self.b, self.demand, self.cap)

    def grid(self, R: int, step: float):
        """Blocks of the delays of the grid {k * step : sum k <= R} over
        ``edges``, each with ``coords(rows)``, the k of the given rows.

        The broadcast edge is the edge of ``edges`` that the scan meets
        last: last in column order, then in path order.  Every other
        coordinate comes from ``compositions``, whose rows, with the
        remainder R - spent last, are prefix rows: the columns before the
        broadcast edge's, and the resistance of its path's edges before it,
        are summed once per prefix row.  Each prefix row then expands, by
        ``np.repeat``, into its R - spent + 1 children, k = 0..R - spent on
        the broadcast edge.  The children are cut into blocks of
        ``_GRID_ROWS``, the last one shorter, so a prefix row may be split
        by k across blocks, and every block's arrays are bounded by
        ``_GRID_ROWS`` rows, as are the prefix blocks.  A child takes
        the broadcast edge's g, or 1 / g, from a table over k = 0..R, and
        the remaining columns, which no coordinate funds, run on the
        children.  So every row goes through the float operations of
        ``delays`` in their order, in one length unit per search, from the
        largest conductance any row can have."""
        m, p, cols = len(self.free), len(self.cols), self.cols
        cb, at, jb = m, 0, p - 1  # no column funded: the last one broadcasts
        for k in reversed(range(m)):
            hits = [i for i, e in enumerate(self.free[k]) if e.id in cols]
            if hits:
                cb, at, jb = k, hits[-1], cols[self.free[k][hits[-1]].id]
                break
        pos = {eid: j - (j > jb) for eid, j in cols.items() if j != jb}
        tab = np.multiply(np.arange(R + 1), step)
        head, tail, lone = [], [], True
        with np.errstate(divide="ignore", over="ignore"):
            top = [np.max(_conductance(free, lambda e: tab[-1:]
                                       if e.id in cols else None))
                   for free in self.free]
            if cb < m:
                free = self.free[cb]
                head, tail, lone = free[:at], free[at + 1:], len(free) == 1
                table = _g(free[at], tab) if lone else 1.0 / _g(free[at], tab)
            consts = [_conductance(free, _unfunded)
                      for free in self.free[cb + 1:]]
        b, d = self.b, self.demand
        u = length_unit(max(max(top), 1.0), max(float(b[-1]), d),
                        m + 1) if m else 1.0
        # The children's buffers, which every block of children reuses.
        n = min(_GRID_ROWS, count_compositions(R, p + 1))
        kid_rows = np.empty((5 if u == 1.0 else 6, n))
        col_buf, acc_buf = np.empty((2, n))
        ramp = np.arange(n)
        for block in compositions(R, p, _GRID_ROWS):
            betas = np.multiply(block[:, :-1], step)

            def amount(e):
                j = pos.get(e.id)
                return None if j is None else betas[:, j]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                pre = _Scan.start(len(block), self.cap, u)
                for k in range(cb):
                    pre.step(_conductance(self.free[k], amount), b[k], d)
                r = _resistance(head, amount)
            ends = np.cumsum(block[:, -1] + np.int64(1))
            starts = ends - block[:, -1] - 1
            for lo in range(0, int(ends[-1]), _GRID_ROWS):
                hi = min(lo + _GRID_ROWS, int(ends[-1]))
                first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
                span = slice(first, last + 1)
                counts = (np.minimum(ends[span], hi)
                          - np.maximum(starts[span], lo))
                idx = np.repeat(np.arange(first, last + 1), counts)
                size = hi - lo
                with np.errstate(over="ignore", divide="ignore",
                                 invalid="ignore"):
                    kids = pre.take(idx, kid_rows)
                    if cb < m:
                        k = np.repeat(starts[span] - lo, counts)
                        k = np.subtract(ramp[:size], k, out=k)
                        col = np.take(table, k, out=col_buf[:size],
                                      mode="clip")
                        if not lone:
                            acc = acc_buf[:size]
                            if isinstance(r, float):
                                np.add(col, r, out=acc)
                            else:
                                np.add(np.take(r, idx, out=acc, mode="clip"),
                                       col, out=acc)
                            np.divide(1.0, _resistance(tail, _unfunded, acc),
                                      out=col)
                        kids.step(col, b[cb], d)
                        for j, c in enumerate(consts, cb + 1):
                            kids.step(c, b[j], d)
                    ls = kids.delays()
                yield ls, partial(_child_coords, block, ends, jb, lo)


def _child_coords(block, ends, jb: int, lo: int, rows: np.ndarray
                  ) -> np.ndarray:
    """The grid coordinates of rows ``rows`` of the children block from
    flat position ``lo`` of the prefix ``block``: the prefix row's own,
    with the broadcast coordinate inserted at ``jb``."""
    q = lo + rows
    at = np.searchsorted(ends, q, side="right")
    prefix = block[at]
    k = q - (ends[at] - prefix[:, -1] - 1)
    return np.concatenate((prefix[:, :jb], k[:, None], prefix[:, jb:-1]),
                          axis=1)


def _general_grid(inst: Instance, edges, tol: float, R: int):
    """Blocks of the delays of the grid over ``edges`` through the batched
    path engine, in lexicographic order, each with ``coords(rows)``."""
    rows = min(_GRID_ROWS, count_compositions(R, len(edges) + 1))
    betas_buf = np.empty((rows, len(edges)), order="F")
    for block in compositions(R, len(edges) + 1, _GRID_ROWS):
        betas = np.multiply(block[:, :-1], inst.budget / R,
                            out=betas_buf[:len(block)])
        yield (path_delay_rows(inst, edges, betas, tol),
               block[:, :-1].__getitem__)


def _offer(best, ls: np.ndarray, coords):
    """The incumbent (delay, grid coordinates, whether a row was out of
    range) after a block of delays ``ls``, ``coords(rows)`` giving the grid
    coordinates of the given rows.  The block's least delay, nan rows
    skipped, replaces the incumbent's where it is lower, or equal and its
    lexicographically first row comes before the incumbent's."""
    L, k, out_of_range = best
    idx = int(np.argmin(ls))  # the first nan, where there is one
    if math.isnan(ls[idx]):
        out_of_range = True
        ls = np.where(np.isnan(ls), math.inf, ls)
        idx = int(np.argmin(ls))
    least = float(ls[idx])
    if least < L or least == L and k is not None:
        ks = coords(np.flatnonzero(ls == least))
        for j in range(ks.shape[1] if len(ks) > 1 else 0):
            ks = ks[ks[:, j] == ks[:, j].min()]  # lexicographically first
        first = tuple(ks[0].tolist())
        if least < L or first < k:
            L, k = least, first
    return L, k, out_of_range


def grid_search(inst: Instance, spec: GridSpec,
                tol: float = 1e-8) -> OracleResult:
    """Best allocation on the simplex grid {k * B / R : sum k <= R} over
    the improvable edges, of at most ``_MAX_EVALS`` points: the least
    delay, at its lexicographically first k."""
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

    route = _closed_form(inst, improvable)
    blocks = (_general_grid(inst, improvable, tol, R) if route is None
              else route.grid(R, inst.budget / R))
    best, seen = (math.inf, None, False), 0
    for ls, coords in blocks:
        best = _offer(best, ls, coords)
        seen += len(ls)
    best_L, best_k, out_of_range = best
    if best_k is None:  # no finite row
        _reported(math.nan if out_of_range else math.inf,
                  "no grid allocation admits a feasible routing")
    row = np.multiply(best_k, inst.budget / R)
    alloc = Allocation({e.id: float(row[j])
                        for j, e in enumerate(improvable) if row[j] > 0.0})
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
    edges = [inst.edge_index[k] for k in keys]
    ls = _rows(inst, edges, tol)(betas)
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
    if paths is None:
        raise ValidationError("more than 64 simple paths to enumerate")
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
