"""Exact optimal budget allocation on parallel-path graphs with affine delays.

Structure: the graph is a union of internally disjoint source-sink paths.
With affine delays the common equilibrium delay over a used path set S is

    L = (d + sum_S c_p b_p) / sum_S c_p

where b_p is the path length and c_p the path conductance (reciprocal sum of
edge resistances).  The optimizer works at three levels:

1.  Within a path, a fixed path budget is split across edges to maximize
    c_p.  The KKT condition equalizes mu_a / (c_a + mu_a beta_a)^2 across
    funded edges, i.e. funded edges share a common level t with effective
    conductance t * sqrt(mu_a); this is classic water-filling with
    activation thresholds c_a / sqrt(mu_a).  The resulting c_p(budget) is a
    piecewise-smooth concave profile with closed-form value and derivative
    on each segment.

2.  Across paths, the subproblem "maximize sum_p w_p c_p(beta_p) subject to
    sum beta_p = budget" (the inner program of the optimal algorithm, with
    w_p = Lbar - b_p) is again water-filling, now on the weighted marginal
    w_p c_p'(beta_p).  Candidate marginal levels are segment boundaries, so
    the exact level solves in closed form inside a bracket; paths whose
    profile turns linear (zero residual resistance) act as flat sinks that
    absorb leftover budget at their constant marginal.

3.  The optimum minimizes the equilibrium delay L(beta), the least prefix
    delay over the paths sorted by length, over allocations of the whole
    budget.  The minima over allocations and over prefixes commute, so the
    optimum is the least of the prefixes' minimized delays, and one
    Dinkelbach iteration (Management Science 13(7), 1967) on L itself
    finds it.  At Lbar, Dinkelbach's subproblem over (allocation, prefix)
    keeps exactly the paths shorter than Lbar, which the inner program's
    weights (Lbar - b_p)^+ over all paths already do; its solution has
    delay L <= Lbar.  Lbar starts at L(0) and moves to that delay until it
    stops falling, so no window test picks the prefix.

Only affine (n = 1) edges are supported; rigid edges inside a path
contribute length but no resistance, and a path of rigid edges alone caps
the delay at its length, which no allocation changes.  Paths that are
permanently unusable (a zero-conductance edge that no budget can improve)
are dropped from the optimization.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import Allocation, Edge, Instance
from .errors import NotParallelPaths, UnsupportedDelay, ValidationError
from .equilibrium import _reported, dipole_delay_rows

__all__ = [
    "PathSpec",
    "ParallelPathsInstance",
    "as_parallel_paths",
    "max_path_conductance",
    "solve_parallel_paths",
    "best_single_edge_allocation",
    "paths_delay",
]


class _Segment(NamedTuple):
    lo: float     # path budget at which this active set begins
    S: float      # sum of 1/sqrt(mu) over active edges
    C: float      # sum of c/mu over active edges
    R: float      # resistance of everything not active (rigid excluded)
    active: int   # number of active improvable edges


class _Profile:
    """Piecewise closed form for a path's max conductance vs. budget."""

    def __init__(self, edges: Sequence[Edge]):
        self.improvable = sorted(
            (e for e in edges if e.improvable),
            key=lambda e: (e.c / math.sqrt(e.mu), e.id))
        r_fix = 0.0
        self.dead = False
        for e in edges:
            if e.rigid or e.improvable:
                continue
            if e.c == 0.0:
                self.dead = True
            else:
                r_fix += 1.0 / e.c
        self.fixed_resistance = r_fix
        self.all_rigid = not self.improvable and r_fix == 0.0 and not self.dead

        self.segments: list[_Segment] = []
        if self.dead or not self.improvable:
            return
        thresholds = [e.c / math.sqrt(e.mu) for e in self.improvable]
        suffix_r = [0.0] * (len(self.improvable) + 1)
        for k in range(len(self.improvable) - 1, -1, -1):
            e = self.improvable[k]
            suffix_r[k] = suffix_r[k + 1] + (1.0 / e.c if e.c > 0.0 else math.inf)
        S = C = 0.0
        for k, e in enumerate(self.improvable):
            S += 1.0 / math.sqrt(e.mu)
            C += e.c / e.mu
            lo = max(0.0, thresholds[k] * S - C)
            hi = thresholds[k + 1] * S - C if k + 1 < len(thresholds) else math.inf
            if hi <= lo:
                continue
            self.segments.append(_Segment(lo, S, C, r_fix + suffix_r[k + 1], k + 1))
        self._los = [s.lo for s in self.segments]

    def _segment(self, budget: float) -> _Segment:
        return self.segments[max(0, bisect_right(self._los, budget) - 1)]

    def conductance(self, budget: float) -> float:
        if self.dead:
            return 0.0
        if self.all_rigid:
            return math.inf
        if budget <= 0.0 or not self.segments:
            r = self.fixed_resistance
            for e in self.improvable:
                if e.c == 0.0:
                    return 0.0
                r += 1.0 / e.c
            return 1.0 / r if r > 0.0 else math.inf
        seg = self._segment(budget)
        u = budget + seg.C
        r = seg.R + seg.S * seg.S / u
        if r == math.inf and u > 0.0:  # 1 / r underflows: g is subnormal
            return u / (seg.S * seg.S + seg.R * u)
        return 1.0 / r if r > 0.0 else math.inf

    def marginal(self, budget: float) -> float:
        """d conductance / d budget (right derivative at segment starts)."""
        if self.dead or self.all_rigid or not self.segments:
            return 0.0
        budget = max(budget, 0.0)
        seg = self._segment(budget)
        u = budget + seg.C
        q = seg.S / (u * seg.R + seg.S * seg.S)
        return q * q

    def budget_for_marginal(self, level: float) -> float:
        """Largest budget whose marginal still exceeds ``level``.

        Returns 0 when even the first unit of budget earns less than
        ``level`` and inf when a flat (linear) tail earns at least it
        forever.
        """
        if self.dead or self.all_rigid or not self.segments:
            return 0.0
        if level <= 0.0:
            return math.inf
        if self.marginal(0.0) <= level:
            return 0.0
        beta = 0.0
        for k, seg in enumerate(self.segments):
            hi = (self.segments[k + 1].lo if k + 1 < len(self.segments)
                  else math.inf)
            if seg.R == 0.0:
                # Levels within roundoff of the flat marginal count as "at"
                # it; the caller distributes any leftover among such paths.
                flat = 1.0 / (seg.S * seg.S)
                return seg.lo if level >= flat * (1.0 - 1e-12) else math.inf
            beta = (seg.S / math.sqrt(level) - seg.S * seg.S) / seg.R - seg.C
            if beta <= hi:
                return max(beta, seg.lo, 0.0)
        return max(beta, 0.0)

    def flat_level(self) -> float | None:
        """Marginal of the linear tail, if the profile has one."""
        if self.segments and self.segments[-1].R == 0.0:
            s = self.segments[-1].S
            return 1.0 / (s * s)
        return None

    def split(self, budget: float) -> dict[str, float]:
        """Per-edge budgets realizing conductance(budget)."""
        out = {e.id: 0.0 for e in self.improvable}
        if budget <= 0.0 or not self.segments or self.dead:
            return out
        seg = self._segment(budget)
        t = (budget + seg.C) / seg.S
        total = 0.0
        for e in self.improvable[: seg.active]:
            amt = max(0.0, t / math.sqrt(e.mu) - e.c / e.mu)
            out[e.id] = amt
            total += amt
        # Roll float dust into the largest share so the split sums exactly.
        if total != budget and total > 0.0:
            top = max(out, key=out.get)
            out[top] = max(0.0, out[top] + (budget - total))
        return out


@dataclass(frozen=True)
class PathSpec:
    edges: tuple[Edge, ...]

    @cached_property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    @cached_property
    def length(self) -> float:
        return sum(e.b for e in self.edges)

    @cached_property
    def profile(self) -> _Profile:
        return _Profile(self.edges)


@dataclass(frozen=True)
class ParallelPathsInstance:
    paths: tuple[PathSpec, ...]   # sorted by length, unusable paths dropped
    demand: float
    budget: float
    dropped: tuple[PathSpec, ...] = ()


def as_parallel_paths(inst: Instance) -> ParallelPathsInstance:
    """View the instance as disjoint source-sink paths or raise."""
    if not inst.single_commodity:
        raise NotParallelPaths("multi-commodity instance")
    k = inst.commodities[0]
    for e in inst.edges:
        if not e.affine:
            raise UnsupportedDelay(
                f"edge {e.id!r} has exponent {e.n} != 1")
    consumed: set[str] = set()
    raw_paths: list[PathSpec] = []
    for first in inst.out_edges[k.source]:
        chain = [first]
        node = first.head
        seen = {k.source, first.head}
        while node != k.sink:
            outs = inst.out_edges[node]
            ins = inst.in_edges[node]
            if len(outs) != 1 or len(ins) != 1 or node == k.source:
                raise NotParallelPaths(
                    f"internal node {node!r} is shared between paths")
            nxt = outs[0]
            if nxt.head in seen:
                raise NotParallelPaths("cycle while tracing a path")
            seen.add(nxt.head)
            chain.append(nxt)
            node = nxt.head
        raw_paths.append(PathSpec(tuple(chain)))
        if math.isinf(raw_paths[-1].length):
            raise ValidationError(f"length of the path from {first.id!r} "
                                  "overflows")
        consumed.update(e.id for e in chain)
    if len(consumed) != len(inst.edges):
        extra = sorted(set(inst.edge_index) - consumed)
        raise NotParallelPaths(f"edges not on any traced path: {extra}")

    raw_paths.sort(key=lambda p: (p.length, p.edge_ids))
    kept, dropped = [], []
    for p in raw_paths:
        (dropped if p.profile.dead else kept).append(p)
    if not kept:
        raise NotParallelPaths("every path is permanently unusable")
    return ParallelPathsInstance(
        paths=tuple(kept), demand=k.demand, budget=inst.budget,
        dropped=tuple(dropped))


def max_path_conductance(edges: Sequence[Edge], budget: float
                         ) -> tuple[float, dict[str, float]]:
    """Best conductance of a single path and the per-edge budget split."""
    if budget < 0.0:
        raise ValidationError("budget must be >= 0")
    for e in edges:
        if not e.affine:
            raise UnsupportedDelay(f"edge {e.id!r} has exponent {e.n} != 1")
    prof = _Profile(edges)
    split = prof.split(budget)
    for e in edges:
        split.setdefault(e.id, 0.0)
    return prof.conductance(budget), split


# ---------------------------------------------------------------------------
# Cross-path water-filling: maximize sum_p w_p c_p(beta_p), sum beta_p = B


def _weighted_budget(prof: _Profile, w: float, level: float) -> float:
    if w <= 0.0:
        return 0.0
    return prof.budget_for_marginal(level / w)


def _allocate_weighted(paths: Sequence[PathSpec], weights: Sequence[float],
                       total: float) -> list[float]:
    """Exact solution of the weighted conductance maximization."""
    n = len(paths)
    budgets = [0.0] * n
    if total <= 0.0:
        return budgets
    # Scaling the weights changes nothing; an even power of two scales w
    # and sqrt(w) exactly and keeps w * marginal in range.
    shift = 2 * (math.frexp(max(weights, default=0.0))[1] // 2)
    weights = [math.ldexp(w, -shift) for w in weights]
    profs = [p.profile for p in paths]
    tops = [w * prof.marginal(0.0) if w > 0.0 else 0.0
            for prof, w in zip(profs, weights)]
    if all(t <= 0.0 for t in tops):
        return budgets

    candidates: set[float] = set()
    for prof, w in zip(profs, weights):
        if w <= 0.0:
            continue
        for seg in prof.segments:
            candidates.add(w * prof.marginal(seg.lo))
        flat = prof.flat_level()
        if flat is not None:
            candidates.add(w * flat)
    levels = sorted((c for c in candidates if c > 0.0), reverse=True)

    def spend(level):
        return sum(_weighted_budget(prof, w, level)
                   for prof, w in zip(profs, weights))

    prev = math.inf
    bracket = None
    for cand in levels:
        s = spend(cand)
        if s >= total:
            bracket = (cand, prev)
            break
        prev = cand
    if bracket is None:
        bracket = (0.0, prev)
    lo_level, hi_level = bracket

    def flats_at(level):
        out = []
        for t, (prof, w) in enumerate(zip(profs, weights)):
            flat = prof.flat_level()
            if w > 0.0 and flat is not None and \
                    abs(w * flat - level) <= 1e-9 * level:
                out.append(t)
        return out

    if math.isfinite(hi_level) and flats_at(hi_level) and \
            spend(hi_level) <= total:
        # The bracket opened because a flat tail absorbs everything below
        # its level; the solution sits exactly at that level.
        level = hi_level
    else:
        # All funded paths sit in fixed curved segments inside the open
        # bracket (candidate levels are exactly the segment seams), so
        # sum_p beta_p(level) = total solves in closed form via 1/sqrt(level).
        probe = 0.5 * (lo_level + hi_level)
        num = total
        den = 0.0
        for t, (prof, w) in enumerate(zip(profs, weights)):
            beta_probe = _weighted_budget(prof, w, probe)
            if beta_probe <= 0.0 or not math.isfinite(beta_probe):
                continue
            seg = prof._segment(beta_probe)
            if seg.R == 0.0:
                continue
            num += seg.C + seg.S * seg.S / seg.R
            den += seg.S * math.sqrt(w) / seg.R
        if den <= 0.0:
            level = hi_level if lo_level <= 0.0 else lo_level
        else:
            xi = num / den
            level = 1.0 / (xi * xi)
            level = min(max(level, lo_level), hi_level)

    # Distribute at the chosen level.  Flat tails sitting exactly at it
    # absorb the leftover evenly; otherwise only float dust remains and is
    # scaled away.
    for t, (prof, w) in enumerate(zip(profs, weights)):
        budgets[t] = _weighted_budget(prof, w, level)
    flats = flats_at(level)
    leftover = total - sum(budgets)
    if flats and leftover > 0.0:
        for t in flats:
            budgets[t] += leftover / len(flats)
    else:
        s = sum(budgets)
        if s > 0.0 and math.isfinite(s):
            budgets = [b * (total / s) for b in budgets]
    return budgets


class ParallelPathsResult(NamedTuple):
    allocation: Allocation
    delay: float
    used_paths: int
    path_budgets: tuple[float, ...]


def solve_parallel_paths(arg: Instance | ParallelPathsInstance,
                         tol: float = 1e-9) -> ParallelPathsResult:
    """Optimal allocation on parallel paths by Dinkelbach's iteration.

    The iteration stops once Lbar falls by no more than ``tol`` times the
    gap between its start and the shortest path's length.  The result
    carries the per-edge ``Allocation``, as every solver's does, and the
    budget of each kept path in ``ppi.paths`` order.
    """
    if not tol > 0:
        raise ValidationError("tol must be positive")
    ppi = arg if isinstance(arg, ParallelPathsInstance) else as_parallel_paths(arg)
    paths = ppi.paths
    budgets = [0.0] * len(paths)
    lam = _scan(ppi, budgets)
    if ppi.budget > 0.0 and any(p.profile.segments for p in paths):
        if not math.isfinite(lam):
            # No path conducts unfunded (gates: c = 0, mu > 0) or the delay
            # overflows; (Lbar - b_p)^+ tends to equal weights as Lbar grows.
            budgets, lam = _step(ppi, [1.0] * len(paths))
        scale = tol * max(lam - paths[0].length, 1e-12 * lam)
        fall = math.inf
        while math.isfinite(lam) and fall > scale:
            trial, m = _step(ppi, [max(0.0, lam - p.length) for p in paths])
            if not m < lam:
                break
            budgets, lam, fall = trial, m, lam - m

    split = {}
    for p, pb in zip(paths, budgets):
        split.update(p.profile.split(pb))
    delay = paths_delay(ppi, budgets)
    used = max(1, sum(p.length < delay for p in paths))
    return ParallelPathsResult(Allocation(split), delay, used, tuple(budgets))


def _step(ppi: ParallelPathsInstance, weights: Sequence[float]
          ) -> tuple[list[float], float]:
    """The inner program's budgets at the given weights, and their delay."""
    budgets = _allocate_weighted(ppi.paths, weights, ppi.budget)
    if not all(map(math.isfinite, budgets)):
        raise ValidationError("a delay is out of floating-point range")
    return budgets, _scan(ppi, budgets)


def _scan(ppi: ParallelPathsInstance, path_budgets: Sequence[float]) -> float:
    """The least prefix delay at the given path budgets, the scan's row:
    inf where no path conducts, nan where the delay is out of range."""
    G = np.array([[p.profile.conductance(pb)
                   for p, pb in zip(ppi.paths, path_budgets)]])
    return float(dipole_delay_rows([p.length for p in ppi.paths],
                                   [p.profile.all_rigid for p in ppi.paths],
                                   G, ppi.demand)[0])


def paths_delay(ppi: ParallelPathsInstance, path_budgets: Sequence[float]) -> float:
    """Equilibrium delay for given path budgets: the least prefix delay."""
    return _reported(_scan(ppi, path_budgets), "no usable path")


class SingleEdgeResult(NamedTuple):
    edge_id: str | None
    delay: float
    allocation: Allocation


def best_single_edge_allocation(links: Sequence[Edge], budget: float,
                                demand: float) -> SingleEdgeResult:
    """Best way to spend the whole budget on one link of a dipole.

    Evaluates the closed-form delay for each non-rigid link in id order and
    keeps the first minimum (ties within 1e-15 relative go to the lowest id).
    """
    links = sorted(links, key=lambda e: e.id)
    for e in links:
        if not e.affine:
            raise UnsupportedDelay(f"link {e.id!r} has exponent {e.n} != 1")
    picks = [t for t, e in enumerate(links) if not e.rigid]
    # Row r spends the budget on link picks[r]; with every link rigid, the
    # single row spends nothing.
    c_eff = np.tile([e.c for e in links], (max(len(picks), 1), 1))
    for r, t in enumerate(picks):
        c_eff[r, t] += links[t].mu * budget
    ls = dipole_delay_rows([e.b for e in links], [e.rigid for e in links],
                           c_eff, demand)
    # With no finite row, the largest is nan where one is out of range.
    best_id, best_L = None, float(ls.max())
    for L, t in zip(ls.tolist(), picks):
        if math.isfinite(L) and (best_id is None
                                 or L < best_L * (1.0 - 1e-15)):
            best_id, best_L = links[t].id, L
    _reported(best_L, "no usable link")
    spent = {best_id: budget} if best_id is not None and budget > 0 else {}
    return SingleEdgeResult(best_id, best_L, Allocation(spent))
