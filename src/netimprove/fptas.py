"""Approximation scheme for series-parallel graphs by joint discretization.

Budgets and flows are quantized to multiples of B/K and d/K.  Over the
decomposition tree, D(H, k, l) is the least possible maximum delay over
flow-carrying paths of H when H receives budget k*B/K and routes l*d/K:

    D(H, k, 0)  = 0
    D(e, k, l)  = delay_e(l*d/K, k*B/K)                     for l > 0
    D(H1~H2)    = min_u  D(H1, u, l) + D(H2, k-u, l)        (series)
    D(H1||H2)   = min_{u,v} max(D(H1, u, v), D(H2, k-u, l-v))  (parallel)

The root entry D(G, K, K) upper-bounds the equilibrium delay under the
reconstructed allocation, because on series-parallel graphs the equilibrium
minimizes the maximum used-path delay among flows of the same value.  That
inequality is the certificate reported with every solve.

Every row D(H, k, .) starts at 0 and is nondecreasing in flow (leaf rows
are made so explicitly; both combines preserve it).  For two such rows a
and b, min_v max(a[v], b[l-v]) is entry l+1 (0-based) of the sorted union
of a and b.  As a[0] = 0 is the least entry of that union, entries 1..K+1
are the sorted elementwise minimum of a[1:] (padded with inf) and b
reversed: the lower half of the merge, by Batcher's half-cleaner.  The
parallel combine therefore forms, for each budget k, that minimum for the
k+1 row pairs (A[u], B[k-u]), sorts the block's rows in one numpy pass and
takes the least entry per column: O(K^3 log K) per parallel node, about
(K+1)^3 / 2 sorted entries in all.  The series combine is one (k+1, K+1)
sum and column minimum per budget k.  Both give the literal recursion's
floats and keep values only.

One split rule, ``_split``, evaluates a single entry by the literal
recursion and returns its first minimizing (u, v) in row-major order.
``reconstruct`` calls it at every inner node it visits, from (K, K) at the
root.

Grid sizing follows eps = eps' / (6 * nu) with nu the largest delay
exponent (floored at 1) and K = ceil(m^2 / eps^2); K is capped, since
tables take O(K^2) memory per node and the combines grow with K^3.  When
the cap binds, the solve can either fail with the smallest feasible eps' or
clamp K and report the weaker factor implied by the coarser grid.  The
certified factor is the assumption-free squared bound (1 + eps'_eff)^2;
the plain (1 + eps'_eff) bound would additionally require every edge of the
optimal allocation to exceed a grid-unit floor, which is unverifiable.

With ``lazy_root``, as ``solve_fptas`` asks, the root gets no table: its
(K, K) entry is that one split, and ``reconstruct`` starts from its (u, v).
Its leaf children get no table either; the split reads every child's budget
rows in blocks of ``_SPLIT_ROWS`` and evaluates a leaf's rows per block,
which keeps a dipole with a fine grid in O(K) memory.

Under a lazy series root, the inner nodes reached from the root through
series nodes only are root-column nodes: every split above them reads flow
K alone, so they fill only column K, a (K+1, 1) table.  A series one sums
its children's last columns, O(K^2).  A parallel one, ``_parallel_column``,
needs for each pair (k, u) only the largest entry of the half-cleaner row,
which one vectorized binary search finds: O(K^2 log K) instead of the
sort's O(K^3 log K).  Its children keep full tables, as does every node
under a parallel node.  ``_split`` reads a series node's children at column
l - K - 1, which is column l of a full table and the one column of a
root-column table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Allocation, Edge, Instance
from .equilibrium import solve_equilibrium
from .errors import DiscretizationError, InapplicableError, ValidationError
from .seriesparallel import (
    DecompositionTree,
    Leaf,
    Series,
    decompose_series_parallel,
    postorder,
)

__all__ = [
    "DiscretizationPlan",
    "DpTable",
    "FptasResult",
    "choose_discretization",
    "run_dp",
    "solve_fptas",
]

_DEFAULT_K_CAP = 5000
_OPS_CAP = 5e10  # table entries one dynamic program may touch
_SPLIT_ROWS = 64       # children's budget rows one split step reads


@dataclass(frozen=True)
class DiscretizationPlan:
    eps: float
    K: int
    clamped: bool
    certified_factor: float


def choose_discretization(inst: Instance, eps_prime: float,
                          k_cap: int = _DEFAULT_K_CAP,
                          clamp: bool = False) -> DiscretizationPlan:
    """Grid parameters for a target factor, or an error naming the least
    eps' the cap admits (unless ``clamp`` trades accuracy for the cap)."""
    if not eps_prime > 0.0:
        raise ValidationError("eps must be positive")
    if k_cap < 1:
        raise ValidationError("the grid cap must be at least 1")
    m = len(inst.edges)
    nu = max(1.0, max((e.n for e in inst.edges if not e.rigid), default=1.0))
    eps = eps_prime / (6.0 * nu)
    lam = eps * eps / (m * m)
    raw = 1.0 / lam
    # Absorb float noise in 1/lam; a huge eps still needs one grid step.
    K = max(1, math.ceil(raw - 1e-9 * max(1.0, raw)))
    clamped = False
    if K > k_cap:
        if not clamp:
            min_eps = 6.0 * nu * m / math.sqrt(k_cap)
            raise DiscretizationError(
                f"grid needs K={K} > cap {k_cap}; smallest feasible eps "
                f"under this cap is {min_eps:.6g}")
        K = k_cap
        clamped = True
    eps_eff = 6.0 * nu * m / math.sqrt(K)
    eps_prime_eff = eps_eff if clamped else min(eps_prime, eps_eff)
    return DiscretizationPlan(eps=eps, K=K, clamped=clamped,
                              certified_factor=(1.0 + eps_prime_eff) ** 2)


@dataclass
class DpTable:
    """The filled tables, keyed by ``id`` of the tree node.

    A table is (K+1, K+1), indexed [k, l], or (K+1, 1) for l = K at a
    root-column node; a lazy root and its leaf children have none.
    """

    K: int
    budget_unit: float
    flow_unit: float
    tables: dict[int, np.ndarray]
    edges: dict[str, Edge]
    root_value: float = math.nan
    root_split: tuple[int, int] | None = None   # a lazy root's (u, v)

    def values_for(self, tree_node) -> np.ndarray | None:
        return self.tables.get(id(tree_node))

    def rows(self, tree_node, lo: int, hi: int) -> np.ndarray:
        """Budget rows lo..hi-1 of a node's table; a leaf without a table
        evaluates just those rows."""
        values = self.values_for(tree_node)
        if values is not None:
            return values[lo:hi]
        return _leaf_values(self.edges[tree_node.edge_id],
                            np.arange(lo, hi) * self.budget_unit,
                            np.arange(self.K + 1) * self.flow_unit)


def _leaf_values(edge: Edge, k_budget: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Delay grid for one edge; rows follow budgets, columns flows."""
    if edge.rigid:
        out = np.full((len(k_budget), len(flows)), edge.b)
    else:
        g = edge.c + edge.mu * k_budget
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = (flows[None, :] / g[:, None]) ** edge.n + edge.b
    out[:, 0] = 0.0
    # The parallel combine needs rows nondecreasing in flow; this guards
    # against a last-bit dip of the power.  The running maximum costs a
    # serial pass, so it runs only on a dip.
    if (out[:, 1:] < out[:, :-1]).any():
        np.maximum.accumulate(out, axis=1, out=out)
    return out


def _series_combine(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[k, l] = min_u A[u, l] + B[k-u, l]: one (k+1, cols) sum and column
    minimum per budget k.  A and B hold all K+1 flows, or only flow K."""
    K = A.shape[0] - 1
    values = np.empty_like(A)
    cand = np.empty_like(A)
    for k in range(K + 1):
        np.min(np.add(A[:k + 1], B[k::-1], out=cand[:k + 1]), axis=0,
               out=values[k])
    if values.shape[1] == K + 1:
        values[:, 0] = 0.0
    return values


def _parallel_combine(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[k, l] = min_{u,v} max(A[u, v], B[k-u, l-v]).

    For fixed u the inner min over v is entry l+1 of the sorted union of
    A[u] and B[k-u].  Both rows start at 0 and never fall, so A[u, 0] is
    the union's least entry, and the K+1 least of the rest are the
    elementwise minimum of A[u, 1:] (padded with inf) and B[k-u] reversed:
    Batcher's half-cleaner.  Row u of the sorted block holds them, and D[k]
    is the block's column minimum.
    """
    K = A.shape[0] - 1
    values = np.empty_like(A)
    Ap = np.empty_like(A)
    Ap[:, :-1] = A[:, 1:]
    Ap[:, -1] = np.inf
    Br = np.ascontiguousarray(B[:, ::-1])
    block = np.empty_like(A)
    for k in range(K + 1):
        rows = np.minimum(Ap[:k + 1], Br[k::-1], out=block[:k + 1])
        rows.sort(axis=1)
        np.min(rows, axis=0, out=values[k])
    values[:, 0] = 0.0
    return values


def _parallel_column(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column K of ``_parallel_combine(A, B)``, as a (K+1, 1) table.

    D[k, K] is the least over u of the largest entry of the half-cleaner
    row min(Ap[u, j], Br[k-u, j]), with Ap[u, j] = A[u, j+1] (inf at
    j = K) and Br[k-u, j] = B[k-u, K-j].  Ap[u] never falls and Br[k-u]
    never rises, so with j the first index where Ap[u, j] >= Br[k-u, j],
    that entry is max(Ap[u, j-1], Br[k-u, j]) = max(A[u, j], B[k-u, K-j]),
    A[u, 0] = 0 covering j = 0.  One branch-free binary search over the
    (K+1)(K+2)/2 pairs (k, u) finds every j, and a segmented minimum over
    u gives D[k, K].
    """
    K = A.shape[0] - 1
    idx = np.int32 if (K + 1) ** 2 < 2 ** 31 else np.intp
    counts = np.arange(1, K + 2, dtype=idx)
    starts = np.cumsum(counts, dtype=idx) - counts        # first pair of k
    k = np.repeat(np.arange(K + 1, dtype=idx), counts)
    u = np.arange(len(k), dtype=idx) - np.repeat(starts, counts)
    at = u * (K + 1) + 1                                  # A[u, j+1] at at + j
    bt = (k - u) * (K + 1) + K                            # B[k-u, K-j] at bt - j
    a, b = A.ravel(), B.ravel()
    # j lies in [lo, lo + n]; j = K where no index below K qualifies.
    lo = np.zeros_like(k)
    n = K
    while n > 1:
        half = n >> 1
        mid = lo + half
        np.add(lo, half, out=lo, where=a[at + mid] < b[bt - mid])
        n -= half
    if n:                                  # K = 0 has no index to test
        np.add(lo, 1, out=lo, where=a[at + lo] < b[bt - lo])
    rows = np.maximum(a[at - 1 + lo], b[bt - lo])
    return np.minimum.reduceat(rows, starts)[:, None]


def _split(dpt: DpTable, node, k: int, l: int) -> tuple[float, int, int]:
    """Entry D[k, l] of an inner node and its first (u, v) in row-major
    order, by the literal recursion; a series node has v = l.

    The children's budget rows are read ``_SPLIT_ROWS`` at a time, so a
    lazy root holds one block of its leaf children's rows at once.  A
    series node reads column l - K - 1: column l of a full table, and the
    only column of a root-column one.
    """
    series = isinstance(node, Series)
    col = l - dpt.K - 1
    best, best_u, best_v = math.inf, 0, 0
    for lo in range(0, k + 1, _SPLIT_ROWS):
        hi = min(k + 1, lo + _SPLIT_ROWS)
        a = dpt.rows(node.left, lo, hi)
        b = dpt.rows(node.right, k + 1 - hi, k + 1 - lo)[::-1]  # row u: B[k-u]
        if series:
            cand = (a[:, col] + b[:, col])[:, None]
        else:
            cand = np.maximum(a[:, :l + 1], b[:, l::-1])
        du, v = divmod(int(np.argmin(cand)), cand.shape[1])
        if cand[du, v] < best:
            best, best_u, best_v = float(cand[du, v]), lo + du, v
    return best, best_u, (l if series else best_v)


def _dp_ops_estimate(tree: DecompositionTree, K: int, lazy_root: bool) -> float:
    """Table entries the dynamic program touches, held to ``_OPS_CAP``.

    A leaf fills (K+1)^2 entries and a series combine sums about
    (K+1)^3/2.  A parallel combine is charged (K+1)(2K+2) entries for each
    of its K+1 budget rows, twice its largest sorted block (K+1)^2: the
    charge of the merged (2K+2)-wide rows it replaced.  A root-column node
    (see the module docstring) fills one column but is charged as a full
    combine.  Both keep the refused grids the same.  A lazy root computes
    one entry per budget split.
    """
    total = 0.0
    nodes = postorder(tree)
    for node in nodes:
        is_root = node is nodes[-1]
        if isinstance(node, Leaf):
            total += (K + 1) ** 2
        elif isinstance(node, Series):
            total += (K + 1) if (is_root and lazy_root) else (K + 1) ** 3 / 2
        else:
            total += ((K + 1) ** 2 if (is_root and lazy_root)
                      else (K + 1) * (K + 1) * (2 * K + 2))
    return total


def run_dp(inst: Instance, tree: DecompositionTree, K: int,
           lazy_root: bool = False) -> DpTable:
    """Fill the min-max tables bottom-up over the decomposition tree at
    grid size K; ``tree`` must stay alive while the table is read."""
    if K < 1:
        raise ValidationError("the grid needs K >= 1")
    if not inst.single_commodity:
        raise InapplicableError("the scheme handles a single commodity")
    if _dp_ops_estimate(tree, K, lazy_root) > _OPS_CAP:
        raise DiscretizationError(
            f"dynamic program too large at K={K}; lower the grid cap")

    dpt = DpTable(K=K, budget_unit=inst.budget / K,
                  flow_unit=inst.commodities[0].demand / K, tables={},
                  edges=inst.edge_index)
    order = postorder(tree)
    root = order[-1]
    lazy = lazy_root and not isinstance(root, Leaf)
    # A lazy root's entry is one split, which reads its leaf children a
    # block of rows at a time, so neither the root nor those leaves get a
    # table.
    unfilled = ({id(root)} | {id(c) for c in (root.left, root.right)
                              if isinstance(c, Leaf)}) if lazy else set()
    # Under a lazy series root, splits read only flow K of the inner nodes
    # reached through series nodes alone: the root-column nodes.
    column: set[int] = set()
    stack = [root] if lazy and isinstance(root, Series) else []
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            if not isinstance(child, Leaf):
                column.add(id(child))
                if isinstance(child, Series):
                    stack.append(child)
    for node in order:
        if id(node) in unfilled:
            continue
        if isinstance(node, Leaf):
            dpt.tables[id(node)] = dpt.rows(node, 0, K + 1)
            continue
        A, B = dpt.values_for(node.left), dpt.values_for(node.right)
        if id(node) not in column:
            combine = (_series_combine if isinstance(node, Series)
                       else _parallel_combine)
            dpt.tables[id(node)] = combine(A, B)
        elif isinstance(node, Series):
            dpt.tables[id(node)] = _series_combine(A[:, -1:], B[:, -1:])
        else:
            dpt.tables[id(node)] = _parallel_column(A, B)
    if lazy:
        dpt.root_value, u, v = _split(dpt, root, K, K)
        dpt.root_split = (u, v)
    else:
        dpt.root_value = float(dpt.values_for(root)[K, K])
    return dpt


def reconstruct(dpt: DpTable, tree: DecompositionTree
                ) -> tuple[dict[str, int], dict[str, int]]:
    """Units of budget and flow per edge realizing the root entry; a lazy
    root's split is the one ``run_dp`` kept."""
    beta_units: dict[str, int] = {}
    flow_units: dict[str, int] = {}
    stack: list[tuple[DecompositionTree, int, int]] = [(tree, dpt.K, dpt.K)]
    while stack:
        node, k, l = stack.pop()
        if isinstance(node, Leaf):
            beta_units[node.edge_id] = k
            flow_units[node.edge_id] = l
            continue
        if node is tree and dpt.root_split is not None:
            u, v = dpt.root_split
        else:
            _, u, v = _split(dpt, node, k, l)
        stack += [(node.left, u, v),
                  (node.right, k - u, l if isinstance(node, Series) else l - v)]
    return beta_units, flow_units


@dataclass(frozen=True)
class FptasResult:
    allocation: Allocation
    dp_value: float
    equilibrium_delay: float
    plan: DiscretizationPlan

    def to_json_dict(self) -> dict:
        return {
            "dp_value": self.dp_value,
            "certified_factor": self.plan.certified_factor,
            "K": self.plan.K,
        }


def solve_fptas(inst: Instance, eps_prime: float, tol: float = 1e-8,
                k_cap: int = _DEFAULT_K_CAP, clamp: bool = False,
                tree: DecompositionTree | None = None) -> FptasResult:
    """Run the scheme end to end and play the reconstructed allocation.

    The reported delay is the true equilibrium under the reconstructed
    allocation; the table entry D(G, K, K), ``dp_value``, certifies it from
    above.  The grid, its eps and the certified factor are read from
    ``plan``.
    """
    if tree is None:
        tree = decompose_series_parallel(inst)
    plan = choose_discretization(inst, eps_prime, k_cap, clamp)
    dpt = run_dp(inst, tree, plan.K, lazy_root=True)
    beta_units, _ = reconstruct(dpt, tree)
    beta = {}
    for eid, units in beta_units.items():
        e = inst.edge_index[eid]
        if units > 0 and e.improvable:
            beta[eid] = units * dpt.budget_unit
    alloc = Allocation(beta)
    alloc.validate_for(inst)
    return FptasResult(
        allocation=alloc,
        dp_value=dpt.root_value,
        equilibrium_delay=solve_equilibrium(inst, alloc, tol=tol).average_delay,
        plan=plan,
    )
