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
floats and keep values only; ``reconstruct`` recomputes the split of each
entry it visits, one per node, with the recursion's first-(u, v)
tie-break.

Grid sizing follows eps = eps' / (6 * nu) with nu the largest delay
exponent (floored at 1) and K = ceil(m^2 / eps^2); K is capped, since
tables take O(K^2) memory per node and the combines grow with K^3.  When
the cap binds, the solve can either fail with the smallest feasible eps' or
clamp K and report the weaker factor implied by the coarser grid.  The
certified factor is the assumption-free squared bound (1 + eps'_eff)^2;
the plain (1 + eps'_eff) bound would additionally require every edge of the
optimal allocation to exceed a grid-unit floor, which is unverifiable.

Tables for the root node are skipped when only its (K, K) entry is needed
and the grid is large; its leaf children then get no table either and are
evaluated row by row, which keeps dipole instances with fine grids in O(K)
memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Allocation, Edge, Instance
from .equilibrium import EquilibriumResult, solve_equilibrium
from .errors import DiscretizationError, ValidationError
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
_DEFAULT_OPS_CAP = 5e10


@dataclass(frozen=True)
class DiscretizationPlan:
    eps_prime: float
    eps: float
    nu: float
    lam: float
    K: int
    clamped: bool
    eps_prime_effective: float
    certified_factor: float


def choose_discretization(inst: Instance, eps_prime: float,
                          k_cap: int = _DEFAULT_K_CAP,
                          clamp: bool = False) -> DiscretizationPlan:
    """Grid parameters for a target factor, or an error naming the least
    eps' the cap admits (unless ``clamp`` trades accuracy for the cap)."""
    if not eps_prime > 0.0:
        raise ValidationError("eps must be positive")
    m = len(inst.edges)
    nu = max(1.0, max((e.n for e in inst.edges if not e.rigid), default=1.0))
    eps = eps_prime / (6.0 * nu)
    lam = eps * eps / (m * m)
    raw = 1.0 / lam
    K = math.ceil(raw - 1e-9 * max(1.0, raw))  # absorb float noise in 1/lam
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
    return DiscretizationPlan(
        eps_prime=eps_prime, eps=eps, nu=nu, lam=1.0 / K, K=K,
        clamped=clamped, eps_prime_effective=eps_prime_eff,
        certified_factor=(1.0 + eps_prime_eff) ** 2)


@dataclass
class _DpNode:
    tree: DecompositionTree
    values: np.ndarray | None = None      # (K+1, K+1), index [k, l]


@dataclass
class DpTable:
    K: int
    budget_unit: float
    flow_unit: float
    nodes: list[_DpNode]
    index: dict[int, int]
    root_value: float
    root_arg: tuple[int, int] | None      # split chosen at the lazy root

    def values_for(self, tree_node) -> np.ndarray:
        return self.nodes[self.index[id(tree_node)]].values


def _leaf_values(edge: Edge, k_budget: np.ndarray, flows: np.ndarray) -> np.ndarray:
    """Delay grid for one edge; rows follow budgets, columns flows."""
    if edge.rigid:
        out = np.full((len(k_budget), len(flows)), edge.b)
    else:
        g = edge.c + edge.mu * k_budget
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = np.where(g[:, None] > 0.0,
                             flows[None, :] / np.maximum(g[:, None], 1e-300),
                             np.inf)
            out = ratio ** edge.n + edge.b
    out[:, 0] = 0.0
    # The parallel combine needs rows nondecreasing in flow; this guards
    # against a last-bit dip of the power and is a no-op otherwise.
    return np.maximum.accumulate(out, axis=1)


def _series_combine(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[k, l] = min_u A[u, l] + B[k-u, l]: one (k+1, K+1) sum and column
    minimum per budget k."""
    K = A.shape[0] - 1
    values = np.empty_like(A)
    cand = np.empty_like(A)
    for k in range(K + 1):
        np.min(np.add(A[:k + 1], B[k::-1], out=cand[:k + 1]), axis=0,
               out=values[k])
    values[:, 0] = 0.0
    return values


def _series_split(A: np.ndarray, B: np.ndarray, k: int, l: int) -> int:
    """The first u attaining D[k, l] of the series combine."""
    return int(np.argmin(A[:k + 1, l] + B[k::-1, l]))


def _half_cleaner_operands(A: np.ndarray, B: np.ndarray):
    """The parallel combine's operands: A shifted left by one flow with an
    inf column, and B with its flows reversed."""
    Ap = np.empty_like(A)
    Ap[:, :-1] = A[:, 1:]
    Ap[:, -1] = np.inf
    return Ap, np.ascontiguousarray(B[:, ::-1])


def _sorted_block(Ap: np.ndarray, Br: np.ndarray, k: int,
                  out: np.ndarray) -> np.ndarray:
    """Row u holds entries 1..K+1 of the sorted union of A[u] and B[k-u].

    Both rows start at 0 and never fall, so A[u, 0] is the least entry of
    the union, and the K+1 least of the rest are the elementwise minimum of
    A[u, 1:] (padded with inf) and B[k-u] reversed: Batcher's half-cleaner.
    """
    block = np.minimum(Ap[:k + 1], Br[k::-1], out=out[:k + 1])
    block.sort(axis=1)
    return block


def _parallel_combine(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """D[k, l] = min_{u,v} max(A[u, v], B[k-u, l-v]).

    For fixed u the inner min over v is entry l+1 of the sorted union of
    A[u] and B[k-u], which is column l of the sorted block; D[k] is the
    block's column minimum.
    """
    K = A.shape[0] - 1
    values = np.empty_like(A)
    Ap, Br = _half_cleaner_operands(A, B)
    block = np.empty_like(A)
    for k in range(K + 1):
        np.min(_sorted_block(Ap, Br, k, block), axis=0, out=values[k])
    values[:, 0] = 0.0
    return values


def _parallel_split(A: np.ndarray, B: np.ndarray, k: int,
                    l: int) -> tuple[int, int]:
    """The first (u, v), in row-major order, attaining D[k, l] of the
    parallel combine.

    u is the first row of the sorted block attaining the column minimum;
    the first v for it is l+1 minus the count of B[k-u] entries at or
    below the value, floored at 0.
    """
    Ap, Br = _half_cleaner_operands(A[:k + 1], B[:k + 1])
    block = _sorted_block(Ap, Br, k, np.empty_like(Ap))
    u = int(np.argmin(block[:, l]))
    q = np.count_nonzero(B[k - u] <= block[u, l])
    return u, max(0, l + 1 - q)


def _dp_ops_estimate(tree: DecompositionTree, K: int, lazy_root: bool) -> float:
    """Table entries the dynamic program touches, held to ``ops_cap``.

    A leaf fills (K+1)^2 entries and a series combine sums about
    (K+1)^3/2.  A parallel combine is charged (K+1)(2K+2) entries for each
    of its K+1 budget rows, twice its largest sorted block (K+1)^2; the
    charge is the one of the merged (2K+2)-wide rows it replaced, so the
    grids refused stay the same.  A lazy root computes one entry per budget
    split.
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


def run_dp(inst: Instance, tree: DecompositionTree,
           plan: DiscretizationPlan | int, lazy_root: bool = False,
           ops_cap: float = _DEFAULT_OPS_CAP) -> DpTable:
    """Fill the min-max tables bottom-up over the decomposition tree."""
    K = plan.K if isinstance(plan, DiscretizationPlan) else int(plan)
    if not inst.single_commodity:
        raise ValidationError("the scheme handles a single commodity")
    d = inst.commodities[0].demand
    B = inst.budget
    budget_unit = B / K
    flow_unit = d / K
    if _dp_ops_estimate(tree, K, lazy_root) > ops_cap:
        raise DiscretizationError(
            f"dynamic program too large at K={K}; lower the grid cap")

    budgets = np.arange(K + 1) * budget_unit
    flows = np.arange(K + 1) * flow_unit
    order = postorder(tree)
    nodes: list[_DpNode] = []
    index: dict[int, int] = {}

    def table_of(t) -> np.ndarray:
        return nodes[index[id(t)]].values

    root = order[-1]
    lazy = lazy_root and not isinstance(root, Leaf)
    # A lazy root reads its leaf children row by row, so neither the root
    # nor those children get a table.
    unfilled = ({id(root)} | {id(c) for c in (root.left, root.right)
                              if isinstance(c, Leaf)}) if lazy else set()
    for node in order:
        if id(node) in unfilled:
            values = None
        elif isinstance(node, Leaf):
            values = _leaf_values(inst.edge_index[node.edge_id],
                                  budgets, flows)
        elif isinstance(node, Series):
            values = _series_combine(table_of(node.left), table_of(node.right))
        else:
            values = _parallel_combine(table_of(node.left),
                                       table_of(node.right))
        nodes.append(_DpNode(tree=node, values=values))
        index[id(node)] = len(nodes) - 1

    if lazy:
        root_value, root_arg = _lazy_root_entry(
            inst, root, table_of, K, budgets, flows)
    else:
        root_value = float(table_of(root)[K, K])
        root_arg = None
    return DpTable(K=K, budget_unit=budget_unit, flow_unit=flow_unit,
                   nodes=nodes, index=index, root_value=root_value,
                   root_arg=root_arg)


def _lazy_root_entry(inst, root, table_of, K, budgets, flows):
    def row_of(child, k):
        # One budget row of the child's table, materializing leaves cheaply.
        if isinstance(child, Leaf):
            e = inst.edge_index[child.edge_id]
            return _leaf_values(e, budgets[k:k + 1], flows)[0]
        return table_of(child)[k]

    if isinstance(root, Series):
        best = math.inf
        best_u = 0
        for u in range(K + 1):
            val = row_of(root.left, u)[K] + row_of(root.right, K - u)[K]
            if val < best:
                best, best_u = float(val), u
        return best, (best_u, K)
    best = math.inf
    best_uv = (0, 0)
    for u in range(K + 1):
        left_row = row_of(root.left, u)
        right_row = row_of(root.right, K - u)
        cand = np.maximum(left_row, right_row[::-1])
        v = int(np.argmin(cand))
        if cand[v] < best:
            best = float(cand[v])
            best_uv = (u, v)
    return best, best_uv


def reconstruct(dpt: DpTable, tree: DecompositionTree
                ) -> tuple[dict[str, int], dict[str, int]]:
    """Units of budget and flow per edge realizing the root entry."""
    K = dpt.K
    beta_units: dict[str, int] = {}
    flow_units: dict[str, int] = {}

    stack: list[tuple[DecompositionTree, int, int]] = []
    if dpt.root_arg is not None:
        u, v = dpt.root_arg
        if isinstance(tree, Series):
            stack += [(tree.left, u, K), (tree.right, K - u, K)]
        else:
            stack += [(tree.left, u, v), (tree.right, K - u, K - v)]
    else:
        stack.append((tree, K, K))
    while stack:
        node, k, l = stack.pop()
        if isinstance(node, Leaf):
            beta_units[node.edge_id] = k
            flow_units[node.edge_id] = l
            continue
        A = dpt.values_for(node.left)
        B = dpt.values_for(node.right)
        if isinstance(node, Series):
            u = _series_split(A, B, k, l)
            stack += [(node.left, u, l), (node.right, k - u, l)]
        else:
            u, v = _parallel_split(A, B, k, l)
            stack += [(node.left, u, v), (node.right, k - u, l - v)]
    return beta_units, flow_units


@dataclass(frozen=True)
class FptasResult:
    allocation: Allocation
    dp_value: float
    equilibrium_delay: float
    eps_target: float
    eps_internal: float
    certified_factor: float
    plan: DiscretizationPlan
    discretized_flow: dict[str, float]
    equilibrium: EquilibriumResult

    def to_json_dict(self) -> dict:
        return {
            "dp_value": self.dp_value,
            "certified_factor": self.certified_factor,
            "K": self.plan.K,
        }


def solve_fptas(inst: Instance, eps_prime: float, tol: float = 1e-8,
                k_cap: int = _DEFAULT_K_CAP, clamp: bool = False,
                tree: DecompositionTree | None = None) -> FptasResult:
    """Run the scheme end to end and play the reconstructed allocation.

    The reported delay is the true equilibrium under the reconstructed
    allocation; the table entry D(G, K, K) certifies it from above.
    """
    if not inst.single_commodity:
        raise ValidationError("the scheme handles a single commodity")
    if tree is None:
        tree = decompose_series_parallel(inst)
    plan = choose_discretization(inst, eps_prime, k_cap, clamp)
    dpt = run_dp(inst, tree, plan, lazy_root=True)
    beta_units, flow_units = reconstruct(dpt, tree)
    beta = {}
    for eid, units in beta_units.items():
        e = inst.edge_index[eid]
        if units > 0 and e.improvable:
            beta[eid] = units * dpt.budget_unit
    alloc = Allocation(beta)
    alloc.validate_for(inst)
    eq = solve_equilibrium(inst, alloc, tol=tol)
    fhat = {eid: units * dpt.flow_unit for eid, units in flow_units.items()
            if units > 0}
    return FptasResult(
        allocation=alloc,
        dp_value=dpt.root_value,
        equilibrium_delay=eq.average_delay,
        eps_target=eps_prime,
        eps_internal=plan.eps,
        certified_factor=plan.certified_factor,
        plan=plan,
        discretized_flow=fhat,
        equilibrium=eq,
    )
