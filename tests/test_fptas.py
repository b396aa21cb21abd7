import tracemalloc

import numpy as np
import pytest

from netimprove import fptas
from netimprove.core import Commodity, Edge, Instance
from netimprove.errors import (
    DiscretizationError,
    NotSeriesParallel,
    ValidationError,
)
from netimprove.fptas import (
    DpTable,
    _dp_ops_estimate,
    _DpNode,
    _leaf_values,
    _parallel_column,
    _parallel_combine,
    _series_combine,
    _split,
    choose_discretization,
    reconstruct,
    run_dp,
    solve_fptas,
)
from netimprove.oracle import GridSpec, enumerate_discretized_minmax, grid_search
from netimprove.seriesparallel import (
    Leaf,
    Parallel,
    Series,
    decompose_series_parallel,
)

from conftest import make_dipole


def single_edge_instance(budget=1.0):
    return Instance(nodes=("s", "t"),
                    edges=(Edge("e", "s", "t", c=1.0, mu=1.0),),
                    commodities=(Commodity("s", "t", 1.0),), budget=budget)


class TestChooseDiscretization:
    def test_formulas(self, fig2):
        plan = choose_discretization(fig2, 0.6)
        assert plan.eps == pytest.approx(0.1)
        assert plan.lam == pytest.approx(0.0025)
        assert plan.K == 400

    def test_exponent_scales_epsilon(self, fig2):
        inst = Instance(
            nodes=fig2.nodes,
            edges=(fig2.edges[0],
                   Edge("e2", "s", "t", c=0.2, b=0.0, n=2.0, mu=0.1)),
            commodities=fig2.commodities, budget=3.0)
        plan = choose_discretization(inst, 0.6)
        assert plan.eps == pytest.approx(0.05)

    def test_cap_error_reports_minimal_eps(self, fig2):
        with pytest.raises(DiscretizationError, match="smallest feasible eps"):
            choose_discretization(fig2, 0.01, k_cap=5000)

    def test_cap_clamp(self, fig2):
        plan = choose_discretization(fig2, 0.01, k_cap=64, clamp=True)
        assert plan.K == 64
        assert plan.clamped
        assert plan.certified_factor == pytest.approx(
            (1.0 + 6.0 * 2.0 / 8.0) ** 2)

    def test_certified_factor_unclamped(self, fig2):
        plan = choose_discretization(fig2, 0.2)
        assert plan.K == 3600
        assert plan.certified_factor == pytest.approx(1.44)


class TestRunDp:
    def test_single_edge_full_grid(self):
        inst = single_edge_instance()
        tree = decompose_series_parallel(inst)
        dpt = run_dp(inst, tree, 4)
        vals = dpt.nodes[0].values
        assert vals[4, 4] == pytest.approx(0.5)
        assert vals[0, 4] == pytest.approx(1.0)
        assert (vals[:, 0] == 0.0).all()

    def test_matches_enumeration_on_small_graphs(self, rng):
        # Exhaustive equality between the tree recursion and raw
        # enumeration of discretized flows and allocations.
        cases = []
        cases.append(single_edge_instance())
        cases.append(make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0))
        cases.append(make_dipole([(1, 0.2, 1), (0.7, 0, 0), (0.3, 1, 2)],
                                 2.0, 1.5))
        chain = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("a", "s", "m", c=1.0, mu=1.0),
                   Edge("b", "m", "t", c=0.5, b=0.3, mu=2.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        cases.append(chain)
        mixed = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("a", "s", "m", c=1.0, mu=1.0),
                   Edge("b", "m", "t", c=0.5, b=0.3, mu=0.0, n=2.0),
                   Edge("c", "s", "t", c=0.4, b=1.0, mu=1.0),
                   Edge("d", "s", "t", c=0.0, b=0.1, mu=0.5)),
            commodities=(Commodity("s", "t", 1.0),), budget=2.0)
        cases.append(mixed)
        for inst in cases:
            tree = decompose_series_parallel(inst)
            for K in (2, 4, 6):
                dpt = run_dp(inst, tree, K, lazy_root=False)
                root_vals = dpt.values_for(tree)
                ref = enumerate_discretized_minmax(inst, K)
                mask = np.isfinite(ref) & np.isfinite(root_vals)
                assert (np.isfinite(ref) == np.isfinite(root_vals)).all()
                assert np.allclose(root_vals[mask], ref[mask],
                                   rtol=1e-12, atol=1e-12)

    def test_monotone_in_budget_and_flow(self):
        inst = make_dipole([(1, 0.2, 1), (0.5, 0, 2)], 1.0, 1.0)
        tree = decompose_series_parallel(inst)
        dpt = run_dp(inst, tree, 8, lazy_root=False)
        vals = dpt.values_for(tree)
        assert (np.diff(vals, axis=0) <= 1e-12).all()       # more budget helps
        assert (np.diff(vals, axis=1) >= -1e-12).all()      # more flow hurts

    def test_lazy_root_matches_full(self):
        inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
        tree = decompose_series_parallel(inst)
        full = run_dp(inst, tree, 12, lazy_root=False)
        lazy = run_dp(inst, tree, 12, lazy_root=True)
        assert lazy.root_value == pytest.approx(full.root_value, abs=1e-15)
        series = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("a", "s", "m", c=1.0, mu=1.0),
                   Edge("b1", "m", "t", c=0.5, b=0.3, mu=2.0),
                   Edge("b2", "m", "t", c=0.5, b=0.0, mu=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        tree = decompose_series_parallel(series)
        full = run_dp(series, tree, 10, lazy_root=False)
        lazy = run_dp(series, tree, 10, lazy_root=True)
        assert lazy.root_value == pytest.approx(full.root_value, abs=1e-15)

    def test_lazy_root_leaves_get_no_table(self):
        inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
        tree = decompose_series_parallel(inst)
        full = run_dp(inst, tree, 12, lazy_root=False)
        lazy = run_dp(inst, tree, 12, lazy_root=True)
        assert [node.values is None for node in lazy.nodes] == [True] * 3
        assert lazy.root_value == full.root_value
        assert reconstruct(lazy, tree) == reconstruct(full, tree)

    def test_ops_estimate_charges_the_merged_combine(self):
        # S(P(a, b), c): three leaves, one parallel combine of K+1 passes
        # each sorting (K+1)(2K+2) entries, and a lazy series root.
        tree = decompose_series_parallel(Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("a", "s", "m"), Edge("b", "s", "m"),
                   Edge("c", "m", "t")),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0))
        K = 700
        assert _dp_ops_estimate(tree, K, lazy_root=True) == \
            3 * 701 ** 2 + 701 * 701 * 1402 + 701
        assert _dp_ops_estimate(tree, K, lazy_root=False) == \
            3 * 701 ** 2 + 701 * 701 * 1402 + 701 ** 3 / 2
        # The literal (K+1)^4/4 count refused this grid under the default
        # cap; the merged combine's count is far below it.
        assert _dp_ops_estimate(tree, K, lazy_root=True) < 5e10 < 701 ** 4 / 4

    def test_tiny_ops_cap_refuses(self, monkeypatch):
        inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
        tree = decompose_series_parallel(inst)
        with monkeypatch.context() as m:
            m.setattr(fptas, "_OPS_CAP", 100.0)
            with pytest.raises(DiscretizationError, match="too large at K=8"):
                run_dp(inst, tree, 8)
        run_dp(inst, tree, 8)

    def test_reconstruction_realizes_root_value(self, rng):
        inst = make_dipole([(1, 0.2, 1), (0.5, 0, 2), (0.2, 0.5, 0.5)],
                           2.0, 1.5)
        tree = decompose_series_parallel(inst)
        dpt = run_dp(inst, tree, 6, lazy_root=False)
        beta_units, flow_units = reconstruct(dpt, tree)
        assert sum(beta_units.values()) == 6
        assert sum(flow_units.values()) == 6


def _replay(inst, dpt, node, beta_units, flow_units):
    # The min-max value of the reconstructed units, bottom-up.
    if isinstance(node, Leaf):
        grid = np.arange(dpt.K + 1)
        table = _leaf_values(inst.edge_index[node.edge_id],
                             grid * dpt.budget_unit, grid * dpt.flow_unit)
        return table[beta_units[node.edge_id], flow_units[node.edge_id]]
    left = _replay(inst, dpt, node.left, beta_units, flow_units)
    right = _replay(inst, dpt, node.right, beta_units, flow_units)
    return left + right if isinstance(node, Series) else max(left, right)


@pytest.mark.parametrize("lazy_root", [True, False])
def test_reconstruction_replays_to_root_value(rng, lazy_root):
    for _ in range(12):
        inst = _random_sp_instance(rng, max_edges=6)
        tree = decompose_series_parallel(inst)
        dpt = run_dp(inst, tree, int(rng.integers(2, 13)), lazy_root=lazy_root)
        beta_units, flow_units = reconstruct(dpt, tree)
        assert _replay(inst, dpt, tree, beta_units, flow_units) == \
            dpt.root_value


def _series_reference(A, B):
    # The literal recursion: first u on ties.
    K = A.shape[0] - 1
    values = np.empty_like(A)
    arg_u = np.zeros(A.shape, dtype=np.int32)
    for l in range(K + 1):
        a = A[:, l]
        b = B[:, l]
        for k in range(K + 1):
            cand = a[:k + 1] + b[k::-1]
            u = int(np.argmin(cand))
            values[k, l] = cand[u]
            arg_u[k, l] = u
    values[:, 0] = 0.0
    return values, arg_u


def _parallel_reference(A, B):
    # The literal recursion: first (u, v) in row-major order on ties.
    K = A.shape[0] - 1
    values = np.empty_like(A)
    arg_u = np.zeros(A.shape, dtype=np.int32)
    arg_v = np.zeros(A.shape, dtype=np.int32)
    for k in range(K + 1):
        a = A[:k + 1]
        b_rev = B[k::-1]
        for l in range(K + 1):
            cand = np.maximum(a[:, :l + 1], b_rev[:, l::-1])
            flat = int(np.argmin(cand))
            u, v = divmod(flat, l + 1)
            values[k, l] = cand[u, v]
            arg_u[k, l] = u
            arg_v[k, l] = v
    values[:, 0] = 0.0
    return values, arg_u, arg_v


def _random_monotone_table(rng, K):
    # Rows start at 0 and never decrease in flow.  Small integer steps make
    # exact ties and plateaus common; an inf block mimics budgets too small
    # to carry some flows.
    if rng.random() < 0.5:
        steps = rng.integers(0, 3, size=(K + 1, K + 1)).astype(float)
    else:
        steps = rng.random((K + 1, K + 1)).round(int(rng.integers(0, 3)))
    table = np.cumsum(steps, axis=1)
    if rng.random() < 0.4:
        rows = int(rng.integers(0, K + 1))
        col = int(rng.integers(1, K + 2))
        table[:rows + 1, col:] = np.inf
    table[:, 0] = 0.0
    return table


def _two_leaf_node(kind, A, B):
    # A node whose children are leaves with tables A and B.
    a, b = Leaf("a", "s", "t"), Leaf("b", "s", "t")
    dpt = DpTable(K=A.shape[0] - 1, budget_unit=1.0, flow_unit=1.0,
                  nodes=[_DpNode(a, A), _DpNode(b, B)],
                  index={id(a): 0, id(b): 1}, edges={})
    return dpt, kind(a, b, "s", "t")


def test_combines_match_literal_recursion(rng, monkeypatch):
    # Blocks of 1, 2 and 3 rows put ties across block boundaries.
    blocks = (fptas._SPLIT_ROWS, 1, 2, 3)
    for _ in range(200):
        K = int(rng.integers(0, 14))
        A = _random_monotone_table(rng, K)
        B = _random_monotone_table(rng, K)
        values, arg_u = _series_reference(A, B)
        assert np.array_equal(_series_combine(A, B), values)
        series = [((values[k, l], arg_u[k, l], l), k, l)
                  for k, l in np.ndindex(A.shape)]
        values, arg_u, arg_v = _parallel_reference(A, B)
        assert np.array_equal(_parallel_combine(A, B), values)
        parallel = [((values[k, l], arg_u[k, l], arg_v[k, l]), k, l)
                    for k, l in np.ndindex(A.shape)]
        for rows in blocks:
            monkeypatch.setattr(fptas, "_SPLIT_ROWS", rows)
            for kind, want in ((Series, series), (Parallel, parallel)):
                dpt, node = _two_leaf_node(kind, A, B)
                for ref, k, l in want:
                    assert _split(dpt, node, k, l) == ref


def test_parallel_column_is_the_last_column_of_the_combine(rng):
    for _ in range(200):
        K = int(rng.integers(0, 14))
        A = _random_monotone_table(rng, K)
        B = _random_monotone_table(rng, K)
        assert np.array_equal(_parallel_column(A, B),
                              _parallel_reference(A, B)[0][:, K:])


def _shape_instance(rng, shape):
    # "e" is an edge, ("S", a, b) and ("P", a, b) compose in series and in
    # parallel.
    edges, mids = [], []

    def build(node, s, t):
        if node == "e":
            mu = float(rng.uniform(0.3, 2.0)) if rng.random() < 0.75 else 0.0
            edges.append(Edge(f"g{len(edges)}", s, t,
                              c=float(rng.uniform(0.3, 2.0)),
                              b=float(rng.uniform(0.0, 1.0)),
                              n=float(rng.choice([1.0, 1.0, 2.0])), mu=mu))
            return
        kind, left, right = node
        if kind == "S":
            mids.append(f"v{len(mids)}")
            mid = mids[-1]
            build(left, s, mid)
            build(right, mid, t)
        else:
            build(left, s, t)
            build(right, s, t)

    build(shape, "s", "t")
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", float(rng.uniform(0.5, 3.0))),),
                    budget=float(rng.uniform(0.5, 2.0)))


@pytest.mark.parametrize("shape", [
    ("S", ("S", ("P", "e", "e"), "e"), "e"),     # a series node under the root
    ("S", ("P", "e", "e"), "e"),
    ("S", ("P", "e", ("S", "e", "e")), "e"),
    ("S", ("P", "e", "e"), ("P", "e", "e")),
    ("S", ("P", ("S", "e", "e"), "e"), ("P", "e", "e")),
    ("S", "e", ("S", ("P", ("P", "e", "e"), "e"), ("S", "e", ("P", "e", "e")))),
])
def test_root_column_tables_match_full_tables(rng, shape):
    for K in (1, 2, 7, 16, 31):
        inst = _shape_instance(rng, shape)
        tree = decompose_series_parallel(inst)
        full = run_dp(inst, tree, K, lazy_root=False)
        lazy = run_dp(inst, tree, K, lazy_root=True)
        assert lazy.root_value == full.root_value
        assert reconstruct(lazy, tree) == reconstruct(full, tree)
        # Root-column nodes hold flow K alone, and it is the full column.
        for node in lazy.nodes[:-1]:
            if node.values is not None and node.values.shape[1] == 1:
                want = full.values_for(node.tree)[:, K:]
                assert np.array_equal(node.values, want)
        assert sum(node.values is not None and node.values.shape[1] == 1
                   for node in lazy.nodes) == sum(
            not isinstance(node, Leaf) for node in _series_reach(tree))


def _series_reach(tree):
    # Nodes below the root reached through series nodes alone.
    out, stack = [], [tree] if isinstance(tree, Series) else []
    while stack:
        node = stack.pop()
        for child in (node.left, node.right):
            out.append(child)
            if isinstance(child, Series):
                stack.append(child)
    return out


def test_lazy_root_split_is_evaluated_once(monkeypatch):
    # A dipole: reconstruct visits the root and then its two leaves.
    inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
    tree = decompose_series_parallel(inst)
    want = reconstruct(run_dp(inst, tree, 12, lazy_root=False), tree)
    calls = []
    split = fptas._split
    monkeypatch.setattr(fptas, "_split",
                        lambda *args: calls.append(args[1:]) or split(*args))
    dpt = run_dp(inst, tree, 12, lazy_root=True)
    assert reconstruct(dpt, tree) == want
    assert calls == [(tree, 12, 12)]


def test_deep_tree_runs_without_recursion():
    # S(...S(S(P(e0, f0), e1), e2)..., e2500): deeper than the default
    # recursion limit, with 2,500 root-column nodes.
    depth = 2500
    nodes = ["s"] + [f"v{i}" for i in range(1, depth + 2)]
    edges = [Edge("e0", "s", "v1", c=1.0, mu=1.0),
             Edge("f0", "s", "v1", c=0.5, b=0.2, mu=0.5)]
    tree = Parallel(Leaf("e0", "s", "v1"), Leaf("f0", "s", "v1"), "s", "v1")
    for i in range(1, depth + 1):
        head = f"v{i + 1}"
        edges.append(Edge(f"e{i}", f"v{i}", head, c=1.0, b=0.1, mu=0.2))
        tree = Series(tree, Leaf(f"e{i}", f"v{i}", head), "s", head)
    inst = Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", f"v{depth + 1}", 1.0),),
                    budget=1.0)
    full = run_dp(inst, tree, 3, lazy_root=False)
    lazy = run_dp(inst, tree, 3, lazy_root=True)
    assert lazy.root_value == full.root_value
    assert reconstruct(lazy, tree) == reconstruct(full, tree)


@pytest.mark.parametrize("K", [0, -1])
def test_grid_below_one_is_rejected(K):
    inst = single_edge_instance()
    tree = decompose_series_parallel(inst)
    with pytest.raises(ValidationError, match="K >= 1"):
        run_dp(inst, tree, K)
    for clamp in (True, False):
        with pytest.raises(ValidationError, match="at least 1"):
            choose_discretization(inst, 0.5, k_cap=K, clamp=clamp)


def test_lazy_dipole_root_holds_one_block_of_rows():
    # K = 2304; one full (K+1)^2 table would take 42 MB.
    inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
    tracemalloc.start()
    try:
        res = solve_fptas(inst, 0.25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.plan.K == 2304
    assert peak < 10e6


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0, 4.0, None])
def test_leaf_rows_are_the_raw_formula_and_nondecreasing(rng, n):
    K = 60
    for _ in range(30):
        exponent = float(rng.uniform(0.2, 5.0)) if n is None else n
        c = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.01, 3.0))
        edge = Edge("e", "s", "t", c=c, b=float(rng.uniform(0.0, 2.0)),
                    n=exponent, mu=float(rng.uniform(0.1, 2.0)))
        budgets = np.arange(K + 1) * float(rng.uniform(0.01, 1.0))
        flows = np.arange(K + 1) * float(rng.uniform(0.01, 10.0))
        got = _leaf_values(edge, budgets, flows)
        g = edge.c + edge.mu * budgets
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(g[:, None] > 0.0,
                             flows[None, :] / np.maximum(g[:, None], 1e-300),
                             np.inf)
            raw = ratio ** edge.n + edge.b
        raw[:, 0] = 0.0
        assert np.array_equal(got, raw)
        assert (got[:, 1:] >= got[:, :-1]).all()


class TestSolveFptas:
    def test_single_edge_takes_budget(self):
        inst = single_edge_instance()
        res = solve_fptas(inst, 0.5)
        assert res.allocation.get("e") == pytest.approx(1.0)
        assert res.equilibrium_delay == pytest.approx(0.5)
        assert res.equilibrium_delay <= res.dp_value + 1e-9

    def test_fig2(self, fig2):
        res = solve_fptas(fig2, 0.2)
        assert res.certified_factor == pytest.approx(1.44)
        assert res.equilibrium_delay <= res.dp_value + 1e-9
        # Oracle optimum is 80; even the squared factor is far from binding.
        assert res.equilibrium_delay <= 80.0 * 1.2
        assert res.equilibrium_delay >= 80.0 - 1e-9

    def test_a_tiny_conductance_keeps_the_dp_bound(self):
        # Link a's delay at the first flow step is far above the rigid
        # link's 10, so the table's value is 10, never below the delay.
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("a", "s", "t", c=1e-305, b=0.0),
                               Edge("z", "s", "t", b=10.0, rigid=True)),
                        commodities=(Commodity("s", "t", 1e-301),),
                        budget=0.0)
        res = solve_fptas(inst, 0.25, k_cap=64, clamp=True)
        assert res.equilibrium_delay == 10.0
        assert res.dp_value >= res.equilibrium_delay

    def test_braess_rejected(self, wheatstone):
        with pytest.raises(NotSeriesParallel):
            solve_fptas(wheatstone, 0.5)

    def test_random_series_parallel_vs_oracle(self, rng):
        for trial in range(8):
            inst = _random_sp_instance(rng, max_edges=5)
            res = solve_fptas(inst, 0.25, k_cap=64, clamp=True)
            assert res.equilibrium_delay <= res.dp_value + 1e-9
            improvable = [e for e in inst.edges if e.improvable]
            spec = GridSpec(resolution=max(8, 24 // max(1, len(improvable))))
            oracle = grid_search(inst, spec)
            assert res.equilibrium_delay <= (1.25) ** 2 * oracle.delay + 1e-6

    def test_dp_flow_is_a_flow(self):
        inst = make_dipole([(1, 0, 1), (0.5, 1, 2)], 1.0, 1.0)
        res = solve_fptas(inst, 0.5)
        assert sum(res.discretized_flow.values()) == pytest.approx(1.0)


def _random_sp_instance(rng, max_edges):
    # Random series-parallel structure with affine or quadratic delays.
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    def build(s, t, budget):
        counter[0] += 1
        eid = f"g{counter[0]}"
        if budget <= 1 or rng.random() < 0.35:
            mu = float(rng.uniform(0.2, 2.0)) if rng.random() < 0.7 else 0.0
            return [Edge(eid, s, t, c=float(rng.uniform(0.2, 2.0)),
                         b=float(rng.uniform(0.0, 1.0)),
                         n=float(rng.choice([1.0, 1.0, 2.0])), mu=mu)]
        if rng.random() < 0.5:
            mid = fresh()
            return build(s, mid, budget // 2) + build(mid, t, budget - budget // 2)
        return build(s, t, budget // 2) + build(s, t, budget - budget // 2)

    while True:
        counter[0] += 100
        edges = build("s", "t", int(rng.integers(2, max_edges + 1)))
        if sum(1 for e in edges if e.improvable) == 0:
            continue
        nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
        return Instance(nodes=tuple(nodes), edges=tuple(edges),
                        commodities=(Commodity("s", "t", float(rng.uniform(0.5, 3))),),
                        budget=float(rng.uniform(0.5, 2.0)))


def test_single_item_gadget_tracks_dipole_curve():
    # One gadget dipole: the scheme's equilibrium delay lands within the
    # squared factor of the best point on the analytic delay curve.
    from netimprove.gadgets import build_partition_instance, dipole_delay_curve

    gadget = build_partition_instance([1.0])
    inst = gadget.instance
    eps = 0.25
    res = solve_fptas(inst, eps, k_cap=128, clamp=True)
    xs = np.linspace(0.0, inst.budget, 4001)
    curve_best = min(dipole_delay_curve(1.0, float(x)) for x in xs)
    assert res.equilibrium_delay <= (1 + eps) ** 2 * curve_best + 1e-6
    assert res.equilibrium_delay >= curve_best - 1e-9
    assert res.equilibrium_delay <= res.dp_value + 1e-9
