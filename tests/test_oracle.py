import warnings

import numpy as np
import pytest

from netimprove import equilibrium, oracle
from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.equilibrium import (_solve_frank_wolfe, _solve_paths,
                                    solve_equilibrium)
from netimprove.errors import GridTooLarge, Infeasible, ValidationError
from netimprove.gadgets import build_2ddp_instance
from netimprove.oracle import (
    GridSpec,
    compositions,
    count_compositions,
    enumerate_discretized_minmax,
    evaluate_delay,
    grid_search,
    sweep_segment,
)

from conftest import make_dipole
from test_frank_wolfe import _two_commodity


class TestCompositions:
    def test_counts(self):
        for total, parts in [(5, 1), (5, 2), (7, 3), (10, 4)]:
            rows = np.vstack(list(compositions(total, parts)))
            assert len(rows) == count_compositions(total, parts)
            assert (rows.sum(axis=1) == total).all()
            assert (rows >= 0).all()

    def test_lexicographic_order(self):
        rows = np.vstack(list(compositions(3, 3)))
        as_tuples = [tuple(r) for r in rows]
        assert as_tuples == sorted(as_tuples)

    def test_chunking_preserves_stream(self):
        whole = np.vstack(list(compositions(9, 4)))
        chunked = np.vstack(list(compositions(9, 4, chunk=17)))
        assert (whole == chunked).all()


def _recursive_compositions(total, parts):
    """Reference stream: one block of last-two coordinates per prefix, the
    prefixes visited depth first in lexicographic order."""
    if parts == 1:
        return np.array([[total]], dtype=np.int32)
    blocks = []

    def outer(prefix, remaining):
        if len(prefix) == parts - 2:
            last = np.arange(remaining + 1)
            block = np.empty((remaining + 1, parts), dtype=np.int32)
            block[:, :parts - 2] = prefix
            block[:, parts - 2] = last
            block[:, parts - 1] = remaining - last
            blocks.append(block)
            return
        for v in range(remaining + 1):
            outer(prefix + [v], remaining - v)

    outer([], total)
    return np.vstack(blocks)


# Every (total, parts) that the test suite and the benchmark's workloads
# (seeds 1 and 9001) enumerate, by parts.
GRIDS = {
    1: [5],
    2: [0, 1, 2, 3, 4, 5, 6, 20, 24, 40, 100, 200, 300, 400],
    3: [0, 1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 30, 40, 60, 100, 200],
    4: [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 20, 24, 30, 60, 100, 120],
    5: [6, 40, 48],
    6: [28],
    7: [3, 8, 10, 20],
}


class TestCompositionStream:
    @pytest.mark.parametrize("parts", sorted(GRIDS))
    def test_matches_recursive_reference(self, parts):
        for total in GRIDS[parts]:
            blocks = list(compositions(total, parts))
            rows = np.vstack(blocks)
            assert rows.dtype == np.int32
            assert np.array_equal(rows, _recursive_compositions(total, parts))
            assert all(len(b) <= 200_000 for b in blocks)

    def test_large_grid_comes_in_bounded_blocks(self):
        blocks = list(compositions(48, 5))
        assert len(blocks) > 1
        assert all(len(b) <= 200_000 for b in blocks)
        assert sum(len(b) for b in blocks) == count_compositions(48, 5) == 270_725

    @pytest.mark.parametrize("chunk", [1, 2, 5, 17, 54, 55, 56, 200])
    def test_small_chunks_keep_the_stream(self, chunk):
        # (9, 4) has 55 rows with first coordinate 0, so chunks below that
        # split a first coordinate by the second one.
        for total, parts in [(9, 4), (6, 5), (12, 2), (0, 3)]:
            blocks = list(compositions(total, parts, chunk=chunk))
            assert all(1 <= len(b) <= chunk for b in blocks)
            assert np.array_equal(np.vstack(blocks),
                                  _recursive_compositions(total, parts))


class TestGridSearch:
    def test_fig2_finds_the_short_link(self, fig2):
        res = grid_search(fig2, GridSpec(resolution=30))
        assert res.delay == pytest.approx(80.0, abs=1e-9)
        assert res.allocation.get("e2") == pytest.approx(3.0, abs=1e-12)
        assert res.allocation.get("e1") == 0.0

    def test_zero_budget(self, fig2):
        inst = Instance(nodes=fig2.nodes, edges=fig2.edges,
                        commodities=fig2.commodities, budget=0.0)
        res = grid_search(inst, GridSpec(resolution=10))
        assert res.allocation.total() == 0.0
        assert res.delay == pytest.approx(evaluate_delay(inst, Allocation()))

    def test_too_large_grid_suggests_resolution(self, fig2, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_EVALS", 1000)
        with pytest.raises(GridTooLarge, match="resolution"):
            grid_search(fig2, GridSpec(resolution=10000))

    def test_refinement_never_increases(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 4))
            params = [(rng.uniform(0.2, 2), rng.uniform(0, 2), rng.uniform(0, 2))
                      for _ in range(m)]
            inst = make_dipole(params, demand=float(rng.uniform(1, 5)),
                               budget=float(rng.uniform(0.5, 3)))
            l_coarse = grid_search(inst, GridSpec(resolution=8)).delay
            l_fine = grid_search(inst, GridSpec(resolution=16)).delay
            assert l_fine <= l_coarse + 1e-12

    def test_general_solver_route_matches_closed_form(self, fig2):
        # Force the generic per-point path through a non-dipole instance and
        # compare with the dipole batch on the same data reshaped.
        spec = GridSpec(resolution=12)
        closed = grid_search(fig2, spec)
        chain = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("e1a", "s", "m", c=0.1, b=45.0, mu=1.0),
                   Edge("e1b", "m", "t", c=0.1, b=45.0, mu=1.0),
                   Edge("e2", "s", "t", c=0.2, b=0.0, mu=0.1)),
            commodities=fig2.commodities, budget=3.0)
        res = grid_search(chain, spec)
        # Splitting the long link in two halves doubles its resistance, so
        # the optimum still pushes the budget to the short link.
        assert res.allocation.get("e2") == pytest.approx(3.0, abs=1e-12)
        assert closed.allocation.get("e2") == pytest.approx(3.0, abs=1e-12)

    def test_wheatstone_prefers_zero_budget(self, wheatstone):
        # Funding the cross edge only hurts; the oracle keeps it dry.
        res = grid_search(wheatstone, GridSpec(resolution=20))
        assert res.delay == pytest.approx(1.5, abs=1e-9)
        assert res.allocation.total() == 0.0

    @pytest.mark.parametrize("field, value", [
        ("resolution", 2.5), ("resolution", True), ("resolution", "4"),
        ("resolution", 0)])
    def test_spec_takes_positive_integer_sizes(self, field, value):
        with pytest.raises(ValidationError, match=field):
            GridSpec(**{field: value})
        assert GridSpec(resolution=np.int64(4))



class TestEvaluateDelay:
    def test_closed_form_routes_validate_the_edges(self, fig2, pigou):
        # fig2, pigou and the chain take the parallel-paths closed form; it
        # rejects what the general solver rejects.
        chain = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("e1a", "s", "m", c=0.1, b=45.0, mu=1.0),
                   Edge("e1b", "m", "t", c=0.1, b=45.0, mu=1.0),
                   Edge("e2", "s", "t", c=0.2, b=0.0, mu=0.1)),
            commodities=fig2.commodities, budget=3.0)
        unknown = Allocation({"e2": 1.0, "zz": 1.0})
        for inst, alloc in ((fig2, unknown), (chain, unknown),
                            (pigou, Allocation({"e2": 0.5}))):
            with pytest.raises(ValidationError):
                solve_equilibrium(inst, alloc)
            with pytest.raises(ValidationError):
                evaluate_delay(inst, alloc)

    def test_closed_form_routes_reject_over_budget_allocations(self, fig2):
        # fig2, a dipole, and the chain both take the parallel-paths scan,
        # which is defined past the budget, but the allocation is not valid.
        chain = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("e1a", "s", "m", c=0.1, b=45.0, mu=1.0),
                   Edge("e1b", "m", "t", c=0.1, b=45.0, mu=1.0),
                   Edge("e2", "s", "t", c=0.2, b=0.0, mu=0.1)),
            commodities=fig2.commodities, budget=3.0)
        over = Allocation({"e2": 3.5})
        for inst in (fig2, chain):
            batch = oracle._closed_form(inst, inst.improvable_edges(), 1)
            assert batch.func is oracle._batch_paths
            with pytest.raises(ValidationError, match="exceeds budget"):
                evaluate_delay(inst, over)

    def test_a_path_conductance_above_1e300_is_not_capped(self):
        # Two links of c = 1e305 in series conduct 5e304: at demand 1e305
        # the path's delay is 2, below the rigid link's 10.
        inst = Instance(
            nodes=("s", "m", "t"),
            edges=(Edge("a", "s", "m", c=1e305, b=0.0),
                   Edge("b", "m", "t", c=1e305, b=0.0),
                   Edge("z", "s", "t", c=0.0, b=10.0, rigid=True)),
            commodities=(Commodity("s", "t", 1e305),), budget=0.0)
        want = solve_equilibrium(inst).average_delay
        assert want == pytest.approx(2.0, rel=1e-12)
        assert evaluate_delay(inst, Allocation()) == pytest.approx(
            want, rel=1e-12)

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_every_route_rejects_a_tolerance_that_is_not_positive(
            self, fig2, wheatstone, tol):
        # fig2 takes the closed form and wheatstone the path engine; both
        # reject tol as solve_equilibrium does.
        positive = pytest.raises(ValidationError, match="tol must be positive")
        for inst in (fig2, wheatstone):
            with positive:
                solve_equilibrium(inst, tol=tol)
            with positive:
                evaluate_delay(inst, Allocation(), tol)
            with positive:
                grid_search(inst, GridSpec(resolution=4), tol)
            with positive:
                sweep_segment(inst, Allocation(), Allocation(), 4, tol)


class TestSweep:
    def test_fig2_sweep_endpoints_and_midpoint(self, fig2):
        out = sweep_segment(fig2, Allocation({"e1": 0.0, "e2": 3.0}),
                            Allocation({"e1": 3.0, "e2": 0.0}), steps=100)
        assert len(out) == 101
        assert out[0][1] == pytest.approx(80.0, abs=1e-9)
        assert out[-1][1] == pytest.approx(319.0 / 3.3, abs=1e-9)
        mid = out[50]
        assert mid[0] == pytest.approx(0.5)
        assert mid[1] == pytest.approx(184.0 / 1.95, abs=1e-9)
        chord = 0.5 * (out[0][1] + out[-1][1])
        assert mid[1] > chord  # the delay curve bows above its chord

    def test_degenerate_segment_is_constant(self, fig2):
        a = Allocation({"e1": 1.0, "e2": 1.0})
        out = sweep_segment(fig2, a, a, steps=4)
        vals = {v for _, v in out}
        assert len(vals) == 1

    @pytest.mark.parametrize("steps", [2.5, True, 0])
    def test_steps_must_be_a_positive_integer(self, fig2, steps):
        with pytest.raises(ValidationError, match="steps"):
            sweep_segment(fig2, Allocation(), Allocation({"e2": 1.0}), steps)

    def test_general_route_matches_pointwise_and_raises_when_infeasible(self):
        # Every path needs budget on sa or sb; the bridge ab keeps the graph
        # off the closed-form routes.
        bridge = Instance(
            nodes=("s", "a", "b", "t"),
            edges=(Edge("sa", "s", "a", c=0.0, mu=1.0),
                   Edge("sb", "s", "b", c=0.0, b=0.2, mu=1.0),
                   Edge("ab", "a", "b", c=1.0),
                   Edge("at", "a", "t", c=1.0, b=0.5),
                   Edge("bt", "b", "t", c=2.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        start, end = Allocation({"sb": 1.0}), Allocation({"sa": 1.0})
        out = sweep_segment(bridge, start, end, steps=8)
        for lam, val in out:
            alloc = Allocation({k: (1.0 - lam) * start.get(k) + lam * end.get(k)
                                for k in ("sa", "sb")})
            assert val == evaluate_delay(bridge, alloc)
        with pytest.raises(Infeasible):
            sweep_segment(bridge, Allocation(), end, steps=2)


class TestDiscretizedMinmax:
    def test_single_edge_table(self):
        inst = Instance(nodes=("s", "t"),
                        edges=(Edge("e", "s", "t", c=1.0, mu=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        table = enumerate_discretized_minmax(inst, K=4)
        assert table[0, 0] == 0.0
        assert table[4, 4] == pytest.approx(0.5)  # full flow, full budget
        assert table[0, 4] == pytest.approx(1.0)
        # Nonincreasing in budget, nondecreasing in flow.
        assert (np.diff(table, axis=0) <= 1e-12).all()
        assert (np.diff(table, axis=1) >= -1e-12).all()

    def test_two_parallel_edges_symmetric(self):
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", c=1.0, mu=1.0),
                   Edge("e2", "s", "t", c=1.0, mu=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=1.0)
        table = enumerate_discretized_minmax(inst, K=2)
        # Split flow and budget evenly across the twins.
        assert table[2, 2] == pytest.approx((0.5) / 1.5)


# ---------------------------------------------------------------------------
# Batched path engine against the scalar solver


def _grid_betas(inst, R):
    improvable = [e for e in inst.edges if e.improvable]
    block = np.vstack(list(compositions(R, len(improvable) + 1)))
    return improvable, block[:, :-1].astype(np.float64) * (inst.budget / R)


def _scalar_delays(inst, edges, betas):
    """One solve_equilibrium per row, as grid_search did per point."""
    out = np.empty(len(betas))
    for r, row in enumerate(betas):
        alloc = Allocation({e.id: row[j] for j, e in enumerate(edges)})
        try:
            out[r] = solve_equilibrium(inst, alloc).average_delay
        except Infeasible:
            out[r] = np.inf
    return out


def _quadratic_dipole():
    # Link e3 is long: it carries flow only once the budget on e1 and e2
    # is small, so the used links change across the grid.
    return Instance(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", c=1.0, b=0.0, n=2.0, mu=1.5),
               Edge("e2", "s", "t", c=0.5, b=0.3, n=2.0, mu=1.0),
               Edge("e3", "s", "t", c=0.8, b=1.2, n=2.0, mu=0.5)),
        commodities=(Commodity("s", "t", 2.0),), budget=2.0)


def _root_edge_at_zero_flow(b=5.0):
    # At b = 5 the n = 0.5 link is longer than the equilibrium delay at
    # every grid point, so it stays at zero flow, where its slope is
    # infinite.  At b = 0.6 it routes flow at 9 of the 35 points of R = 4.
    return Instance(
        nodes=("s", "t"),
        edges=(Edge("a", "s", "t", c=1.0, b=0.0, n=1.0, mu=1.0),
               Edge("h", "s", "t", c=2.0, b=b, n=0.5, mu=1.0),
               Edge("q", "s", "t", c=0.5, b=0.2, n=2.0, mu=0.5)),
        commodities=(Commodity("s", "t", 1.0),), budget=1.0)


def _two_commodities():
    # Commodity s2 has no usable path where b and f are both unfunded.
    return Instance(
        nodes=("s1", "s2", "m", "t"),
        edges=(Edge("a", "s1", "m", c=1.0, b=0.1, mu=1.0),
               Edge("b", "s2", "m", c=0.0, b=0.0, mu=0.5),
               Edge("c", "m", "t", c=1.0, b=0.2, mu=1.0),
               Edge("d", "s1", "t", c=0.7, b=0.9, mu=0.0),
               Edge("f", "s2", "t", c=0.0, b=0.4, mu=2.0)),
        commodities=(Commodity("s1", "t", 1.5), Commodity("s2", "t", 1.0)),
        budget=1.5)


def _braess_rigid():
    return Instance(
        nodes=("s", "a", "b", "t"),
        edges=(Edge("sa", "s", "a", c=1.3, b=0.0),
               Edge("sb", "s", "b", c=0.0, b=0.8, rigid=True),
               Edge("ab", "a", "b", c=0.0, b=0.0, mu=1.2),
               Edge("at", "a", "t", c=0.0, b=1.1, rigid=True),
               Edge("bt", "b", "t", c=0.9, b=0.0)),
        commodities=(Commodity("s", "t", 1.4),), budget=2.0)


def _shared_vertex_2ddp():
    return build_2ddp_instance(
        ["s1", "s2", "v", "t1", "t2"],
        [("s1", "v"), ("v", "t1"), ("s2", "v"), ("v", "t2")],
        "s1", "s2", "t1", "t2", big_budget=1e5)


def _quadratic_pair():
    return Instance(
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t", c=0.9, b=0.1, n=2.0, mu=1.2),
               Edge("e2", "s", "t", c=0.4, b=0.5, n=2.0, mu=0.7)),
        commodities=(Commodity("s", "t", 1.6),), budget=1.5)


def _braess_quadratic():
    # Braess with an exponent-2 first edge, improvable beside the bridge.
    return Instance(
        nodes=("s", "a", "b", "t"),
        edges=(Edge("sa", "s", "a", c=1.3, b=0.0, n=2.0, mu=0.8),
               Edge("sb", "s", "b", c=0.0, b=0.8, rigid=True),
               Edge("ab", "a", "b", c=0.0, b=0.0, mu=1.2),
               Edge("at", "a", "t", c=0.0, b=1.1, rigid=True),
               Edge("bt", "b", "t", c=0.9, b=0.0)),
        commodities=(Commodity("s", "t", 1.4),), budget=2.0)


BATCH_CASES = [(_quadratic_dipole, 12, False),
               (_root_edge_at_zero_flow, 10, False),
               (_two_commodities, 6, True),
               (_braess_rigid, 40, True),
               (_shared_vertex_2ddp, 3, True)]


class TestBatchedEngine:
    @pytest.mark.parametrize("build, R, affine", BATCH_CASES)
    def test_rows_match_the_scalar_solver(self, build, R, affine,
                                          monkeypatch):
        inst = build()
        assert oracle._closed_form(inst, inst.improvable_edges(), 1) is None
        edges, betas = _grid_betas(inst, R)
        want = _scalar_delays(inst, edges, betas)
        calls = []
        monkeypatch.setattr(oracle, "solve_equilibrium",
                            lambda *a, **k: calls.append(a) or
                            solve_equilibrium(*a, **k))
        got = oracle._batch_general(inst, 1e-8, edges, betas)
        assert not calls  # no row needed the scalar fallback
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.isfinite(want).any()
        fin = np.isfinite(want)
        if affine:
            assert np.array_equal(got, want)
        else:
            assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)
        res = grid_search(inst, GridSpec(resolution=R))
        best = int(np.argmin(want))
        assert res.delay == want[best]
        assert res.allocation == Allocation(
            {e.id: betas[best, j] for j, e in enumerate(edges)})

    @pytest.mark.parametrize("build, R", [(_quadratic_dipole, 6),
                                          (_quadratic_pair, 8),
                                          (_braess_quadratic, 8),
                                          (_two_commodity, 8)])
    def test_newton_rows_are_the_scalar_solver_bit_for_bit(self, build, R):
        # Past every 32nd row, a Newton row starts from the set a sampled
        # row settled in, and a one-row solve from its shortest paths.  A
        # row's delay depends only on the set it settles in, so the two
        # agree to the bit on every row the batch finishes.
        inst = build()
        edges, betas = _grid_betas(inst, R)
        rows = equilibrium.path_delay_rows(inst, edges, betas)
        finite = np.flatnonzero(np.isfinite(rows))
        assert len(finite) > 32
        for r in finite:
            alloc = Allocation({e.id: betas[r, j] for j, e in enumerate(edges)})
            assert solve_equilibrium(inst, alloc).average_delay == rows[r]

    def test_used_links_change_across_the_grid(self):
        # The exponent-2 dipole case exercises drops and adds: the long
        # link carries flow at some grid points and none at others.
        inst = _quadratic_dipole()
        edges, betas = _grid_betas(inst, 12)
        used = set()
        for row in betas:
            alloc = Allocation({e.id: row[j] for j, e in enumerate(edges)})
            eq = solve_equilibrium(inst, alloc)
            used.add(eq.flow.get("e3") > 0.0)
        assert used == {True, False}

    def test_failed_newton_rows_fall_back_to_the_scalar_solver(self,
                                                               monkeypatch):
        # Make Newton fail wherever the n = 0.5 link is funded below 0.5:
        # the batch leaves exactly those rows open, and each goes to
        # solve_equilibrium, which warns that the engine stalled and
        # finishes by Frank-Wolfe within tol; the engine alone gives None.
        inst = _root_edge_at_zero_flow(b=0.6)
        edges, betas = _grid_betas(inst, 4)
        want = _scalar_delays(inst, edges, betas)
        h = inst.edges.index(inst.edge_index["h"])
        beta_h = betas[:, edges.index(inst.edge_index["h"])]
        forced = (beta_h > 0.0) & (beta_h < 0.5)
        real = equilibrium._PathBatch._newton

        def stalling(self, aset, G, scale):
            z, ok = real(self, aset, G, scale)
            funded = G[:, h] - inst.edges[h].c  # mu = 1 on h
            return z, ok & ~((funded > 0.0) & (funded < 0.5))

        monkeypatch.setattr(equilibrium._PathBatch, "_newton", stalling)
        open_rows = np.isnan(equilibrium.path_delay_rows(inst, edges, betas))
        assert open_rows.tolist() == forced.tolist() and forced.any()

        calls = []

        def one_row(inst_r, alloc, **kw):
            with pytest.warns(RuntimeWarning,
                              match="path engine stalled; Frank-Wolfe"):
                res = solve_equilibrium(inst_r, alloc, **kw)
            assert _solve_paths(inst_r, alloc) is None
            calls.append((alloc, res))
            return res

        monkeypatch.setattr(oracle, "solve_equilibrium", one_row)
        got = oracle._batch_general(inst, 1e-8, edges, betas)
        assert [a for a, _ in calls] == [
            Allocation({e.id: row[j] for j, e in enumerate(edges)})
            for row in betas[forced]]
        assert all(res.flow.paths is None and res.duality_gap <= 1e-8
                   for _, res in calls)
        assert np.allclose(got[~forced], want[~forced], rtol=1e-12, atol=0.0)
        assert np.allclose(got[forced], want[forced], rtol=1e-8, atol=0.0)

    def test_root_edge_grid_settles_in_the_batch(self):
        # Where the n = 0.5 link starts to carry flow, Newton's equalization
        # drives a path flow negative on the way; with odd-extended delays
        # the drop rule removes that path.  No row is left open, and every
        # row agrees with Frank-Wolfe at tol 1e-10 within 1e-10 relative.
        inst = _root_edge_at_zero_flow(b=0.6)
        edges, betas = _grid_betas(inst, 10)
        rows = equilibrium.path_delay_rows(inst, edges, betas)
        assert not np.isnan(rows).any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for L, row in zip(rows, betas):
                alloc = Allocation({e.id: row[j] for j, e in enumerate(edges)})
                res = solve_equilibrium(inst, alloc)
                fw = _solve_frank_wolfe(inst, alloc, 1e-10)
                assert res.average_delay == L
                assert res.duality_gap <= 1e-8
                assert res.average_delay == pytest.approx(fw.average_delay,
                                                          rel=1e-10)

    def test_singular_rows_are_solved_by_least_squares(self, monkeypatch):
        M = np.array([[[2.0, 1.0], [1.0, 3.0]],
                      [[1.0, 2.0], [2.0, 4.0]],
                      [[4.0, 0.0], [1.0, 1.0]]])
        rhs = np.array([[1.0, 2.0], [1.0, 1.0], [3.0, 5.0]])
        z = equilibrium._solve_rows(M, rhs)
        for r in (0, 2):
            assert np.array_equal(z[r], np.linalg.solve(M[r], rhs[r]))
        assert np.array_equal(z[1], np.linalg.lstsq(M[1], rhs[1],
                                                    rcond=None)[0])

        # Make every stacked solve and every second single system of a
        # Braess grid singular: those rows are solved by least squares in
        # the batch, none reaches solve_equilibrium, and every value still
        # matches the unforced solver.
        inst = _braess_rigid()
        edges, betas = _grid_betas(inst, 20)
        want = _scalar_delays(inst, edges, betas)
        real = np.linalg.solve
        singles = []

        def every_other_singular(M, rhs):
            if M.ndim == 2:
                singles.append(len(singles) % 2 == 0)
            if M.ndim > 2 or singles[-1]:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(M, rhs)

        calls = []
        monkeypatch.setattr(np.linalg, "solve", every_other_singular)
        monkeypatch.setattr(oracle, "solve_equilibrium",
                            lambda *a, **k: calls.append(a) or
                            solve_equilibrium(*a, **k))
        got = oracle._batch_general(inst, 1e-8, edges, betas)
        assert not calls and any(singles)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.allclose(got[fin], want[fin], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("build, R, affine", BATCH_CASES)
    def test_path_engine_matches_frank_wolfe(self, build, R, affine):
        # Frank-Wolfe shares no code with the path engine but the edge
        # delays and the certificate, so it checks the grid's values
        # independently: at four grid points, the same delays within what
        # a relative gap of 1e-10 allows, or Infeasible from both.
        inst = build()
        edges, betas = _grid_betas(inst, R)
        rows = betas[np.linspace(0, len(betas) - 1, 4).astype(int)]
        grid = oracle._batch_general(inst, 1e-8, edges, rows)
        for L, row in zip(grid, rows):
            alloc = Allocation({e.id: row[j] for j, e in enumerate(edges)})
            if np.isinf(L):
                with pytest.raises(Infeasible):
                    _solve_frank_wolfe(inst, alloc, 1e-8)
                continue
            paths = _solve_paths(inst, alloc)
            fw = _solve_frank_wolfe(inst, alloc, 1e-10)
            assert paths.average_delay == L
            assert fw.average_delay == pytest.approx(L, rel=1e-8)
            assert fw.common_delay == pytest.approx(paths.common_delay,
                                                    rel=1e-8)

    def test_potential_overflow_returns_the_scalar_solvers_delay(self):
        # The link st's conductance of 1e-300 puts the potential at demand
        # 1e200 out of floating-point range in any flow unit near the
        # demand, but every delay is finite: the relative gap needs no
        # unit, so the grid rows and solve_equilibrium give the same L.
        base = _braess_rigid()
        inst = Instance(nodes=base.nodes,
                        edges=base.edges + (Edge("st", "s", "t", c=1e-300,
                                                 b=1e250),),
                        commodities=(Commodity("s", "t", 1e200),),
                        budget=base.budget)
        edges, betas = _grid_betas(inst, 4)
        want = _scalar_delays(inst, edges, betas)
        assert np.isfinite(want).all()
        assert want == pytest.approx(1e200 / 2.2, rel=1e-12)
        assert np.array_equal(
            equilibrium.path_delay_rows(inst, edges, betas), want)
        assert grid_search(inst, GridSpec(resolution=4)).delay == want.min()

    def test_path_cap_sends_every_row_to_the_scalar_solver(self,
                                                           monkeypatch):
        # Eight stages of two parallel links: 256 simple paths, over the
        # path engine's cap of 200, so solve_equilibrium takes Frank-Wolfe.
        nodes = [f"v{i}" for i in range(9)]
        edges = []
        for i in range(8):
            edges.append(Edge(f"a{i}", nodes[i], nodes[i + 1], c=1.0, b=0.1,
                              mu=1.0 if i == 0 else 0.0))
            edges.append(Edge(f"b{i}", nodes[i], nodes[i + 1], c=2.0, b=0.3))
        inst = Instance(nodes=tuple(nodes), edges=tuple(edges),
                        commodities=(Commodity("v0", "v8", 1.0),), budget=1.0)
        edges, betas = _grid_betas(inst, 2)
        calls = []
        monkeypatch.setattr(oracle, "solve_equilibrium",
                            lambda *a, **k: calls.append(a) or
                            solve_equilibrium(*a, **k))
        got = oracle._batch_general(inst, 1e-6, edges, betas)
        assert len(calls) == len(betas) == 3
        for r, (inst_r, alloc) in enumerate(calls):
            assert got[r] == solve_equilibrium(inst, alloc,
                                               tol=1e-6).average_delay
