import numpy as np
import pytest

from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.equilibrium import solve_equilibrium
from netimprove.errors import GridTooLarge, ValidationError
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

    def test_too_large_grid_suggests_resolution(self, fig2):
        with pytest.raises(GridTooLarge, match="resolution"):
            grid_search(fig2, GridSpec(resolution=10000, max_evals=1000))

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

    def test_trace_contains_all_points(self, fig2):
        res = grid_search(fig2, GridSpec(resolution=5), keep_trace=True)
        assert res.trace is not None
        assert len(res.trace) == count_compositions(5, 3) == res.evaluations

    def test_wheatstone_prefers_zero_budget(self, wheatstone):
        # Funding the cross edge only hurts; the oracle keeps it dry.
        res = grid_search(wheatstone, GridSpec(resolution=20))
        assert res.delay == pytest.approx(1.5, abs=1e-9)
        assert res.allocation.total() == 0.0


class TestEvaluateDelay:
    def test_closed_form_routes_validate_the_edges(self, fig2, pigou):
        # fig2 and pigou take the dipole closed form, the chain the
        # parallel-paths one; each rejects what the general solver rejects.
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
