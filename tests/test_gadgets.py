import dataclasses
import math

import numpy as np
import pytest

from netimprove import gadgets
from netimprove.core import Allocation
from netimprove.equilibrium import solve_equilibrium
from netimprove.errors import ValidationError
from netimprove.gadgets import (
    DipoleCurve,
    LAM,
    PartitionGadgetParams,
    build_2ddp_instance,
    build_partition_instance,
    dipole_delay_curve,
    series_dipole_oracle,
    verify_dipole_claim,
)
from netimprove.parallelpaths import best_single_edge_allocation

SQRT2 = math.sqrt(2.0)


class TestConstants:
    def test_lam_product(self):
        assert LAM * (LAM + 2.0) == pytest.approx(31.0, abs=1e-12)

    def test_params_for_unit_value(self):
        p = PartitionGadgetParams.for_value(1.0)
        assert p.c1 == pytest.approx(19 / 31)
        assert p.c2 == pytest.approx(12 / 31)
        assert p.mu1 == pytest.approx(4 * SQRT2 - 1)
        assert p.mu2 == pytest.approx(8 * SQRT2 - 2)
        assert p.b1 == pytest.approx(4 * SQRT2 + 1)
        assert p.demand == pytest.approx(8 * SQRT2 + 2)
        assert p.alpha == pytest.approx(1 + SQRT2)
        assert p.gamma == pytest.approx(2 + 10 * SQRT2)

    def test_gamma_is_the_common_tangent_value(self):
        for v in (1.0, 2.0, 7.0):
            curve = DipoleCurve(v)
            p = curve.params
            assert curve.fund_long_both_used(p.alpha) + p.alpha == \
                pytest.approx(p.gamma, abs=1e-9)
            assert curve.fund_short_both_used(p.alpha + v) + p.alpha + v == \
                pytest.approx(p.gamma, abs=1e-9)


class TestDipoleCurve:
    def test_values_at_tangencies(self):
        assert dipole_delay_curve(1.0, 1 + SQRT2) == \
            pytest.approx(1 + 9 * SQRT2, abs=1e-9)
        assert dipole_delay_curve(1.0, 2 + SQRT2) == \
            pytest.approx(9 * SQRT2, abs=1e-9)

    def test_strictly_above_line_off_tangency(self):
        gamma = 2 + 10 * SQRT2
        assert dipole_delay_curve(1.0, 2.0) + 2.0 > gamma + 1e-4

    def test_matches_single_edge_equilibrium(self, rng):
        # The curve must agree with the generic dipole machinery on the
        # emitted edges: best single-edge funding at budget x.
        for v in (1.0, 2.0, 0.5):
            p = PartitionGadgetParams.for_value(v)
            e_long, e_short = p.edges("s", "t", prefix="d_")
            for x in rng.uniform(0.0, 3.0 * (p.alpha + v), size=25):
                res = best_single_edge_allocation([e_long, e_short],
                                                  float(x), p.demand)
                assert res.delay == pytest.approx(
                    dipole_delay_curve(v, float(x)), rel=1e-10)

    def test_tangency_derivatives_vanish(self):
        for v in (1.0, 3.0):
            curve = DipoleCurve(v)
            p = curve.params
            h = 1e-6 * v
            for x0, branch in ((p.alpha, curve.fund_long_both_used),
                               (p.alpha + v, curve.fund_short_both_used)):
                slope = (branch(x0 + h) + (x0 + h)
                         - branch(x0 - h) - (x0 - h)) / (2 * h)
                assert abs(slope) < 1e-6

    def test_branches_strictly_convex_plus_x(self):
        curve = DipoleCurve(1.0)
        xs = np.linspace(0.0, 10.0, 400)
        for branch in (curve.fund_long_both_used, curve.fund_short_both_used):
            vals = branch(xs) + xs
            second = np.diff(vals, 2)
            assert (second > 0).all()


class TestVerifyDipoleClaim:
    @pytest.mark.parametrize("v", [1.0, 2.0, 7.0])
    def test_passes(self, v):
        report = verify_dipole_claim(v)
        assert report.passed, report.message
        assert report.min_slack >= -1e-9
        assert report.tangency_error_low <= 1e-9
        assert report.tangency_error_high <= 1e-9

    def test_scale_covariance(self):
        r1 = verify_dipole_claim(1.0)
        r7 = verify_dipole_claim(7.0)
        assert r1.passed and r7.passed

    def test_perturbed_gamma_fails(self, monkeypatch):
        p = PartitionGadgetParams.for_value(1.0)

        class Perturbed(DipoleCurve):  # the curve's line moves, not its branches
            def __init__(self, value):
                super().__init__(value)
                self.params = dataclasses.replace(self.params,
                                                  gamma=p.gamma + 1e-3)

        monkeypatch.setattr(gadgets, "DipoleCurve", Perturbed)
        report = verify_dipole_claim(1.0)
        assert not report.passed
        assert "tangency" in report.message or "below" in report.message


class TestPartitionInstance:
    def test_budget_for_pair_of_units(self):
        gadget = build_partition_instance([1.0, 1.0])
        assert gadget.instance.budget == pytest.approx(3 + 2 * SQRT2)
        assert gadget.target == pytest.approx(1 + 18 * SQRT2)
        assert gadget.applicable

    def test_budget_formula_general(self):
        gadget = build_partition_instance([3.0, 5.0, 2.0])
        assert gadget.instance.budget == pytest.approx(5 + 10 * (1 + SQRT2))

    def test_single_item_marked_not_applicable(self):
        gadget = build_partition_instance([1.0])
        assert not gadget.applicable
        assert gadget.instance.budget == pytest.approx(0.5 + 1 + SQRT2)

    def test_structure(self):
        gadget = build_partition_instance([1.0, 2.0])
        inst = gadget.instance
        assert len(inst.nodes) == 3
        assert len(inst.edges) == 4
        inst_long = inst.edge_index["d0_long"]
        assert inst_long.mu == pytest.approx(1.0 / LAM)
        assert inst.commodities[0].demand == pytest.approx(2 * (LAM + 2))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            build_partition_instance([])

    def test_solvable_partition_attains_target(self):
        # Funding the two dipoles at (alpha, alpha + v) realizes the bound.
        gadget = build_partition_instance([1.0, 1.0])
        p = gadget.params[0]
        total = 0.0
        for i, share in enumerate((p.alpha, p.alpha + 1.0)):
            total += dipole_delay_curve(1.0, share)
        assert total == pytest.approx(gadget.target, abs=1e-9)
        assert p.alpha + (p.alpha + 1.0) == pytest.approx(gadget.instance.budget)

    def test_oracle_confirms_solvable_vs_not(self):
        solvable = build_partition_instance([1.0, 1.0])
        _, best = series_dipole_oracle([1.0, 1.0], solvable.instance.budget, 40)
        assert best == pytest.approx(solvable.target, abs=0.15)
        assert best >= solvable.target - 1e-9

        uneven = build_partition_instance([1.0, 2.0])
        _, best_uneven = series_dipole_oracle([1.0, 2.0],
                                              uneven.instance.budget, 40)
        assert best_uneven >= uneven.target + 1e-3

    def test_curve_consistent_with_full_equilibrium(self):
        # End to end: fund each dipole's best edge and compare the chain
        # equilibrium with the curve sum.
        gadget = build_partition_instance([1.0, 1.0])
        inst = gadget.instance
        p = gadget.params[0]
        beta = {}
        for i, share in enumerate((p.alpha, p.alpha + 1.0)):
            e_long = inst.edge_index[f"d{i}_long"]
            e_short = inst.edge_index[f"d{i}_short"]
            pick = best_single_edge_allocation([e_long, e_short], share,
                                               p.demand)
            beta[pick.edge_id] = share
        eq = solve_equilibrium(inst, Allocation(beta))
        assert eq.average_delay == pytest.approx(gadget.target, rel=1e-9)


class TestTwoDisjointPaths:
    def test_structure_counts(self):
        inst = build_2ddp_instance(
            ["s1", "s2", "t1", "t2"], [("s1", "t1"), ("s2", "t2")],
            "s1", "s2", "t1", "t2", big_budget=10.0)
        assert len(inst.nodes) == 6
        assert len(inst.edges) == 6  # 2 inner + 4 wrap
        assert inst.budget == 10.0
        assert inst.edge_index["g0"].c == 0.0
        assert inst.edge_index["src_s2"].mu == 0.0

    def test_terminals_validated(self):
        with pytest.raises(ValidationError, match="missing"):
            build_2ddp_instance(["a"], [], "a", "b", "c", "d")

    def test_disjoint_paths_reach_three_halves(self):
        big = 1e6
        inst = build_2ddp_instance(
            ["s1", "s2", "t1", "t2"], [("s1", "t1"), ("s2", "t2")],
            "s1", "s2", "t1", "t2", big_budget=big)
        funded = ["g0", "g1", "src_s1", "t2_snk"]
        share = big / len(funded)
        eq = solve_equilibrium(inst, Allocation({e: share for e in funded}))
        assert eq.average_delay <= 1.5 + 1e-3
        assert eq.average_delay >= 1.5 - 1e-9

    def test_shared_vertex_blocks_below_two(self, rng):
        inst = build_2ddp_instance(
            ["s1", "s2", "v", "t1", "t2"],
            [("s1", "v"), ("v", "t1"), ("s2", "v"), ("v", "t2")],
            "s1", "s2", "t1", "t2", big_budget=100.0)
        # Any allocation keeps the average delay at 2 or above.
        for _ in range(25):
            raw = rng.uniform(0, 1, size=6)
            raw = raw / raw.sum() * 100.0
            beta = {eid: float(val) for eid, val in
                    zip(["g0", "g1", "g2", "g3", "src_s1", "t2_snk"], raw)}
            eq = solve_equilibrium(inst, Allocation(beta))
            assert eq.average_delay >= 2.0 - 1e-9


class TestThreeItemConsistency:
    def test_solvable_three_item_partition(self):
        # {1,2}|{3}: the curve oracle attains the bound within resolution.
        gadget = build_partition_instance([1.0, 2.0, 3.0])
        shares, best = series_dipole_oracle([1.0, 2.0, 3.0],
                                            gadget.instance.budget, 30)
        assert best >= gadget.target - 1e-9
        assert best <= gadget.target + 0.3
        # Exhaustive subset check agrees that an even split exists.
        values = [1.0, 2.0, 3.0]
        half = sum(values) / 2
        assert _subset_sums_to(values, half)

    def test_unsolvable_three_item_partition(self):
        values = [1.0, 1.0, 3.0]
        gadget = build_partition_instance(values)
        _, best = series_dipole_oracle(values, gadget.instance.budget, 30)
        half = sum(values) / 2
        assert not _subset_sums_to(values, half)
        assert best >= gadget.target + 1e-3


def _subset_sums_to(values, target):
    import itertools

    for r in range(len(values) + 1):
        for combo in itertools.combinations(values, r):
            if abs(sum(combo) - target) < 1e-12:
                return True
    return False
