import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from netimprove.core import (
    Allocation,
    Commodity,
    Edge,
    Instance,
    allocation_to_json,
    edge_delay,
    edge_delay_integral,
    instance_to_json,
    parse_allocation,
    parse_instance,
    path_decompose,
)
from netimprove.errors import PathCapExceeded, ValidationError
from netimprove.gadgets import build_partition_instance
from netimprove.parallelpaths import best_single_edge_allocation

FIG2_JSON = json.dumps({
    "nodes": ["s", "t"],
    "edges": [
        {"id": "e1", "tail": "s", "head": "t", "c": 0.1, "b": 90, "n": 1, "mu": 1},
        {"id": "e2", "tail": "s", "head": "t", "c": 0.2, "b": 0, "n": 1, "mu": 0.1},
    ],
    "commodities": [{"source": "s", "sink": "t", "demand": 40}],
    "budget": 3,
})


class TestParseInstance:
    def test_single_edge_document(self):
        doc = json.dumps({
            "nodes": ["s", "t"],
            "edges": [{"id": "e1", "tail": "s", "head": "t",
                       "c": 0.1, "b": 90, "n": 1, "mu": 1}],
            "commodities": [{"source": "s", "sink": "t", "demand": 40}],
            "budget": 3,
        })
        inst = parse_instance(doc)
        assert len(inst.edges) == 1
        assert inst.edges[0].c == 0.1
        assert inst.budget == 3.0

    def test_empty_edge_list_rejected(self):
        doc = json.dumps({"nodes": ["s", "t"], "edges": [],
                          "commodities": [{"source": "s", "sink": "t", "demand": 1}],
                          "budget": 0})
        with pytest.raises(ValidationError, match="no edges"):
            parse_instance(doc)

    def test_zero_exponent_rejected(self):
        doc = json.dumps({
            "nodes": ["s", "t"],
            "edges": [{"id": "e1", "tail": "s", "head": "t", "c": 1, "b": 0,
                       "n": 0, "mu": 0}],
            "commodities": [{"source": "s", "sink": "t", "demand": 1}],
            "budget": 0,
        })
        with pytest.raises(ValidationError, match="exponent must be positive"):
            parse_instance(doc)

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed"):
            parse_instance("{nope")

    def test_duplicate_edge_ids(self):
        doc = json.dumps({
            "nodes": ["s", "t"],
            "edges": [{"id": "e", "tail": "s", "head": "t", "c": 1},
                      {"id": "e", "tail": "s", "head": "t", "c": 2}],
            "commodities": [{"source": "s", "sink": "t", "demand": 1}],
            "budget": 0,
        })
        with pytest.raises(ValidationError, match="duplicate edge ids"):
            parse_instance(doc)

    def test_rigid_with_positive_mu_rejected(self):
        with pytest.raises(ValidationError, match="rigid"):
            Edge("e", "s", "t", c=1.0, mu=0.5, rigid=True)

    def test_negative_parameters_rejected(self):
        for kw in ({"c": -1.0}, {"b": -0.1}, {"mu": -2.0}):
            with pytest.raises(ValidationError):
                Edge("e", "s", "t", **kw)

    def test_non_finite_parameters_rejected(self):
        hints = {"c": "conductance", "b": "length", "n": "exponent",
                 "mu": "improvement rate"}
        for name, hint in hints.items():
            for bad in (math.inf, math.nan):
                kw = {"c": 1.0, "b": 0.0, "n": 1.0, "mu": 1.0, name: bad}
                with pytest.raises(ValidationError, match=hint):
                    Edge("e", "s", "t", **kw)

    def test_dead_end_edge_rejected(self):
        with pytest.raises(ValidationError, match="not on any source-sink"):
            Instance(
                nodes=("s", "t", "u"),
                edges=(Edge("e1", "s", "t", c=1.0),
                       Edge("e2", "s", "u", c=1.0)),
                commodities=(Commodity("s", "t", 1.0),),
                budget=0.0)

    def test_conductances_overflowing_at_the_budget_rejected(self):
        # One edge at mu * budget = 1e310, or two whose c sum to 2e308: a
        # solver would meet an infinite conductance, or a sum of them.
        big = Edge("e", "s", "t", c=1.0, mu=1e300)
        twins = (Edge("a", "s", "t", c=1e308), Edge("b", "s", "t", c=1e308))
        for edges, budget in (((big,), 1e10), (twins, 0.0)):
            with pytest.raises(ValidationError, match="over edges overflows"):
                Instance(nodes=("s", "t"), edges=edges,
                         commodities=(Commodity("s", "t", 1.0),),
                         budget=budget)
        Instance(nodes=("s", "t"), edges=(big,),
                 commodities=(Commodity("s", "t", 1.0),), budget=1.0)

    def test_zero_demand_rejected(self):
        with pytest.raises(ValidationError, match="demand"):
            Commodity("s", "t", 0.0)

    def test_disconnected_commodity_rejected(self):
        with pytest.raises(ValidationError, match="no connecting path"):
            Instance(
                nodes=("s", "t"),
                edges=(Edge("e1", "t", "s", c=1.0),),
                commodities=(Commodity("s", "t", 1.0),),
                budget=0.0)

    def test_round_trip_preserves_document(self):
        inst = parse_instance(FIG2_JSON)
        again = parse_instance(instance_to_json(inst))
        assert again == inst

    def test_allocation_round_trip(self):
        a = Allocation({"e1": 0.1 + 0.2, "e2": 1e-17})
        again = parse_allocation(allocation_to_json(a))
        assert again.get("e1") == 0.1 + 0.2
        assert again.get("e2") == 1e-17


class TestEdgeParameters:
    def test_integer_parameters_are_stored_as_floats(self):
        # An int conductance would make best_single_edge_allocation's
        # conductance rows an int array, which truncates mu * budget.
        a = Edge("a", "s", "t", c=0, b=1, mu=1)
        b = Edge("b", "s", "t", c=0, b=2, mu=1)
        assert all(type(v) is float for v in (a.c, a.b, a.n, a.mu))
        pick = best_single_edge_allocation([a, b], 0.5, 1.0)
        assert (pick.edge_id, pick.delay) == ("a", 3.0)

    @pytest.mark.parametrize("name", ["c", "b", "n", "mu"])
    def test_an_integer_beyond_float_range_is_rejected(self, name):
        with pytest.raises(ValidationError, match=f"{name} is out of"):
            Edge("a", "s", "t", **{name: 10 ** 400})


class TestEdgeDelay:
    def test_fig2_long_link(self):
        e = Edge("e1", "s", "t", c=0.1, b=90.0, n=1.0, mu=1.0)
        assert edge_delay(e, 40.0, 3.0) == pytest.approx(40.0 / 3.1 + 90.0, abs=1e-12)

    def test_zero_flow(self):
        e = Edge("e", "s", "t", c=1.0, b=0.0, n=1.0, mu=1.0)
        assert edge_delay(e, 0.0, 0.0) == 0.0

    def test_zero_conductance_is_infinite(self):
        e = Edge("e", "s", "t", c=0.0, b=0.0, n=1.0, mu=1.0)
        assert edge_delay(e, 1.0, 0.0) == math.inf
        assert edge_delay(e, 1.0, 0.5) == 2.0

    def test_rigid_ignores_flow_and_budget(self):
        e = Edge("e", "s", "t", c=0.0, b=7.0, rigid=True)
        assert edge_delay(e, 0.0) == 7.0
        assert edge_delay(e, 123.0, 0.0) == 7.0

    def test_monotone_in_flow_and_allocation(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            e = Edge("e", "s", "t", c=rng.uniform(0.01, 5), b=rng.uniform(0, 5),
                     n=rng.uniform(0.3, 3), mu=rng.uniform(0, 3))
            xs = np.sort(rng.uniform(0, 10, size=4))
            bs = np.sort(rng.uniform(0, 10, size=4))
            d_x = [edge_delay(e, x, bs[0]) for x in xs]
            assert all(a <= b + 1e-12 for a, b in zip(d_x, d_x[1:]))
            d_b = [edge_delay(e, xs[-1], b) for b in bs]
            assert all(a >= b - 1e-12 for a, b in zip(d_b, d_b[1:]))

    def test_integral_values(self):
        assert edge_delay_integral(Edge("e", "s", "t", c=1.0), 1.0) == 0.5
        assert edge_delay_integral(Edge("e", "s", "t", c=1.0, b=2.0), 1.0) == 2.5
        assert edge_delay_integral(Edge("e", "s", "t", c=1.0, n=2.0), 1.0) == \
            pytest.approx(1.0 / 3.0, abs=1e-15)


@given(
    x=st.floats(0.0, 1e6),
    y=st.floats(1e-9, 1e6),
    z=st.floats(1e-9, 1e6),
    k=st.floats(1e-9, 1e6),
)
@example(x=1e-18, y=1e-09, z=1.0, k=1e-09)
def test_mediant_comparison_identity(x, y, z, k):
    # x/y > k exactly when mixing in z units at rate k pulls the ratio down.
    # The lemma is about the rationals, so both sides are evaluated exactly:
    # in floats, the mixed ratio of the example rounds below x/y although
    # x/y > k is False.
    x, y, z, k = map(Fraction, (x, y, z, k))
    left = x / y > k
    right = (x + k * z) / (y + z) < x / y
    assert left == right


class TestPathDecompose:
    def test_single_edge(self):
        inst = Instance(nodes=("s", "t"), edges=(Edge("e", "s", "t", c=1.0),),
                        commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        out = path_decompose(inst, {"e": 1.0})
        assert out == [(("e",), 1.0)]

    def test_two_parallel_edges(self):
        inst = Instance(
            nodes=("s", "t"),
            edges=(Edge("e1", "s", "t", c=1.0), Edge("e2", "s", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        out = path_decompose(inst, {"e1": 0.5, "e2": 0.5})
        assert sorted(out) == [(("e1",), 0.5), (("e2",), 0.5)]

    def test_diamond_split_and_merge(self):
        inst = Instance(
            nodes=("s", "a", "b", "t"),
            edges=(Edge("sa", "s", "a", c=1.0), Edge("sb", "s", "b", c=1.0),
                   Edge("at", "a", "t", c=1.0), Edge("bt", "b", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        out = path_decompose(inst, {"sa": 0.3, "at": 0.3, "sb": 0.7, "bt": 0.7})
        assert len(out) == 2
        assert sum(v for _, v in out) == pytest.approx(1.0, abs=1e-12)

    def test_reconstruction_matches_input(self):
        rng = np.random.default_rng(3)
        inst = Instance(
            nodes=("s", "a", "t"),
            edges=(Edge("sa1", "s", "a", c=1.0), Edge("sa2", "s", "a", c=1.0),
                   Edge("at1", "a", "t", c=1.0), Edge("at2", "a", "t", c=1.0),
                   Edge("st", "s", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        for _ in range(50):
            x = rng.uniform(0, 1, size=5)
            fmap = {"sa1": x[0], "sa2": x[1],
                    "at1": x[2], "at2": x[0] + x[1] - x[2], "st": x[4]}
            if fmap["at2"] < 0:
                continue
            out = path_decompose(inst, fmap)
            assert len(out) <= len(inst.edges)
            rebuilt = {}
            for path, v in out:
                assert v > 0
                for eid in path:
                    rebuilt[eid] = rebuilt.get(eid, 0.0) + v
            for eid, v in fmap.items():
                assert rebuilt.get(eid, 0.0) == pytest.approx(v, abs=1e-12)

    def test_unbalanced_flow_rejected(self):
        inst = Instance(
            nodes=("s", "a", "t"),
            edges=(Edge("sa", "s", "a", c=1.0), Edge("at", "a", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1.0),), budget=0.0)
        with pytest.raises(ValidationError, match="not conserved"):
            path_decompose(inst, {"sa": 1.0, "at": 0.25})

    def test_a_flow_of_value_1e_20_decomposes(self):
        # The peeling and conservation tolerances scale with the flow.
        inst = Instance(
            nodes=("s", "a", "b", "t"),
            edges=(Edge("sa", "s", "a", c=1.0), Edge("sb", "s", "b", c=1.0),
                   Edge("at", "a", "t", c=1.0), Edge("bt", "b", "t", c=1.0)),
            commodities=(Commodity("s", "t", 1e-20),), budget=0.0)
        out = path_decompose(inst, {"sa": 3e-21, "at": 3e-21, "sb": 7e-21,
                                    "bt": 7e-21})
        assert sorted(out) == [(("sa", "at"), 3e-21), (("sb", "bt"), 7e-21)]
        with pytest.raises(ValidationError, match="not conserved"):
            path_decompose(inst, {"sa": 1e-20, "at": 0.25e-20})

    def test_two_commodities_rejected(self):
        inst = Instance(
            nodes=("s1", "s2", "t"),
            edges=(Edge("a", "s1", "t", c=1.0), Edge("b", "s2", "t", c=1.0)),
            commodities=(Commodity("s1", "t", 1.0), Commodity("s2", "t", 1.0)),
            budget=0.0)
        with pytest.raises(ValidationError, match="single commodity"):
            path_decompose(inst, {"a": 1.0, "b": 1.0})


class TestAllocation:
    def test_total_and_default(self):
        a = Allocation({"e1": 1.5, "e2": 0.0})
        assert a.total() == 1.5
        assert a.get("e9") == 0.0

    def test_budget_overrun_rejected(self, fig2):
        with pytest.raises(ValidationError, match="exceeds budget"):
            Allocation({"e1": 4.0}).validate_for(fig2)

    def test_rigid_edge_allocation_rejected(self, pigou):
        with pytest.raises(ValidationError, match="rigid"):
            Allocation({"e2": 0.0001}).validate_for(pigou)

    def test_unknown_edge_rejected(self, fig2):
        with pytest.raises(ValidationError, match="unknown edge"):
            Allocation({"zz": 0.5}).validate_for(fig2)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="not finite"):
                Allocation({"e1": bad})


def test_simple_paths_of_a_long_chain_stop_at_the_cap():
    # 1,500 two-edge dipoles in series: 2^1500 paths of 1,500 edges each,
    # deeper than the interpreter's recursion limit.
    inst = build_partition_instance([1.0] * 1500).instance
    k = inst.commodities[0]
    with pytest.raises(PathCapExceeded, match="more than 200"):
        inst.simple_paths(k.source, k.sink, cap=200)
