import numpy as np
import pytest
from hypothesis import settings, strategies as st

from netimprove.core import Allocation, Commodity, Edge, Instance

# Derandomized, so that a property that fails in CI fails alike locally.
settings.register_profile("ci", derandomize=True, deadline=None)


@pytest.fixture
def fig2():
    """Two parallel links, delays x/0.1 + 90 and x/0.2, demand 40, budget 3.

    Closed-form anchors: allocation (0, 3) routes everything on the short
    link for delay 80; allocation (3, 0) uses both links for 319/3.3; the
    midpoint (1.5, 1.5) gives 184/1.95.
    """
    return Instance(
        nodes=("s", "t"),
        edges=(
            Edge("e1", "s", "t", c=0.1, b=90.0, n=1.0, mu=1.0),
            Edge("e2", "s", "t", c=0.2, b=0.0, n=1.0, mu=0.1),
        ),
        commodities=(Commodity("s", "t", 40.0),),
        budget=3.0,
    )


@pytest.fixture
def pigou():
    """Congestible link against a rigid unit-delay link, demand 1."""
    return Instance(
        nodes=("s", "t"),
        edges=(
            Edge("e1", "s", "t", c=1.0, b=0.0, n=1.0, mu=0.0),
            Edge("e2", "s", "t", c=0.0, b=1.0, mu=0.0, rigid=True),
        ),
        commodities=(Commodity("s", "t", 1.0),),
        budget=0.0,
    )


@pytest.fixture
def wheatstone():
    """Braess graph: cross edge unusable until it receives budget."""
    return Instance(
        nodes=("s", "a", "b", "t"),
        edges=(
            Edge("sa", "s", "a", c=1.0, b=0.0, n=1.0, mu=0.0),
            Edge("sb", "s", "b", c=0.0, b=1.0, mu=0.0, rigid=True),
            Edge("ab", "a", "b", c=0.0, b=0.0, n=1.0, mu=1.0),
            Edge("at", "a", "t", c=0.0, b=1.0, mu=0.0, rigid=True),
            Edge("bt", "b", "t", c=1.0, b=0.0, n=1.0, mu=0.0),
        ),
        commodities=(Commodity("s", "t", 1.0),),
        budget=1.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def make_dipole(params, demand, budget):
    """Dipole instance from (c, b, mu) or (c, b, mu, rigid) link tuples."""
    edges = []
    for t, p in enumerate(params):
        rigid = len(p) > 3 and p[3]
        edges.append(Edge(f"e{t+1}", "s", "t", c=p[0], b=p[1], n=1.0,
                          mu=0.0 if rigid else p[2], rigid=rigid))
    return Instance(nodes=("s", "t"), edges=tuple(edges),
                    commodities=(Commodity("s", "t", demand),), budget=budget)


def alloc(**beta):
    return Allocation(beta)


# A float from 1e-300 to below 1e300, its decimal exponent drawn evenly.
MAGNITUDE = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99),
                      st.integers(-300, 299))
PARAMETER = st.one_of(st.just(0.0), MAGNITUDE)


@st.composite
def extreme_dipoles(draw, budget=PARAMETER):
    """Instance documents of 1 to 6 links s->t with n = 1 whose c, b and mu
    are 0 or a ``MAGNITUDE``, about one in six rigid, at a ``MAGNITUDE``
    of demand and a budget drawn from ``budget``."""
    edges = []
    for t in range(draw(st.integers(1, 6))):
        rigid = draw(st.integers(0, 5)) == 0
        edges.append({"id": f"e{t + 1}", "tail": "s", "head": "t",
                      "c": 0.0 if rigid else draw(PARAMETER),
                      "b": draw(PARAMETER), "n": 1.0,
                      "mu": 0.0 if rigid else draw(PARAMETER),
                      "rigid": rigid})
    return {"nodes": ["s", "t"], "edges": edges,
            "commodities": [{"source": "s", "sink": "t",
                             "demand": draw(MAGNITUDE)}],
            "budget": draw(budget)}
