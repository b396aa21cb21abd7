"""The grid oracle against a brute-force reference on seeded random graphs.

The reference evaluates every composition alone through the closed form, in
lexicographic order, and keeps the first minimum.  ``grid_search`` must give
the same delay bit for bit, the same allocation and the same evaluation
count, whatever order it visits the grid in and however it cuts it into
blocks.
"""

import math

import numpy as np
import pytest

from netimprove import oracle
from netimprove.core import Allocation, Commodity, Edge, Instance
from netimprove.oracle import GridSpec, OracleResult, grid_search


def _reference(inst, R):
    """Every grid row through the closed form as a batch of one row; the
    lexicographically first row of least delay, nan rows skipped."""
    edges = inst.improvable_edges()
    route = oracle._closed_form(inst, edges)
    best, best_row, count = math.inf, None, 0
    for block in oracle.compositions(R, len(edges) + 1):
        for row in block:
            betas = np.multiply(row[None, :-1], inst.budget / R)
            L = float(route.delays(betas)[0])
            count += 1
            if L < best:
                best, best_row = L, betas[0]
    alloc = Allocation({e.id: float(best_row[j]) for j, e in enumerate(edges)
                        if best_row[j] > 0.0})
    return OracleResult(alloc, best, count)


def _check(inst, R):
    got, want = grid_search(inst, GridSpec(resolution=R)), _reference(inst, R)
    assert got.delay == want.delay
    assert got.allocation == want.allocation
    assert got.evaluations == want.evaluations


def _graph(paths, demand, budget, order):
    """Parallel s-t paths from lists of (c, b, mu) or (c, b, mu, rigid)
    edge tuples, the edges of path p named p<p>e<k>, in the instance order
    ``order`` gives."""
    nodes, edges = ["s", "t"], []
    for p, path in enumerate(paths):
        ends = ["s"] + [f"v{p}{k}" for k in range(1, len(path))] + ["t"]
        nodes += ends[1:-1]
        for k, e in enumerate(path):
            rigid = len(e) > 3 and e[3]
            edges.append(Edge(f"p{p}e{k}", ends[k], ends[k + 1], c=e[0],
                              b=e[1], mu=0.0 if rigid else e[2], rigid=rigid))
    return Instance(nodes=tuple(nodes), edges=tuple(edges[t] for t in order),
                    commodities=(Commodity("s", "t", demand),), budget=budget)


def _edge(rng, improvable=None):
    """An affine edge of small dyadic parameters, improvable or fixed at
    random unless ``improvable`` says which."""
    if improvable is None:
        improvable = rng.random() < 0.6
    return (float(rng.integers(0, 9)) / 4 if improvable
            else float(rng.integers(1, 9)) / 4,
            float(rng.choice([0.0, 0.5, 1.0, 2.0, 3.0])),
            float(rng.integers(1, 9)) / 4 if improvable else 0.0)


def _random_graph(rng, dipole):
    """A dipole of 1-4 links or 2-4 paths of 1-3 edges, in shuffled
    instance order, sometimes with a rigid link or path."""
    if dipole:
        paths = [[_edge(rng)] for _ in range(int(rng.integers(1, 5)))]
    else:
        paths = [[_edge(rng) for _ in range(int(rng.integers(1, 4)))]
                 for _ in range(int(rng.integers(2, 5)))]
        if rng.random() < 0.3:  # a rigid edge inside a path
            paths[0].append((0.0, 0.5, 0.0, True))
    if rng.random() < 0.3:
        paths.append([(0.0, float(rng.uniform(0.5, 4.0)), 0.0, True)])
    paths.append([_edge(rng, improvable=True)])  # at least one improvable
    m = sum(map(len, paths))
    return _graph(paths, float(rng.integers(1, 17)) / 2,
                  float(rng.integers(1, 9)) / 2, rng.permutation(m))


def _resolution(inst):
    """The largest R up to 40 whose grid has at most 1,500 points."""
    parts = len(inst.improvable_edges()) + 1
    return max(R for R in range(1, 41)
               if oracle.count_compositions(R, parts) <= 1500)


@pytest.mark.parametrize("dipole", [True, False])
def test_random_graphs_match_the_reference(dipole):
    rng = np.random.default_rng(26 + dipole)
    for _ in range(25):
        inst = _random_graph(rng, dipole)
        _check(inst, _resolution(inst))


def _twins(order, mu=1.0):
    """Twin links, whose delay depends only on the sum of their budgets,
    beside a long link of improvement rate ``mu`` that no budget brings
    into use.  B / R is a power of two, so every split of a sum ties
    exactly.  With ``mu`` 0 the twin scanned last, p1e0, is the broadcast
    edge, so where it comes first in ``order`` the grid is not visited in
    lexicographic order."""
    paths = [[(1.0, 0.0, 1.0)], [(1.0, 0.0, 1.0)], [(1.0, 1e6, mu)]]
    return _graph(paths, 5.0, 4.0, order)


@pytest.mark.parametrize("order, mu", [
    ((0, 1, 2), 1.0), ((1, 0, 2), 1.0), ((2, 1, 0), 1.0), ((2, 0, 1), 1.0),
    ((1, 0, 2), 0.0), ((2, 1, 0), 0.0)])
def test_exact_ties_take_the_lexicographically_first_row(monkeypatch, order,
                                                         mu):
    inst = _twins(order, mu)
    delays = {}
    for R in (8, 16):
        _check(inst, R)
        delays[R] = grid_search(inst, GridSpec(resolution=R)).delay
    assert delays[8] == delays[16]  # every full split of the budget ties
    monkeypatch.setattr(oracle, "_GRID_ROWS", 7)  # ties across blocks
    _check(inst, 16)


def test_twin_paths_tie_exactly():
    paths = [[(1.0, 0.0, 1.0), (2.0, 0.0, 0.0)],
             [(1.0, 0.0, 1.0), (2.0, 0.0, 0.0)],
             [(1.0, 1e6, 1.0), (2.0, 0.0, 0.0)]]
    for order in ((0, 1, 2, 3, 4, 5), (4, 2, 0, 5, 3, 1)):
        _check(_graph(paths, 4.0, 2.0, order), 16)


def test_a_rigid_cap():
    # The rigid link at 1.5 caps the delay at the rows with little budget.
    paths = [[(0.5, 0.0, 1.0)], [(0.25, 1.0, 0.5)], [(0.0, 1.5, 0.0, True)],
             [(1.0, 2.0, 0.0)]]
    _check(_graph(paths, 3.0, 2.0, (3, 1, 0, 2)), 24)


def test_an_improvable_edge_on_a_dropped_path():
    # Path 1 has a fixed edge of zero conductance, so no budget opens it,
    # yet its improvable edge is a coordinate of the grid.
    paths = [[(0.5, 0.0, 1.0)], [(1.0, 0.5, 1.0), (0.0, 0.0, 0.0)],
             [(0.25, 1.0, 0.5)]]
    for order in ((0, 1, 2, 3), (1, 3, 0, 2)):
        _check(_graph(paths, 3.0, 2.0, order), 20)
    # The only coordinate is on the dropped path: no column is funded, and
    # every row has the delay of the rigid link.
    paths = [[(0.0, 2.0, 0.0, True)], [(1.0, 0.5, 1.0), (0.0, 0.0, 0.0)]]
    _check(_graph(paths, 3.0, 2.0, (0, 1, 2)), 5)


@pytest.mark.parametrize("first", [(1.5, 0.0, 0.0), (0.5, 0.0, 0.75)])
def test_a_broadcast_edge_in_the_middle_of_a_path(first):
    # The last path scanned, and used, has three edges and an improvable
    # middle one, after a fixed edge or after another improvable one.
    paths = [[(0.5, 0.0, 1.0)], [(0.25, 0.5, 0.5)],
             [first, (0.25, 0.25, 1.0), (2.0, 0.375, 0.0)]]
    for order in ((0, 1, 2, 3, 4), (3, 0, 4, 1, 2)):
        inst = _graph(paths, 8.0, 3.0, order)
        _check(inst, 16)
        assert grid_search(inst, GridSpec(resolution=16)).delay > 0.625


def test_one_improvable_edge_with_more_points_than_a_block():
    paths = [[(0.5, 0.0, 0.25)], [(1.0, 1.0, 0.0)], [(0.0, 2.0, 0.0, True)]]
    R = oracle._GRID_ROWS + 20
    _check(_graph(paths, 3.0, 2.0, (0, 1, 2)), R)


def test_blocks_of_seven_rows(monkeypatch):
    monkeypatch.setattr(oracle, "_GRID_ROWS", 7)
    rng = np.random.default_rng(7)
    for dipole in (True, False):
        for _ in range(6):
            inst = _random_graph(rng, dipole)
            _check(inst, min(_resolution(inst), 12))
    _check(_twins((2, 0, 1)), 16)
    paths = [[(0.5, 0.0, 1.0)], [(0.25, 0.5, 0.5)],
             [(0.5, 0.0, 0.75), (0.25, 0.25, 1.0), (2.0, 0.375, 0.0)]]
    _check(_graph(paths, 8.0, 3.0, (3, 0, 4, 1, 2)), 16)
    _check(_graph([[(0.5, 0.0, 0.25)], [(1.0, 1.0, 0.0)]], 3.0, 2.0, (0, 1)),
           30)
