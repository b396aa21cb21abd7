import numpy as np
import pytest

from netimprove.core import Commodity, Edge, Instance
from netimprove.errors import NotSeriesParallel, ValidationError
from netimprove.seriesparallel import (
    Leaf,
    Parallel,
    Series,
    check_tree,
    decompose_series_parallel,
    postorder,
    tree_edge_ids,
)


def _instance(edges, source="s", sink="t"):
    """Unit links on the (edge id, tail, head) triples ``edges``, with one
    commodity from ``source`` to ``sink``."""
    nodes = dict.fromkeys(n for _, u, v in edges for n in (u, v))
    return Instance(nodes=tuple(nodes),
                    edges=tuple(Edge(eid, u, v, c=1.0, b=0.0)
                                for eid, u, v in edges),
                    commodities=(Commodity(source, sink, 1.0),), budget=0.0)


def test_single_edge_is_leaf():
    tree = decompose_series_parallel(_instance([("e", "s", "t")]))
    assert tree == Leaf("e", "s", "t")


def test_two_parallel_edges():
    tree = decompose_series_parallel(
        _instance([("e1", "s", "t"), ("e2", "s", "t")]))
    assert isinstance(tree, Parallel)
    assert sorted(tree_edge_ids(tree)) == ["e1", "e2"]


def test_two_edge_chain_is_series():
    tree = decompose_series_parallel(
        _instance([("e1", "s", "a"), ("e2", "a", "t")]))
    assert isinstance(tree, Series)
    assert (tree.source, tree.sink) == ("s", "t")


def test_wheatstone_rejected(wheatstone):
    with pytest.raises(NotSeriesParallel):
        decompose_series_parallel(wheatstone)


def test_series_of_dipoles():
    inst = _instance([("a1", "s", "m"), ("a2", "s", "m"), ("b1", "m", "t"),
                      ("b2", "m", "t")])
    tree = decompose_series_parallel(inst)
    assert isinstance(tree, Series)
    check_tree(tree, inst)


def test_instance_entry_point(fig2):
    tree = decompose_series_parallel(fig2)
    assert isinstance(tree, Parallel)
    check_tree(tree, fig2)


def test_recomposition_on_random_graphs():
    # Build random series-parallel graphs from a random composition script,
    # decompose them, and check the tree reproduces the edge structure.
    rng = np.random.default_rng(11)
    for trial in range(60):
        inst = _random_sp(rng, max_edges=10, trial=trial)
        tree = decompose_series_parallel(inst)
        check_tree(tree, inst)
        assert sorted(tree_edge_ids(tree)) == sorted(e.id for e in inst.edges)


def test_tree_edge_ids_lists_leaves_left_to_right():
    def leaves(node):
        if isinstance(node, Leaf):
            return [node.edge_id]
        return leaves(node.left) + leaves(node.right)

    tree = Series(Parallel(Leaf("a", "s", "m"),
                           Series(Leaf("b", "s", "u"), Leaf("c", "u", "m"),
                                  "s", "m"), "s", "m"),
                  Leaf("d", "m", "t"), "s", "t")
    assert tree_edge_ids(tree) == ["a", "b", "c", "d"]
    rng = np.random.default_rng(12)
    for trial in range(40):
        tree = decompose_series_parallel(
            _random_sp(rng, max_edges=10, trial=trial))
        assert tree_edge_ids(tree) == leaves(tree)


def _random_sp(rng, max_edges, trial):
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{trial}_{counter[0]}"

    def build(s, t, budget):
        eid = f"g{trial}_{counter[0]}"
        counter[0] += 1
        if budget <= 1 or rng.random() < 0.3:
            return [(eid, s, t)]
        if rng.random() < 0.5:
            mid = fresh()
            left = build(s, mid, budget // 2)
            right = build(mid, t, budget - budget // 2)
        else:
            left = build(s, t, budget // 2)
            right = build(s, t, budget - budget // 2)
        return left + right

    return _instance(build("S", "T", int(rng.integers(2, max_edges + 1))),
                     "S", "T")


def _postorder_reference(node):
    if isinstance(node, Leaf):
        return [node]
    return (_postorder_reference(node.left) + _postorder_reference(node.right)
            + [node])


def test_postorder_matches_recursive_walk():
    rng = np.random.default_rng(5)
    for trial in range(60):
        tree = decompose_series_parallel(
            _random_sp(rng, max_edges=12, trial=trial))
        got = postorder(tree)
        want = _postorder_reference(tree)
        assert [id(node) for node in got] == [id(node) for node in want]


def _deep_chain(depth):
    """A chain of ``depth`` series nodes, each with a leaf on its right."""
    tree = Leaf("e0", "s", "v0")
    for i in range(1, depth + 1):
        tree = Series(tree, Leaf(f"e{i}", f"v{i - 1}", f"v{i}"), "s", f"v{i}")
    return tree


def test_postorder_of_a_deep_tree():
    # Deeper than the default recursion limit.
    depth = 2500
    tree = _deep_chain(depth)
    got = postorder(tree)
    assert len(got) == 2 * depth + 1
    assert got[0].edge_id == "e0" and got[-1] is tree
    assert [node.edge_id for node in got[1::2]] == \
        [f"e{i}" for i in range(1, depth + 1)]
    assert all(isinstance(node, Series) for node in got[2::2])


def test_check_tree_of_a_deep_tree():
    depth = 2500
    tree = _deep_chain(depth)
    edges = [("e0", "s", "v0")] + [(f"e{i}", f"v{i - 1}", f"v{i}")
                                   for i in range(1, depth + 1)]
    end = f"v{depth}"
    check_tree(tree, _instance(edges, "s", end))
    # A link back from the end closes a cycle, and a tree rooted at the
    # end spans every edge but not the commodity's terminals.
    looped = Series(Leaf("back", end, "s"), tree, end, end)
    with pytest.raises(ValidationError, match="graph terminals"):
        check_tree(looped, _instance(edges + [("back", end, "s")], "s", end))
