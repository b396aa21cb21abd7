"""Two-terminal series-parallel recognition and decomposition trees.

Recognition works by exhaustive reduction on a labelled multigraph: two
edges sharing both endpoints merge into a parallel node, and an internal
vertex with in-degree 1 and out-degree 1 merges its edge pair into a series
node.  A graph is two-terminal series-parallel exactly when these moves
reduce it to a single source-sink edge; the surviving label is the
decomposition tree.  Failure raises NotSeriesParallel with the irreducible
remainder in the message.  ``postorder`` is the one walk of a tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .core import Instance
from .errors import NotSeriesParallel, ValidationError

__all__ = [
    "Leaf",
    "Series",
    "Parallel",
    "DecompositionTree",
    "decompose_series_parallel",
    "tree_edge_ids",
    "check_tree",
]


@dataclass(frozen=True)
class Leaf:
    edge_id: str
    source: str
    sink: str


@dataclass(frozen=True)
class Series:
    left: "DecompositionTree"
    right: "DecompositionTree"
    source: str
    sink: str


@dataclass(frozen=True)
class Parallel:
    left: "DecompositionTree"
    right: "DecompositionTree"
    source: str
    sink: str


DecompositionTree = Union[Leaf, Series, Parallel]


def tree_edge_ids(tree: DecompositionTree) -> list[str]:
    """The leaves' edge ids, left to right."""
    return [node.edge_id for node in postorder(tree)
            if isinstance(node, Leaf)]


def postorder(tree: DecompositionTree) -> list[DecompositionTree]:
    """Every node after its children, left subtree first; an explicit
    stack, so the tree's depth is not bound by Python's recursion limit."""
    out: list[DecompositionTree] = []
    stack = [tree]
    while stack:
        node = stack.pop()
        out.append(node)    # node, right subtree, left subtree: reversed
        if not isinstance(node, Leaf):
            stack.append(node.left)
            stack.append(node.right)
    out.reverse()
    return out


def decompose_series_parallel(inst: Instance) -> DecompositionTree:
    """Decompose a single-commodity instance's graph between the
    commodity's terminals, or raise NotSeriesParallel."""
    if not inst.single_commodity:
        raise ValidationError("decomposition requires a single commodity")
    k = inst.commodities[0]
    source, sink = k.source, k.sink
    items = [(e.tail, e.head, Leaf(e.id, e.tail, e.head)) for e in inst.edges]

    live: dict[int, tuple[str, str, DecompositionTree]] = {
        i: item for i, item in enumerate(items)
    }
    next_key = len(items)

    def endpoints_count():
        indeg: dict[str, list[int]] = {}
        outdeg: dict[str, list[int]] = {}
        for key, (u, v, _) in live.items():
            outdeg.setdefault(u, []).append(key)
            indeg.setdefault(v, []).append(key)
        return indeg, outdeg

    changed = True
    while changed and len(live) > 1:
        changed = False

        # Parallel reductions: fold edges sharing both endpoints pairwise.
        groups: dict[tuple[str, str], list[int]] = {}
        for key in sorted(live):
            u, v, _ = live[key]
            groups.setdefault((u, v), []).append(key)
        for (u, v), keys in groups.items():
            while len(keys) > 1:
                a, b = keys[0], keys[1]
                merged = Parallel(live[a][2], live[b][2], u, v)
                del live[a], live[b]
                live[next_key] = (u, v, merged)
                keys = [next_key] + keys[2:]
                next_key += 1
                changed = True

        # Series reductions at internal degree-(1,1) vertices.
        indeg, outdeg = endpoints_count()
        for w in sorted(set(indeg) & set(outdeg)):
            if w in (source, sink):
                continue
            if len(indeg.get(w, ())) == 1 and len(outdeg.get(w, ())) == 1:
                a = indeg[w][0]
                b = outdeg[w][0]
                if a == b or a not in live or b not in live:
                    continue
                u = live[a][0]
                v = live[b][1]
                merged = Series(live[a][2], live[b][2], u, v)
                del live[a], live[b]
                live[next_key] = (u, v, merged)
                next_key += 1
                changed = True
                # Degree maps are stale after a merge; rebuild.
                indeg, outdeg = endpoints_count()

    if len(live) == 1:
        u, v, tree = next(iter(live.values()))
        if (u, v) == (source, sink):
            return tree
        raise NotSeriesParallel(
            f"reduced to single edge {u}->{v}, expected {source}->{sink}")
    remainder = sorted((u, v) for u, v, _ in live.values())
    raise NotSeriesParallel(
        f"irreducible remainder with {len(live)} edges: {remainder[:8]}")


def check_tree(tree: DecompositionTree, inst: Instance) -> None:
    """Verify that recomposing ``tree`` reproduces the instance's graph.

    Checks the leaf set bijects with the edge set, every leaf keeps its
    original endpoints, composition wiring is consistent (series children
    share the middle vertex, parallel children share both terminals), and
    the root spans the first commodity's terminals.
    """
    k = inst.commodities[0]
    edge_map = {e.id: (e.tail, e.head) for e in inst.edges}

    leaf_ids = tree_edge_ids(tree)
    if sorted(leaf_ids) != sorted(edge_map):
        raise ValidationError("tree leaves do not match graph edges")

    ends: list[tuple[str, str]] = []  # of the subtrees done, left to right
    for node in postorder(tree):
        if isinstance(node, Leaf):
            if edge_map[node.edge_id] != (node.source, node.sink):
                raise ValidationError(f"leaf {node.edge_id} endpoints differ")
            ends.append((node.source, node.sink))
            continue
        (rs, rt), (ls, lt) = ends.pop(), ends.pop()
        if isinstance(node, Series):
            if lt != rs:
                raise ValidationError("series children do not share a vertex")
            got = (ls, rt)
        else:
            if (ls, lt) != (rs, rt):
                raise ValidationError("parallel children terminals differ")
            got = (ls, lt)
        if got != (node.source, node.sink):
            raise ValidationError("node terminals inconsistent with children")
        ends.append(got)
    if ends.pop() != (k.source, k.sink):
        raise ValidationError("tree terminals do not match graph terminals")
