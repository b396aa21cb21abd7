"""Seeded instance families for the benchmark.

Every generator takes a ``numpy.random.Generator`` and returns an instance
document (the JSON schema ``netimprove.core.parse_instance`` reads), so the
program only ever sees instance JSON.  The families follow the acceptance
criteria of the test suite but are written out here, so the benchmark does
not import from ``tests/``:

* criterion 4: affine dipoles and short parallel-path graphs;
* criterion 8: the 2DDP shared-vertex gadget, plus Braess traps and
  exponent-2 dipoles that force the oracle into its general mode;
* criterion 5: series-parallel graphs, here of fixed shapes with at least
  one non-root ``Parallel`` node.
"""

from __future__ import annotations


def _edge(eid, tail, head, c, b, n=1.0, mu=0.0, rigid=False):
    doc = {"id": eid, "tail": tail, "head": head,
           "c": float(c), "b": float(b), "n": float(n), "mu": float(mu)}
    if rigid:
        doc["rigid"] = True
    return doc


def _document(edges, source, sink, demand, budget):
    nodes = sorted({e["tail"] for e in edges} | {e["head"] for e in edges})
    return {"nodes": nodes, "edges": edges,
            "commodities": [{"source": source, "sink": sink,
                             "demand": float(demand)}],
            "budget": float(budget)}


def improvable_count(doc) -> int:
    return sum(1 for e in doc["edges"]
               if e["mu"] > 0.0 and not e.get("rigid", False))


def affine_dipole(rng, m):
    """Criterion-4 dipole: m affine links, every one improvable."""
    edges = [_edge(f"e{t + 1}", "s", "t", c=rng.uniform(0.2, 2.0),
                   b=rng.uniform(0.0, 2.0), mu=rng.uniform(0.0, 2.0))
             for t in range(m)]
    return _document(edges, "s", "t", rng.uniform(1.0, 6.0),
                     rng.uniform(0.5, 2.0))


def parallel_paths(rng, lengths, improvable):
    """Criterion-4 parallel-path graph: path ``p`` has ``lengths[p]`` edges
    in series, and ``improvable`` of all the edges, drawn at random, are
    funded."""
    slots = [(p, j) for p, k in enumerate(lengths) for j in range(k)]
    funded = {slots[i] for i in rng.choice(len(slots), improvable,
                                            replace=False)}
    edges = []
    for p, j in slots:
        k = lengths[p]
        tail = "s" if j == 0 else f"p{p}m{j}"
        head = "t" if j == k - 1 else f"p{p}m{j + 1}"
        mu = rng.uniform(0.2, 2.0) if (p, j) in funded else 0.0
        edges.append(_edge(f"p{p}e{j}", tail, head, c=rng.uniform(0.2, 2.0),
                           b=rng.uniform(0.0, 1.5), mu=mu))
    return _document(edges, "s", "t", rng.uniform(1.0, 6.0),
                     rng.uniform(0.5, 3.0))


# Shared-vertex inner graph of criterion 8: every s1-t1 and s2-t2 path pair
# meets at v, so no allocation brings the average delay below 2.
SHARED_VERTEX_NODES = ("s1", "s2", "v", "t1", "t2")
SHARED_VERTEX_EDGES = (("s1", "v"), ("v", "t1"), ("s2", "v"), ("v", "t2"))


def braess_trap(rng):
    """Braess network whose only improvable edge is the zero-conductance
    bridge a->b; funding the bridge opens the paradox route."""
    c1, c2 = rng.uniform(0.5, 2.0, size=2)
    r1, r2 = rng.uniform(0.5, 1.5, size=2)
    edges = [
        _edge("sa", "s", "a", c=c1, b=0.0),
        _edge("sb", "s", "b", c=0.0, b=r2, rigid=True),
        _edge("ab", "a", "b", c=0.0, b=0.0, mu=rng.uniform(0.5, 2.0)),
        _edge("at", "a", "t", c=0.0, b=r1, rigid=True),
        _edge("bt", "b", "t", c=c2, b=0.0),
    ]
    return _document(edges, "s", "t", rng.uniform(0.5, 2.0),
                     rng.uniform(1e3, 1e6))


def quadratic_dipole(rng, m):
    """Dipole with exponent-2 delays, so grid search solves an equilibrium
    per point instead of using the affine closed form."""
    edges = [_edge(f"e{t + 1}", "s", "t", c=rng.uniform(0.3, 2.0),
                   b=rng.uniform(0.0, 1.0), n=2.0, mu=rng.uniform(0.2, 2.0))
             for t in range(m)]
    return _document(edges, "s", "t", rng.uniform(0.5, 3.0),
                     rng.uniform(0.5, 2.0))


def series_parallel(rng, shape):
    """Series-parallel graph of a fixed composition ``shape``: ``"e"`` is
    an edge, ``("S", a, b)`` puts ``a`` and ``b`` in series and
    ``("P", a, b)`` in parallel.  The seed draws the edge parameters only,
    so the dynamic program's work is the same for every seed.  Up to three
    edges are improvable and exponents are 1 or 2, as in criterion 5.
    """
    counter = [0]
    edges = []
    improvable_left = [3]

    def build(node, s, t):
        counter[0] += 1
        if node == "e":
            mu = 0.0
            if improvable_left[0] > 0 and rng.random() < 0.75:
                mu = rng.uniform(0.3, 2.0)
                improvable_left[0] -= 1
            edges.append(_edge(f"g{counter[0]}", s, t,
                               c=rng.uniform(0.3, 2.0), b=rng.uniform(0.0, 1.0),
                               n=rng.choice([1.0, 1.0, 2.0]), mu=mu))
            return
        kind, left, right = node
        if kind == "S":
            mid = f"v{counter[0]}"
            build(left, s, mid)
            build(right, mid, t)
        else:
            build(left, s, t)
            build(right, s, t)

    build(shape, "s", "t")
    if improvable_count({"edges": edges}) == 0:
        edges[0]["mu"] = float(rng.uniform(0.3, 2.0))
    return _document(edges, "s", "t", rng.uniform(0.5, 3.0),
                     rng.uniform(0.5, 2.0))


def count_nodes(shape, kind):
    """Nodes of ``kind`` (``"S"``, ``"P"`` or ``"e"``) in a shape."""
    if shape == "e":
        return int(kind == "e")
    return (int(shape[0] == kind) + count_nodes(shape[1], kind)
            + count_nodes(shape[2], kind))
