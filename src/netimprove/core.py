"""Instance data model: improvable delay edges, commodities, allocations, flows.

An edge carries the congestible delay function

    delay(x, beta) = (x / (c + mu * beta)) ** n + b

where ``c`` is the base conductance, ``b`` the flow-independent length, ``n``
the congestion exponent and ``mu`` the conductance gained per unit of budget
spent on the edge.  A ``rigid`` edge ignores flow and budget entirely and
always has delay ``b`` (the limit of infinite conductance); it must have
``mu = 0``.

Instances are immutable after construction and validated eagerly: ids unique,
parameters in range, demands positive and every edge on some source-sink path
of at least one commodity.  Dead-end edges are rejected rather than pruned.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import ValidationError

__all__ = [
    "Edge",
    "Commodity",
    "Instance",
    "Allocation",
    "FlowState",
    "edge_delay",
    "edge_delay_integral",
    "effective_conductance",
    "read_json",
    "parse_instance",
    "instance_to_json",
    "parse_allocation",
    "allocation_to_json",
    "path_decompose",
]


_REAL = (int, float, numbers.Real)  # the abstract class, the slowest check, last


def _number(value, what: str, *args) -> float:
    """``value`` as a float: an int, a float or a numpy real, never a bool
    or a string; ``what.format(*args)`` names it in the ValidationError
    (formatted only then)."""
    if isinstance(value, bool) or not isinstance(value, _REAL):
        raise ValidationError(f"{what.format(*args)} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{what.format(*args)} is out of "
                              "floating-point range") from None


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str
    c: float = 0.0
    b: float = 0.0
    n: float = 1.0
    mu: float = 0.0
    rigid: bool = False

    def __post_init__(self):
        if not self.id:
            raise ValidationError("edge id must be a non-empty string")
        if self.tail == self.head:
            raise ValidationError(f"edge {self.id!r} is a self-loop")
        for name in ("c", "b", "n", "mu"):  # an int would make int arrays
            object.__setattr__(self, name, _number(
                getattr(self, name), "edge {!r}: {}", self.id, name))
        if not (self.c >= 0.0) or math.isinf(self.c):
            raise ValidationError(f"edge {self.id!r}: conductance must be finite and >= 0")
        if not (self.b >= 0.0) or math.isinf(self.b):
            raise ValidationError(f"edge {self.id!r}: length must be >= 0 and finite")
        if not (self.n > 0.0) or math.isinf(self.n):
            raise ValidationError(f"edge {self.id!r}: exponent must be positive and finite")
        if not (self.mu >= 0.0) or math.isinf(self.mu):
            raise ValidationError(
                f"edge {self.id!r}: improvement rate must be >= 0 and finite")
        if self.rigid and self.mu != 0.0:
            raise ValidationError(f"edge {self.id!r}: rigid edge must have mu = 0")

    @property
    def affine(self) -> bool:
        return self.rigid or self.n == 1.0

    @property
    def improvable(self) -> bool:
        return self.mu > 0.0 and not self.rigid


@dataclass(frozen=True)
class Commodity:
    source: str
    sink: str
    demand: float

    def __post_init__(self):
        if self.source == self.sink:
            raise ValidationError("commodity source and sink must differ")
        object.__setattr__(self, "demand", _number(self.demand, "demand"))
        if not (self.demand > 0.0) or math.isinf(self.demand):
            raise ValidationError("commodity demand must be positive and finite")


def effective_conductance(edge: Edge, beta: float) -> float:
    return edge.c + edge.mu * beta


def edge_delay(edge: Edge, x: float, beta: float = 0.0) -> float:
    """Delay on ``edge`` at flow ``x`` under allocation ``beta``.

    Zero flow gives the length ``b``; positive flow on a non-rigid edge with
    zero effective conductance gives ``inf`` (the edge is unusable).
    """
    if x < 0.0:
        raise ValidationError("flow must be >= 0")
    if beta < 0.0:
        raise ValidationError("allocation must be >= 0")
    if edge.rigid or x == 0.0:
        return edge.b
    g = effective_conductance(edge, beta)
    if g == 0.0:
        return math.inf
    return (x / g) ** edge.n + edge.b


def edge_delay_integral(edge: Edge, x: float, beta: float = 0.0) -> float:
    """Integral of the edge delay from 0 to ``x`` (one potential term).

    Closed form x**(n+1) / ((n+1) * g**n) + b*x; rigid edges contribute b*x.
    """
    if x == 0.0:
        return 0.0
    if edge.rigid:
        return edge.b * x
    g = effective_conductance(edge, beta)
    if g == 0.0:
        return math.inf
    n = edge.n
    return x ** (n + 1.0) / ((n + 1.0) * g ** n) + edge.b * x


@dataclass(frozen=True)
class Instance:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    commodities: tuple[Commodity, ...]
    budget: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "commodities", tuple(self.commodities))
        object.__setattr__(self, "budget", _number(self.budget, "budget"))
        _validate_instance(self)

    @cached_property
    def edge_index(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def out_edges(self) -> dict[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {u: [] for u in self.nodes}
        for e in self.edges:
            adj[e.tail].append(e)
        return {u: tuple(sorted(v, key=lambda e: e.id)) for u, v in adj.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[Edge, ...]]:
        adj: dict[str, list[Edge]] = {u: [] for u in self.nodes}
        for e in self.edges:
            adj[e.head].append(e)
        return {u: tuple(sorted(v, key=lambda e: e.id)) for u, v in adj.items()}

    @property
    def single_commodity(self) -> bool:
        return len(self.commodities) == 1

    @property
    def total_demand(self) -> float:
        return sum(k.demand for k in self.commodities)

    def improvable_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e in self.edges if e.improvable)

    def simple_paths(self, source: str, sink: str, cap: float = math.inf
                     ) -> tuple[tuple[str, ...], ...] | None:
        """All simple source-sink paths as tuples of edge ids, sorted, or
        None once there are more than ``cap`` of them.

        Depth-first search with an explicit stack of (vertex, out-edge
        iterator) frames, one per vertex of the current path, so a path of
        thousands of edges needs no recursion.  No path steps past the sink.
        """
        paths: list[tuple[str, ...]] = []
        path: list[str] = []
        visited = {source}
        stack = [(source, iter(self.out_edges[source]))]
        while stack:
            for e in stack[-1][1]:
                if e.head in visited:
                    continue
                if e.head == sink:
                    paths.append((*path, e.id))
                    if len(paths) > cap:
                        return None
                    continue
                visited.add(e.head)
                path.append(e.id)
                stack.append((e.head, iter(self.out_edges[e.head])))
                break
            else:
                visited.discard(stack.pop()[0])
                if path:
                    path.pop()
        return tuple(sorted(paths))


def _reachable(inst: Instance, start: str, forward: bool) -> set[str]:
    adj = inst.out_edges if forward else inst.in_edges
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for e in adj[u]:
            v = e.head if forward else e.tail
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def _validate_instance(inst: Instance) -> None:
    if not inst.nodes:
        raise ValidationError("no nodes")
    if not inst.edges:
        raise ValidationError("no edges")
    if not inst.commodities:
        raise ValidationError("no commodities")
    if len(set(inst.nodes)) != len(inst.nodes):
        raise ValidationError("duplicate node ids")
    ids = [e.id for e in inst.edges]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate edge ids")
    node_set = set(inst.nodes)
    for e in inst.edges:
        if e.tail not in node_set or e.head not in node_set:
            raise ValidationError(f"edge {e.id!r} references unknown node")
    for k in inst.commodities:
        if k.source not in node_set or k.sink not in node_set:
            raise ValidationError("commodity references unknown node")
    if not (inst.budget >= 0.0) or math.isinf(inst.budget):
        raise ValidationError("budget must be finite and >= 0")
    # Bounds every sum of conductances a solver forms, at any allocation.
    if math.isinf(sum(e.c + e.mu * inst.budget for e in inst.edges)):
        raise ValidationError("the sum of c + mu * budget over edges overflows")

    # Every edge must lie on a source-sink path of some commodity; a
    # commodity whose sink is unreachable is caught by the same sweep.
    covered: set[str] = set()
    for k in inst.commodities:
        fwd = _reachable(inst, k.source, forward=True)
        if k.sink not in fwd:
            raise ValidationError(
                f"commodity {k.source}->{k.sink} has no connecting path")
        bwd = _reachable(inst, k.sink, forward=False)
        for e in inst.edges:
            if e.tail in fwd and e.head in bwd:
                covered.add(e.id)
    stray = [e.id for e in inst.edges if e.id not in covered]
    if stray:
        raise ValidationError(
            f"edges not on any source-sink path: {sorted(stray)}")


@dataclass(frozen=True)
class Allocation:
    """Nonnegative per-edge budget amounts; edges not listed get zero."""

    beta: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        clean: dict[str, float] = {}
        for eid, v in dict(self.beta).items():
            v = _number(v, "allocation on {!r}", eid)
            if not math.isfinite(v):
                raise ValidationError(f"allocation on {eid!r} is not finite")
            if v < 0.0:
                if v < -1e-12:
                    raise ValidationError(f"allocation on {eid!r} is negative")
                v = 0.0
            if v != 0.0:
                clean[eid] = v
        object.__setattr__(self, "beta", clean)

    def get(self, edge_id: str) -> float:
        return self.beta.get(edge_id, 0.0)

    def total(self) -> float:
        return sum(self.beta.values())

    def validate_for(self, inst: Instance) -> None:
        index = inst.edge_index
        for eid, v in self.beta.items():
            e = index.get(eid)
            if e is None:
                raise ValidationError(f"allocation references unknown edge {eid!r}")
            if e.rigid and v > 0.0:
                raise ValidationError(f"allocation on rigid edge {eid!r}")
        if self.total() > inst.budget + 1e-9 * inst.budget:
            raise ValidationError(
                f"allocation total {self.total()} exceeds budget {inst.budget}")


@dataclass(frozen=True)
class FlowState:
    """Edge flows, optional per-commodity split and path decomposition."""

    edge_flow: Mapping[str, float]
    commodity_flows: tuple[Mapping[str, float], ...] | None = None
    paths: tuple[tuple[tuple[str, ...], float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "edge_flow", dict(self.edge_flow))
        if self.commodity_flows is not None:
            object.__setattr__(
                self, "commodity_flows",
                tuple(dict(m) for m in self.commodity_flows))

    def get(self, edge_id: str) -> float:
        return self.edge_flow.get(edge_id, 0.0)


def check_flow_conservation(inst: Instance, flows: Mapping[str, float],
                            source: str, sink: str, value: float) -> None:
    tol = 1e-9 * max([abs(value), *map(abs, flows.values())])
    for eid, v in flows.items():
        if eid not in inst.edge_index:
            raise ValidationError(f"flow references unknown edge {eid!r}")
        if v < -tol:
            raise ValidationError(f"negative flow on edge {eid!r}")
    for u in inst.nodes:
        net = (sum(flows.get(e.id, 0.0) for e in inst.out_edges[u])
               - sum(flows.get(e.id, 0.0) for e in inst.in_edges[u]))
        want = value if u == source else (-value if u == sink else 0.0)
        if abs(net - want) > tol:
            raise ValidationError(
                f"flow not conserved at node {u!r}: net {net}, expected {want}")


def path_decompose(inst: Instance, flow: FlowState | Mapping[str, float]
                   ) -> list[tuple[tuple[str, ...], float]]:
    """Peel the flow of a single-commodity instance into at most m
    positive-flow paths.

    Repeatedly walks a source-sink path through positive-flow edges and
    subtracts the bottleneck; each round zeroes at least one edge.  Raises
    ValidationError if the instance has more than one commodity, the flow
    is not conserved or a positive circulation remains after the full value
    is peeled off.
    """
    if not inst.single_commodity:
        raise ValidationError("path decomposition needs a single commodity")
    k = inst.commodities[0]
    fmap = dict(flow.edge_flow if isinstance(flow, FlowState) else flow)
    residual = {eid: max(0.0, v) for eid, v in fmap.items() if v != 0.0}
    value = (sum(residual.get(e.id, 0.0) for e in inst.out_edges[k.source])
             - sum(residual.get(e.id, 0.0) for e in inst.in_edges[k.source]))
    check_flow_conservation(inst, fmap, k.source, k.sink, value)

    eps = 1e-12 * value
    out: list[tuple[tuple[str, ...], float]] = []
    remaining = value
    while remaining > eps:
        path = _positive_path(inst, residual, k.source, k.sink, eps)
        if path is None:
            raise ValidationError("flow value not decomposable into paths")
        amount = min(residual[eid] for eid in path)
        amount = min(amount, remaining)
        for eid in path:
            left = residual[eid] - amount
            if left <= eps:
                residual.pop(eid, None)
            else:
                residual[eid] = left
        out.append((tuple(path), amount))
        remaining -= amount
    if any(v > 1e-7 * value for v in residual.values()):
        raise ValidationError("flow contains a positive circulation")
    return out


def _positive_path(inst, residual, source, sink, eps):
    parent: dict[str, str | None] = {source: None}
    frontier = [source]
    while frontier:
        u = frontier.pop(0)
        if u == sink:
            break
        for e in inst.out_edges[u]:
            if residual.get(e.id, 0.0) > eps and e.head not in parent:
                parent[e.head] = e.id
                frontier.append(e.head)
    if sink not in parent:
        return None
    path: list[str] = []
    u = sink
    while parent[u] is not None:
        eid = parent[u]
        path.append(eid)
        u = inst.edge_index[eid].tail
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# JSON interface


def read_json(text: str | bytes, build):
    """``build`` applied to the JSON document ``text``, the one reader of
    every input document.  A missing key raises ValidationError naming it,
    and a document of the wrong shape one saying that it is malformed; a
    ValidationError of the objects built passes through."""
    try:
        return build(json.loads(text))
    except KeyError as exc:
        raise ValidationError(f"missing field {exc}") from None
    except (ValueError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ValidationError(f"malformed document: {exc}") from None


def parse_instance(text: str | bytes) -> Instance:
    """Parse and validate the instance JSON document.  ``Edge``,
    ``Commodity`` and ``Instance`` take each number themselves, refusing a
    string or a boolean; ``rigid`` must be a JSON boolean."""
    def edge(item) -> Edge:
        rigid = item.get("rigid", False)
        if not isinstance(rigid, bool):
            raise ValidationError(f"edge {item['id']!r}: rigid must be true "
                                  "or false")
        return Edge(id=str(item["id"]), tail=str(item["tail"]),
                    head=str(item["head"]), c=item.get("c", 0.0),
                    b=item.get("b", 0.0), n=item.get("n", 1.0),
                    mu=item.get("mu", 0.0), rigid=rigid)

    return read_json(text, lambda doc: Instance(
        nodes=tuple(str(u) for u in doc["nodes"]),
        edges=tuple(map(edge, doc["edges"])),
        commodities=tuple(Commodity(source=str(k["source"]),
                                    sink=str(k["sink"]),
                                    demand=k["demand"])
                          for k in doc["commodities"]),
        budget=doc["budget"]))


def instance_to_json(inst: Instance, indent: int | None = None) -> str:
    doc = {
        "nodes": list(inst.nodes),
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head,
             "c": e.c, "b": e.b, "n": e.n, "mu": e.mu,
             **({"rigid": True} if e.rigid else {})}
            for e in inst.edges
        ],
        "commodities": [
            {"source": k.source, "sink": k.sink, "demand": k.demand}
            for k in inst.commodities
        ],
        "budget": inst.budget,
    }
    return json.dumps(doc, indent=indent)


def parse_allocation(text: str | bytes) -> Allocation:
    # .items() refuses a "beta" that is not a JSON object.
    return read_json(text, lambda doc: Allocation(dict(doc["beta"].items())))


def allocation_to_json(alloc: Allocation, indent: int | None = None) -> str:
    return json.dumps({"beta": dict(sorted(alloc.beta.items()))}, indent=indent)
