"""Hard-instance generators and the two-edge dipole delay curve.

Partition family.  Each item of value v becomes a two-edge dipole whose
optimal single-edge-funding delay L(x), as a function of the dipole's
budget share x, hugs the line gamma - x from above and touches it at
exactly two budgets, alpha and alpha + v.  Chaining the dipoles in series
makes the instance's optimal delay sum the per-dipole curves, so hitting
the collective lower bound requires choosing, per item, one of the two
tangent budgets; the choice set sums to the full budget exactly when the
item values admit an even split.  The constants below realize the two
tangencies on one line:

    delta = 19/31,  lam = 4*sqrt(2) - 1        (so lam * (lam + 2) = 31)
    c1 = delta / v          long edge, length b1 = (lam + 2) * v
    c2 = (1 - delta) / v    short edge, length 0
    mu1 = lam * v**2        budget needed per unit of conductance
    mu2 = 2 * lam * v**2    (twice as expensive on the short edge)
    demand = 2 * (lam + 2)
    alpha = (1 + sqrt(2)) * v,  gamma = 2 * v * (5 * sqrt(2) + 1)

Note the cost convention: mu1, mu2 price a unit of conductance, so the
conductance bought with x is c + x / mu; the emitted edges therefore carry
Edge.mu = 1 / mu1 and 1 / mu2 (Edge.mu multiplies the budget).

Disjoint-paths family.  An inner directed graph with terminals s1, s2, t1
and t2 is wrapped with a fresh source and sink; inner edges start unusable
(zero conductance, improvement rate one), the wrap edges pin the delays so
that routing is cheap exactly when vertex-disjoint s1-t1 and s2-t2 paths
exist: then funding those paths yields average delay approaching 3/2,
while any shared vertex forces at least 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import Commodity, Edge, Instance
from .errors import ValidationError
from .oracle import compositions

__all__ = [
    "DELTA",
    "LAM",
    "PartitionGadgetParams",
    "DipoleCurve",
    "PartitionGadget",
    "build_partition_instance",
    "dipole_delay_curve",
    "verify_dipole_claim",
    "DipoleClaimReport",
    "series_dipole_oracle",
    "build_2ddp_instance",
]

DELTA = 19.0 / 31.0
LAM = 4.0 * math.sqrt(2.0) - 1.0
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class PartitionGadgetParams:
    value: float
    c1: float
    c2: float
    mu1: float
    mu2: float
    b1: float
    demand: float
    alpha: float
    gamma: float

    @classmethod
    def for_value(cls, v: float) -> "PartitionGadgetParams":
        if not (v > 0.0):
            raise ValidationError("item value must be positive")
        return cls(
            value=v,
            c1=DELTA / v, c2=(1.0 - DELTA) / v,
            mu1=LAM * v * v, mu2=2.0 * LAM * v * v,
            b1=(LAM + 2.0) * v,
            demand=2.0 * (LAM + 2.0),
            alpha=(1.0 + _SQRT2) * v,
            gamma=2.0 * v * (5.0 * _SQRT2 + 1.0),
        )

    def edges(self, tail: str, head: str, prefix: str) -> tuple[Edge, Edge]:
        return (
            Edge(f"{prefix}long", tail, head, c=self.c1, b=self.b1,
                 n=1.0, mu=1.0 / self.mu1),
            Edge(f"{prefix}short", tail, head, c=self.c2, b=0.0,
                 n=1.0, mu=1.0 / self.mu2),
        )


class DipoleCurve:
    """Optimal single-edge-funding delay of one gadget dipole vs. budget."""

    def __init__(self, value: float):
        self.params = PartitionGadgetParams.for_value(value)

    def fund_long_both_used(self, x):
        p = self.params
        g1 = p.c1 + x / p.mu1
        return (p.demand + p.b1 * g1) / (g1 + p.c2)

    def fund_short_both_used(self, x):
        p = self.params
        return (p.demand + p.b1 * p.c1) / (p.c1 + p.c2 + x / p.mu2)

    def fund_short_only_short_used(self, x):
        p = self.params
        return p.demand / (p.c2 + x / p.mu2)

    def optimal(self, x):
        """min over the two funding choices, used set resolved per case."""
        p = self.params
        c3 = self.fund_short_only_short_used(x)
        fund_short = np.where(c3 <= p.b1, c3, self.fund_short_both_used(x))
        out = np.minimum(self.fund_long_both_used(x), fund_short)
        return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def dipole_delay_curve(v: float, x: float) -> float:
    """Best delay of the value-v gadget dipole given budget x."""
    if x < 0.0:
        raise ValidationError("budget must be >= 0")
    return DipoleCurve(v).optimal(x)


@dataclass(frozen=True)
class DipoleClaimReport:
    passed: bool
    value: float
    min_slack: float
    tangency_error_low: float
    tangency_error_high: float
    message: str


def verify_dipole_claim(v: float) -> DipoleClaimReport:
    """Check that the dipole curve stays above the line gamma - x with
    equality only at the two tangent budgets, on 1,000 budgets within 1e-9.

    A regression tripwire: any drift in the gadget constants shows up as a
    negative slack or a tangency error.
    """
    curve = DipoleCurve(v)
    p = curve.params
    tol = 1e-9
    xs = np.linspace(0.0, 3.0 * (p.alpha + v), 1000)
    slack = curve.optimal(xs) + xs - p.gamma
    i_min = int(np.argmin(slack))
    min_slack = float(slack[i_min])
    err_low = abs(curve.optimal(p.alpha) + p.alpha - p.gamma)
    err_high = abs(curve.optimal(p.alpha + v) + (p.alpha + v) - p.gamma)
    short_margin = float(np.min(
        curve.fund_short_only_short_used(xs) + xs - p.gamma))
    floor = (4.0 * v * math.sqrt(31.0) - 24.0 * v * LAM / 31.0) - p.gamma

    problems = []
    if min_slack < -tol:
        problems.append(f"curve dips {-min_slack:.3e} below the line "
                        f"near x={xs[i_min]:.6g}")
    if err_low > tol:
        problems.append(f"tangency at alpha off by {err_low:.3e}")
    if err_high > tol:
        problems.append(f"tangency at alpha+v off by {err_high:.3e}")
    if short_margin <= max(floor - tol * abs(p.gamma), 0.0):
        problems.append("short-only branch is not strictly above the line")
    return DipoleClaimReport(
        passed=not problems, value=v, min_slack=min_slack,
        tangency_error_low=err_low, tangency_error_high=err_high,
        message="; ".join(problems) if problems else "ok")


class PartitionGadget(NamedTuple):
    instance: Instance
    target: float
    params: tuple[PartitionGadgetParams, ...]
    applicable: bool


def build_partition_instance(values: Sequence[float]) -> PartitionGadget:
    """Series chain of gadget dipoles encoding an even-split question.

    Budget is V + sum(alpha_i) with V = sum(values) / 2; the optimal delay
    equals ``target`` exactly when some subset of the values sums to V.
    Single-item inputs are emitted for curve testing but flagged as not
    applicable (no proper subset question exists).
    """
    values = [float(v) for v in values]
    if not values:
        raise ValidationError("no item values")
    params = tuple(PartitionGadgetParams.for_value(v) for v in values)
    half = sum(values) / 2.0
    nodes = [f"n{i}" for i in range(len(values) + 1)]
    edges: list[Edge] = []
    for i, p in enumerate(params):
        edges.extend(p.edges(nodes[i], nodes[i + 1], prefix=f"d{i}_"))
    inst = Instance(
        nodes=tuple(nodes),
        edges=tuple(edges),
        commodities=(Commodity(nodes[0], nodes[-1], params[0].demand),),
        budget=half + sum(p.alpha for p in params),
    )
    target = sum(p.gamma - p.alpha for p in params) - half
    return PartitionGadget(inst, target, params, applicable=len(values) >= 2)


def series_dipole_oracle(values: Sequence[float], budget: float,
                         resolution: int) -> tuple[tuple[float, ...], float]:
    """Grid search over per-dipole budget shares on the curve oracle."""
    curves = [DipoleCurve(v) for v in values]
    unit = budget / resolution
    best = math.inf
    best_row = None
    for block in compositions(resolution, len(values) + 1):
        shares = block[:, :-1].astype(np.float64) * unit
        total = np.zeros(len(shares))
        for j, curve in enumerate(curves):
            total += curve.optimal(shares[:, j])
        idx = int(np.argmin(total))
        if total[idx] < best:
            best = float(total[idx])
            best_row = shares[idx].copy()
    return tuple(float(x) for x in best_row), best


def build_2ddp_instance(inner_nodes: Sequence[str],
                        inner_edges: Sequence[tuple[str, str]],
                        s1: str, s2: str, t1: str, t2: str,
                        big_budget: float = 1e6) -> Instance:
    """Wrap a directed graph in the disjoint-paths hardness frame.

    Inner edges get zero conductance, zero length and unit improvement
    rate; the wrap edges make an s1-t1 plus s2-t2 routing worth delay 3/2
    when realizable on vertex-disjoint paths and at least 2 otherwise.
    """
    inner_nodes = list(inner_nodes)
    for term in (s1, s2, t1, t2):
        if term not in inner_nodes:
            raise ValidationError(f"terminal {term!r} missing from inner graph")
    if len({s1, s2, t1, t2}) != 4:
        raise ValidationError("the four terminals must be distinct")
    if "src" in inner_nodes or "snk" in inner_nodes:
        raise ValidationError("inner node names 'src' and 'snk' are reserved")
    edges = [Edge(f"g{j}", u, v, c=0.0, b=0.0, n=1.0, mu=1.0)
             for j, (u, v) in enumerate(inner_edges)]
    edges += [
        Edge("src_s1", "src", s1, c=1.0, b=1.0, n=1.0, mu=1.0),
        Edge("src_s2", "src", s2, c=1.0, b=0.0, n=1.0, mu=0.0),
        Edge("t1_snk", t1, "snk", c=1.0, b=0.0, n=1.0, mu=0.0),
        Edge("t2_snk", t2, "snk", c=1.0, b=1.0, n=1.0, mu=1.0),
    ]
    return Instance(
        nodes=tuple(["src"] + inner_nodes + ["snk"]),
        edges=tuple(edges),
        commodities=(Commodity("src", "snk", 1.0),),
        budget=big_budget,
    )
