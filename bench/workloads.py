"""The three certified-solve workloads.

A job solves one instance and then checks the answer against a route that
does not share the solver's code: the exact parallel-path optimum and the
grid oracle for the relaxation, closed forms written here and the hardness
bound for the oracle, the table certificate and a replay for the scheme.
A job returns the list of checks that failed; an exception counts as a
failure too, and the run goes on.

Each workload's batch is a fixed list of strata (family, size, grid).  The
seed draws every instance inside its stratum, so seeds change the numbers
but not the mix of work, which keeps batch times comparable across seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import families
from netimprove import (copt, core, fptas, gadgets, oracle, parallelpaths,
                        seriesparallel)

# Program functions are always called through their module attributes, so
# the tracer's wrappers (tracing.py) are seen.


@dataclass
class Job:
    stratum: str
    text: str       # instance JSON, the program's only input
    params: dict = field(default_factory=dict)


def round_robin(strata):
    """Stratum keys in batch order from (key, count) pairs, taking one of
    each stratum in turn, so that a pass cut short by the time limit still
    samples every stratum."""
    order = []
    for k in range(max(count for _, count in strata)):
        order += [key for key, count in strata if k < count]
    return order


# ---------------------------------------------------------------------------
# certify-affine: relaxation, its played delay, exact optimum, grid oracle

COPT_TOL = 1e-8
AFFINE_GRID = {"full": {1: 400, 2: 200, 3: 100, 4: 48},
               "tiny": {1: 12, 2: 8, 3: 6, 4: 4}}
AFFINE_FW_ITERS = {"full": 300, "tiny": 20}
# (family, edges of each path, improvable edges), instances of each per
# batch.  Two-path graphs are left out: Frank-Wolfe stops after 2-4
# iterations on about 40% of them and runs all 300 on the rest, so their
# share of early stops would swing the batch time from seed to seed.  The
# path lengths are fixed for the same reason: a Frank-Wolfe iteration costs
# in proportion to the edges.
AFFINE_STRATA = (("dipole", (1, 1), 2), ("dipole", (1, 1, 1), 3),
                 ("dipole", (1, 1, 1, 1), 4), ("paths", (1, 1, 2), 2),
                 ("paths", (1, 2, 2), 3), ("paths", (2, 2, 2), 4))
AFFINE_COPIES = {"full": 3, "tiny": 1}


def _all_paths_used(doc) -> bool:
    """True when every path carries flow at the relaxed optimum, whatever
    the allocation.  A used path P has marginal delay 2 x_P R_P + b_P equal
    to the common level mu, and its resistance R_P is at least R_min, the
    sum of 1 / (c + mu B) over its edges.  So the flows at level
    max_P b_P sum to at most sum_P (max b - b_P) / (2 R_min); when that is
    below the demand, the level exceeds every path length.  Frank-Wolfe
    then cannot finish at a flow vertex after 2-4 iterations; it still
    stops early, after 20-100 iterations, on about one instance in ten."""
    d = doc["commodities"][0]["demand"]
    B = doc["budget"]
    paths: dict[str, list] = {}
    for e in doc["edges"]:  # dipole links e1, e2, ...; path edges p<k>e<j>
        paths.setdefault(e["id"].split("e")[0] or e["id"], []).append(e)
    lengths = [sum(e["b"] for e in es) for es in paths.values()]
    r_min = [sum(1.0 / (e["c"] + e["mu"] * B) for e in es)
             for es in paths.values()]
    top = max(lengths)
    return sum((top - b) / (2.0 * r) for b, r in zip(lengths, r_min)) < d


def affine_batch(rng, size):
    jobs = []
    strata = [(key, AFFINE_COPIES[size]) for key in AFFINE_STRATA]
    for family, lengths, improvable in round_robin(strata):
        while True:
            doc = (families.affine_dipole(rng, len(lengths))
                   if family == "dipole"
                   else families.parallel_paths(rng, lengths, improvable))
            if _all_paths_used(doc):
                break
        jobs.append(Job(f"{family}-{len(lengths)}-m{sum(lengths)}"
                        f"-p{improvable}", json.dumps(doc),
                        {"R": AFFINE_GRID[size][improvable],
                         "fw_iters": AFFINE_FW_ITERS[size]}))
    return jobs


def affine_job(job, inst, corrupt):
    res = copt.solve_copt(inst, tol=COPT_TOL, fw_iters=job.params["fw_iters"])
    played = oracle.evaluate_delay(inst, res.allocation) * corrupt
    exact = parallelpaths.solve_parallel_paths(inst, tol=1e-11)
    grid = oracle.grid_search(inst, oracle.GridSpec(resolution=job.params["R"]))
    tol = 1e-6 * max(1.0, grid.delay)
    failures = []
    if not played <= (4.0 / 3.0) * grid.delay + tol:
        failures.append(f"played {played} above 4/3 of oracle {grid.delay}")
    if not exact.delay <= grid.delay + tol:
        failures.append(f"exact {exact.delay} above oracle {grid.delay}")
    if not played >= exact.delay - tol:
        failures.append(f"played {played} below the optimum {exact.delay}")
    return failures


# ---------------------------------------------------------------------------
# oracle-general: grid search that solves one equilibrium per point

GENERAL_GRID = {"full": {"2ddp": 10, "braess": 300, "quad-2": 40, "quad-3": 24},
                "tiny": {"2ddp": 2, "braess": 12, "quad-2": 6, "quad-3": 4}}
# (stratum, instances per batch).  The 2DDP gadget has a fixed structure and
# a steady cost; it makes up over half the batch.  Two jobs cost less (Braess,
# m = 2) and two more (m = 3 at R = 24), so the median job is the middle
# 2DDP gadget, not the cheapest of them.
GENERAL_STRATA = {"full": (("2ddp", 5), ("braess", 1), ("quad-2", 1),
                           ("quad-3", 2)),
                  "tiny": (("2ddp", 1), ("braess", 1), ("quad-2", 1),
                           ("quad-3", 1))}


def general_batch(rng, size):
    jobs = []
    for stratum in round_robin(GENERAL_STRATA[size]):
        if stratum == "2ddp":
            inst = gadgets.build_2ddp_instance(
                families.SHARED_VERTEX_NODES, families.SHARED_VERTEX_EDGES,
                "s1", "s2", "t1", "t2", big_budget=float(rng.uniform(1e5, 1e6)))
            text = core.instance_to_json(inst)
        elif stratum == "braess":
            text = json.dumps(families.braess_trap(rng))
        else:
            while True:
                doc = families.quadratic_dipole(rng, int(stratum[-1]))
                if _all_links_used(doc):
                    break
            text = json.dumps(doc)
        jobs.append(Job(stratum, text, {"R": GENERAL_GRID[size][stratum]}))
    return jobs


def _all_links_used(doc) -> bool:
    """True when every link of an exponent-2 dipole carries flow under every
    allocation.  Link t carries g_t sqrt(L - b_t) at level L > b_t, and its
    conductance g_t is at most c + mu B; so when even these largest flows at
    the level max b sum to less than the demand, the equilibrium level is
    above every b.  The grid search then meets no change of the used links,
    which made one instance cost five times another at the same grid."""
    B = doc["budget"]
    top = max(e["b"] for e in doc["edges"])
    carried = sum((e["c"] + e["mu"] * B) * math.sqrt(top - e["b"])
                  for e in doc["edges"])
    return carried < doc["commodities"][0]["demand"]


def general_job(job, inst, corrupt):
    grid = oracle.grid_search(inst, oracle.GridSpec(resolution=job.params["R"]))
    L = grid.delay * corrupt
    tol = 1e-9 * max(1.0, abs(L))
    failures = []
    replay = oracle.evaluate_delay(inst, grid.allocation)
    if not abs(replay - L) <= tol:
        failures.append(f"argmin replays to {replay}, oracle reported {L}")
    if job.stratum == "2ddp":
        if not L >= 2.0 - 1e-3:
            failures.append(f"shared-vertex gadget below 2: {L}")
    elif job.stratum == "braess":
        L0 = affine_links_delay(_braess_links_unfunded(inst),
                                inst.commodities[0].demand)
        if not L <= L0 + 1e-9 * max(1.0, L0):
            failures.append(f"oracle {L} above the unfunded optimum {L0}")
    else:
        beta = grid.allocation.beta
        own = power2_links_delay(
            [(e.c + e.mu * beta.get(e.id, 0.0), e.b) for e in inst.edges],
            inst.commodities[0].demand)
        if not abs(own - L) <= 1e-7 * max(1.0, own):
            failures.append(f"closed form gives {own}, oracle reported {L}")
        free = power2_links_delay([(e.c, e.b) for e in inst.edges],
                                  inst.commodities[0].demand)
        if not L <= free + 1e-9 * max(1.0, free):
            failures.append(f"oracle {L} above the unfunded delay {free}")
    return failures


def _braess_links_unfunded(inst):
    """With the bridge unfunded the Braess network is two parallel paths,
    each an affine edge in series with a rigid one."""
    e = inst.edge_index
    return [(e["sa"].c, e["at"].b), (e["bt"].c, e["sb"].b)]


def affine_links_delay(links, d):
    """Equilibrium delay of parallel links with delay x / c + b."""
    links = sorted(links, key=lambda cb: cb[1])
    csum = cbsum = 0.0
    L = math.inf
    for t, (c, b) in enumerate(links):
        csum += c
        cbsum += c * b
        L = (d + cbsum) / csum
        if t + 1 == len(links) or L <= links[t + 1][1]:
            return L
    return L


def power2_links_delay(links, d):
    """Equilibrium delay of parallel links with delay (x / g)^2 + b, by
    bisection on the common delay L (link flow g * sqrt(L - b))."""
    def carried(L):
        return sum(g * math.sqrt(L - b) for g, b in links if L > b)

    lo = min(b for _, b in links)
    hi = min(b + (d / g) ** 2 for g, b in links if g > 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if carried(mid) < d:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# fptas-sp: decomposition, then the scheme at a clamped grid

FPTAS_EPS = 0.25
# Shapes of the series-parallel graphs (see families.series_parallel); the
# root is a series node, so every parallel node is a non-root one and the
# dynamic program fills a full (K+1)^2 table for each.
SHAPE_P1_E3 = ("S", ("P", "e", "e"), "e")
SHAPE_P1_E4 = ("S", ("P", "e", ("S", "e", "e")), "e")
SHAPE_P2_E4 = ("S", ("P", "e", "e"), ("P", "e", "e"))
SHAPE_P2_E5 = ("S", ("P", ("S", "e", "e"), "e"), ("P", "e", "e"))
# ((shape, K), instances per batch).  The DP's work is fixed by the pair,
# so seeds change only the edge parameters.
FPTAS_STRATA = {"full": (((SHAPE_P1_E3, 160), 1), ((SHAPE_P1_E4, 160), 1),
                         ((SHAPE_P1_E3, 200), 1), ((SHAPE_P1_E4, 240), 1),
                         ((SHAPE_P2_E4, 160), 1), ((SHAPE_P2_E5, 200), 1)),
                "tiny": (((SHAPE_P1_E3, 8), 1), ((SHAPE_P2_E4, 8), 1))}


def fptas_batch(rng, size):
    jobs = []
    for shape, K in round_robin(FPTAS_STRATA[size]):
        doc = families.series_parallel(rng, shape)
        label = (f"P{families.count_nodes(shape, 'P')}"
                 f"-e{families.count_nodes(shape, 'e')}-K{K}")
        jobs.append(Job(label, json.dumps(doc), {"K": K}))
    return jobs


def fptas_job(job, inst, corrupt):
    tree = seriesparallel.decompose_series_parallel(inst)
    res = fptas.solve_fptas(inst, FPTAS_EPS, tol=1e-9, clamp=True,
                            k_cap=job.params["K"], tree=tree)
    L = res.equilibrium_delay * corrupt
    failures = []
    if res.plan.K != job.params["K"]:
        failures.append(f"grid K={res.plan.K}, expected {job.params['K']}")
    if not L <= res.dp_value + 1e-6:
        failures.append(f"delay {L} above the table value {res.dp_value}")
    replay = oracle.evaluate_delay(inst, res.allocation, tol=1e-9)
    if not abs(replay - L) <= 1e-7 * max(1.0, abs(L)):
        failures.append(f"allocation replays to {replay}, scheme reported {L}")
    if not res.allocation.total() <= inst.budget * (1.0 + 1e-12):
        failures.append(f"allocation spends {res.allocation.total()}")
    return failures


@dataclass(frozen=True)
class Workload:
    name: str
    batch: object
    run: object
    copt_fw_only: bool = False


WORKLOADS = {
    "certify-affine": Workload("certify-affine", affine_batch, affine_job,
                               copt_fw_only=True),
    "oracle-general": Workload("oracle-general", general_batch, general_job),
    "fptas-sp": Workload("fptas-sp", fptas_batch, fptas_job),
}
