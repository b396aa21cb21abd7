"""The link-major used-set scan and the grid blocks that feed it.

``parallel_links_delay_batch`` walks the sorted links one column at a time,
keeping the least prefix delay.  It must give the floats of a row-wise
cumulative-sum reference, kept below, and come within 4 ulps of the exact
least prefix delay; the grid oracle must not depend on how many rows it
hands the scan at once, nor on the searches before it.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netimprove import oracle
from netimprove.core import (Allocation, Commodity, Edge, Instance,
                             parse_instance)
from netimprove.equilibrium import (_Scan, _solve_paths,
                                    dipole_delay_rows, length_unit,
                                    parallel_links_delay_batch,
                                    solve_parallel_links_equilibrium)
from netimprove.errors import Infeasible, ValidationError
from netimprove.oracle import (GridSpec, evaluate_delay, grid_search,
                               sweep_segment)
from netimprove.parallelpaths import (as_parallel_paths,
                                      best_single_edge_allocation)

from conftest import extreme_dipoles, make_dipole


def reference_scan(c_eff, b, d, cap=math.inf):
    """The row-wise scan: cumulative sums, a prefix whose delay is inf taken
    again in the length unit where its sum is at least 2^-5 there, then the
    least delay over the prefixes with conductance, nan skipped, and the
    cap."""
    if c_eff.shape[1] == 0:
        return np.full(c_eff.shape[0], cap)
    den = np.cumsum(c_eff, axis=1)
    u = length_unit(max(float(c_eff.max()), 1.0), max(float(b[-1]), d),
                    b.size + 1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        M = (np.cumsum(c_eff * b, axis=1) + d) / den
        far = np.cumsum(c_eff * (b / u), axis=1) + d / u
        M = np.where(np.isinf(M) & (far >= 2.0 ** -5), far / den * u, M)
    return np.fmin.reduce(np.where(den > 0.0, M, np.nan), axis=1,
                          initial=cap)


def exact_scan(c, b, d, cap=math.inf):
    """The least prefix delay of one row in rational arithmetic, under the
    cap; None where no prefix has conductance and no cap is set."""
    best = None if math.isinf(cap) else Fraction(cap)
    num, den = Fraction(d), Fraction(0)
    for ck, bk in zip(c.tolist(), b.tolist()):
        num += Fraction(ck) * Fraction(bk)
        den += Fraction(ck)
        if den > 0 and (best is None or num / den < best):
            best = num / den
    return best


def _within_4_ulps(got, want):
    """Whether the float ``got`` is the exact ``want`` to 4 ulps, inf where
    ``want`` is None and nan where it is out of the float range."""
    if want is None:
        return math.isinf(got)
    if want > Fraction(sys.float_info.max):
        return math.isnan(got)
    return (math.isfinite(got) and abs(Fraction(got) - want)
            <= 4 * Fraction(math.ulp(float(want))))


def _tie_rows(rng, b, d, rows):
    """Rows whose delay over the first k + 1 columns is exactly b[k + 1]:
    conductances are small integers, and the one of column k is chosen so
    that d = sum_j c_j (b[k + 1] - b_j), which the lengths and d keep exact.
    Every other row has its first conductance scaled by 1 + eps, for eps of
    both signs from 1e-16 to 1e-10, to land on either side of the tie."""
    m = len(b)
    out = []
    while len(out) < rows:
        k = int(rng.integers(0, m - 1))
        c = rng.integers(0, 3, m).astype(float)
        c[k] = 0.0
        rest = d - sum(c[j] * (b[k + 1] - b[j]) for j in range(k))
        if rest <= 0.0 or (rest / (b[k + 1] - b[k])) % 1.0:
            continue
        c[k] = rest / (b[k + 1] - b[k])
        out.append(c)
    out = np.array(out)
    eps = [s * 10.0 ** (-e / 2) for e in range(20, 33) for s in (1, -1)]
    out[1::2, 0] *= 1.0 + np.resize(eps, len(out[1::2]))
    return out


def _cases(rng):
    """(c_eff, b, d, cap) batches covering every branch of the scan."""
    for _ in range(40):
        m = int(rng.integers(1, 7))
        b = np.sort(rng.uniform(0.0, 5.0, m))
        if rng.random() < 0.3:
            b[1:] = b[:-1]  # equal lengths
            b = np.sort(b)
        c = rng.uniform(0.0, 3.0, (200, m))
        c[rng.random((200, m)) < 0.3] = 0.0  # zero conductance anywhere
        c[:20, 0] = 0.0  # a zero first column
        c[20:30] = 0.0  # rows with no usable column
        d = float(rng.uniform(0.1, 20.0))
        cap = float(rng.uniform(0.0, 6.0)) if rng.random() < 0.5 else math.inf
        yield c, b, d, cap
    b = np.array([0.0, 1.0, 3.0, 4.0, 7.0])
    for scale, d in ((1.0, 2.0), (1.0, 6.0), (1.0, 12.0), (0.125, 0.25),
                     (0.125, 0.75)):  # delays above and below 1
        yield _tie_rows(rng, b * scale, d, 200), b * scale, d, math.inf
    # Lengths whose products with the conductances overflow.
    b = np.sort(rng.uniform(1.0, 1.7, 4)) * 1e308
    yield rng.uniform(1.0, 1e10, (50, 4)), b, 1e300, math.inf
    # A delay above the float range in the first column, then in range or
    # not in the second.
    yield np.full((5, 2), 1e-300), np.array([0.0, 1.0]), 1e10, math.inf
    yield np.tile([1e-300, 1.0], (5, 1)), np.array([0.0, 1.0]), 1e10, math.inf
    yield np.zeros((7, 0)), np.zeros(0), 3.0, 2.5
    yield np.zeros((7, 0)), np.zeros(0), 3.0, math.inf


def test_scan_matches_the_cumsum_reference(rng):
    # A row whose delay is inf although a column conducts is out of range,
    # and the scan gives it nan.
    ties = overflow = out_of_range = 0
    for c, b, d, cap in _cases(rng):
        want = reference_scan(c, b, d, cap)
        beyond = np.isinf(want) & (c > 0.0).any(axis=1)
        want[beyond] = np.nan
        for layout in (np.ascontiguousarray(c), np.asfortranarray(c)):
            got = parallel_links_delay_batch(layout, b, d, cap)
            assert np.array_equal(got, want, equal_nan=True)
        if c.shape[1] > 1:
            ties += int(np.isin(want, b[1:]).sum())
        overflow += int(c.size and length_unit(c.max(), b[-1], b.size) > 1.0)
        out_of_range += int(beyond.sum())
    assert ties > 100 and overflow and out_of_range


def test_scan_in_a_rows_buffer_matches_fresh_scratch(rng):
    # The grid scans the columns that rows share once, then takes that
    # state into a buffer wider than a short block that holds the last
    # block's values, and scans the rest there; the rows come out bit for
    # bit as one scan of every row in fresh scratch.
    for c, b, d, cap in _cases(rng):
        n, m = c.shape
        if not m:
            continue
        split = int(rng.integers(0, m + 1))
        idx = np.sort(rng.integers(0, n, 2 * n))
        full = c[idx]
        full[:, split:] = rng.permutation(full[:, split:])  # rows differ
        want = parallel_links_delay_batch(full, b, d, cap)
        u = length_unit(max(float(full.max()), 1.0), max(float(b[-1]), d),
                        m + 1)
        shared = _Scan.start(n, cap, u)
        rows = rng.standard_normal((6, len(idx) + 3))
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for k in range(split):
                shared.step(c[:, k], b[k], d)
            scan = shared.take(idx, rows)
            for k in range(split, m):
                scan.step(full[:, k], b[k], d)
        got = scan.delays()
        assert got.tobytes() == want.tobytes()
        assert np.shares_memory(got, rows)


def test_scan_is_within_4_ulps_of_the_exact_least_prefix(rng):
    # Rows near a tie included: the delay of the used set is the least
    # prefix delay, which a tolerance on the window test overshoots.
    rows = 0
    for c, b, d, cap in _cases(rng):
        got = parallel_links_delay_batch(c, b, d, cap)
        for r in range(len(c)):
            want = exact_scan(c[r], b, d, cap)
            assert _within_4_ulps(got[r], want), (c[r], b, d, cap, got[r])
            rows += want is not None
    assert rows > 8000


@settings(max_examples=300)
@given(extreme_dipoles(budget=st.just(0.0)))
def test_scan_of_extreme_dipoles_is_exact_or_rejects(doc):
    # At magnitudes from 1e-300 to 1e300 the scan gives the least prefix
    # delay to 4 ulps, nan only where that delay is out of the float range
    # and inf only where there is none.
    links = parse_instance(json.dumps(doc)).edges
    d = doc["commodities"][0]["demand"]
    G = np.array([[e.c for e in links]])
    order = sorted((t for t, e in enumerate(links) if not e.rigid),
                   key=lambda t: links[t].b)
    cap = min((e.b for e in links if e.rigid), default=math.inf)
    want = exact_scan(G[0, order], np.array([links[t].b for t in order]), d,
                      cap)
    got = dipole_delay_rows([e.b for e in links], [e.rigid for e in links],
                            G, d)[0]
    assert _within_4_ulps(got, want)


def test_a_conductance_of_negative_zero_conducts_nothing():
    # Instance validation takes c = -0.0, as -0.0 >= 0.  A first column of
    # -0.0 must not make d / den a delay of -inf, which would hide the row.
    got = parallel_links_delay_batch(np.array([[-0.0, 2.0]]),
                                     np.array([0.0, 1.0]), 1.0)
    assert got[0] == 1.5
    links = [Edge("a", "s", "t", c=-0.0, b=0.0),
             Edge("b", "s", "t", c=1.0, b=1.0, mu=1.0)]
    best = best_single_edge_allocation(links, 1.0, 1.0)
    assert (best.edge_id, best.delay) == ("b", 1.5)


def test_scan_ties_take_the_shorter_used_set():
    # (1 + 1 * 0) / 1 = 1 is exactly the next length: the first link alone.
    got = parallel_links_delay_batch(np.array([[1.0, 5.0]]),
                                     np.array([0.0, 1.0]), 1.0)
    assert got[0] == 1.0


# ---------------------------------------------------------------------------
# Grid blocks


def _twin_dipole():
    """Two identical integer links, whose delay depends only on the sum of
    their budgets (so every full split ties exactly), and a long link that
    no budget brings into use."""
    return make_dipole([(1.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1e6, 1.0)],
                       demand=5.0, budget=9.0)


def _twin_paths():
    """Two identical two-edge paths (the splits k, R - k tie exactly) and a
    long third path that no budget brings into use."""
    edges = []
    for p, length in (("p", 0.0), ("q", 0.0), ("z", 1e6)):
        edges += [Edge(f"{p}1", "s", f"{p}m", c=1.0, b=length, mu=1.0),
                  Edge(f"{p}2", f"{p}m", "t", c=2.0, b=0.0)]
    nodes = ("s", "t", "pm", "qm", "zm")
    return Instance(nodes=nodes, edges=tuple(edges),
                    commodities=(Commodity("s", "t", 4.0),), budget=3.0)


def _paths(spec, demand, budget):
    """Parallel s-t paths from lists of (c, b, mu) or (c, b, mu, rigid)
    edge tuples, the edges of path p named p<p>e<k>."""
    nodes, edges = ["s", "t"], []
    for p, path in enumerate(spec):
        ends = ["s"] + [f"v{p}{k}" for k in range(1, len(path))] + ["t"]
        nodes += ends[1:-1]
        for k, e in enumerate(path):
            rigid = len(e) > 3 and e[3]
            edges.append(Edge(f"p{p}e{k}", ends[k], ends[k + 1], c=e[0], b=e[1],
                              mu=0.0 if rigid else e[2], rigid=rigid))
    return Instance(nodes=tuple(nodes), edges=tuple(edges),
                    commodities=(Commodity("s", "t", demand),), budget=budget)


def _rigid_dipole():
    """Two improvable links, a fixed one and a rigid one."""
    return make_dipole([(1.0, 0.0, 1.0), (0.5, 0.5, 2.0), (0.3, 1.0, 0.0),
                        (0.0, 2.0, 0.0, True)], demand=6.0, budget=2.0)


def _four_links():
    return make_dipole([(1.0, 0.0, 0.5), (0.5, 0.5, 1.0), (2.0, 1.0, 0.25),
                        (0.25, 2.0, 2.0)], demand=8.0, budget=3.0)


def _rigid_paths():
    """Every non-rigid conductance positive: a rigid edge on a path, a fixed
    edge, and a rigid path that caps the delay."""
    return _paths([[(1.0, 0.0, 1.0), (0.0, 0.5, 0.0, True)],
                   [(0.5, 0.2, 2.0), (3.0, 0.1, 0.0)],
                   [(0.0, 2.5, 0.0, True)],
                   [(2.0, 1.0, 0.5)]], demand=4.0, budget=3.0)


def _dry_paths():
    """An improvable edge of zero conductance, whose path is closed until it
    gets budget, and one of subnormal conductance, whose g crosses 1e-300
    on the grid: where both are dry, 1 / g overflows and no path conducts."""
    return _paths([[(0.0, 0.0, 1.0)],
                   [(1e-310, 0.5, 1e-300), (2.0, 0.0, 0.0)]],
                  demand=3.0, budget=2.0)


GRIDS = [(_twin_dipole, 9), (_twin_paths, 11), (_rigid_dipole, 5),
         (_four_links, 8), (_rigid_paths, 9), (_dry_paths, 10)]


def _traced_search(monkeypatch, inst, R):
    """``grid_search`` with every row it evaluates, in order, as pairs of
    the row's allocation on the improvable edges and its delay."""
    trace = []
    offer = oracle._offer
    edges = inst.improvable_edges()

    def recording(best, ls, coords):
        betas = np.multiply(coords(np.arange(len(ls))), inst.budget / R)
        trace.extend(({e.id: float(v) for e, v in zip(edges, row)},
                      float(L)) for row, L in zip(betas, ls))
        return offer(best, ls, coords)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_offer", recording)
        return grid_search(inst, GridSpec(resolution=R)), trace


@pytest.mark.parametrize("make, R", GRIDS)
def test_grid_does_not_depend_on_block_size(monkeypatch, make, R):
    # The first run is isolated.  The others take blocks of up to 7 rows,
    # the last one shorter (and at R = 5 the first one too), or one block of
    # all rows, after searches, replays and sweeps on instances of other
    # shapes, none of which may leave a trace.
    inst = make()
    base, base_trace = _traced_search(monkeypatch, inst, R)
    assert evaluate_delay(inst, base.allocation) == base.delay
    parts = len(inst.improvable_edges()) + 1
    assert len(list(oracle.compositions(R, parts, 7))[-1]) < 7
    if make in (_twin_dipole, _twin_paths):
        delays = [L for _, L in base_trace]
        best = [r for r, L in enumerate(delays) if L == base.delay]
        assert len(best) > 1 and best[-1] - best[0] > 7  # ties across blocks
        edges = inst.improvable_edges()
        first = min((base_trace[r][0] for r in best),
                    key=lambda beta: [beta[e.id] for e in edges])
        assert base.allocation.beta == {eid: v for eid, v in first.items()
                                        if v > 0.0}  # lexicographically
    for rows in (7, 10**9):
        monkeypatch.setattr(oracle, "_GRID_ROWS", rows)
        for build, r in GRIDS:
            if build is make:
                continue
            other = build()
            res = (_traced_search(monkeypatch, other, r)[0] if rows == 7
                   else grid_search(other, GridSpec(resolution=r)))
            evaluate_delay(other, res.allocation)
            if build is _dry_paths:  # unfunded, no path conducts in range
                with pytest.raises(Infeasible):
                    sweep_segment(other, Allocation(), res.allocation, 3)
            else:
                sweep_segment(other, Allocation(), res.allocation, 3)
            res, trace = _traced_search(monkeypatch, inst, R)
            assert res.delay == base.delay
            assert res.allocation == base.allocation
            assert res.evaluations == base.evaluations == len(base_trace)
            assert trace == base_trace


def _reference_path_delays(inst, edges, betas, guards=True):
    """The path conductances as a guarded loop forms them, every edge's
    reciprocal clamped at 1e300 and inf for a zero g, then the cumsum
    reference scan over the non-rigid paths.  Without the guards the
    conductance is the plain 1 / sum 1 / g.  A path with one non-rigid edge
    has that edge's g as its conductance either way."""
    ppi = as_parallel_paths(inst)
    beta_of = {e.id: betas[:, j] for j, e in enumerate(edges)}
    c = np.zeros((len(betas), len(ppi.paths)))
    with np.errstate(divide="ignore", over="ignore"):
        for col, p in enumerate(ppi.paths):
            free = [e for e in p.edges if not e.rigid]
            if len(free) == 1:
                c[:, col] = free[0].c + free[0].mu * beta_of.get(free[0].id,
                                                                 0.0)
                continue
            r = 0.0
            for e in free:
                g = e.c + e.mu * beta_of.get(e.id, 0.0)
                r = r + (np.where(g > 0.0, 1.0 / np.maximum(g, 1e-300),
                                  np.inf) if guards else np.divide(1.0, g))
            c[:, col] = (np.where(np.isfinite(r), 1.0 / np.maximum(r, 1e-300),
                                  0.0) if guards else np.divide(1.0, r))
    keep = [t for t, p in enumerate(ppi.paths) if not p.profile.all_rigid]
    cap = min((p.length for p in ppi.paths if p.profile.all_rigid),
              default=math.inf)
    return reference_scan(c[:, keep], np.array([ppi.paths[t].length
                                                for t in keep]),
                          ppi.demand, cap)


@pytest.mark.parametrize("make, guarded", [(_rigid_paths, False),
                                           (_dry_paths, True)])
def test_path_conductances_match_the_reference(make, guarded):
    # Every path's conductance is the plain 1 / sum 1 / g, with no pad or
    # floor.  The guarded loop's floats differ from it only on the instance
    # with an edge of c below 1e-300, where a guard can act.
    inst = make()
    edges = inst.improvable_edges()
    assert guarded == any(e.c < 1e-300 for e in inst.edges if not e.rigid)
    R = 12
    betas = np.vstack(list(oracle.compositions(R, len(edges) + 1)))[:, :-1] \
        * (inst.budget / R)
    got = oracle._closed_form(inst, edges).delays(betas)
    assert np.array_equal(got, _reference_path_delays(inst, edges, betas,
                                                      guards=False))
    guarded_rows = _reference_path_delays(inst, edges, betas)
    assert np.array_equal(got, guarded_rows) != guarded


def test_a_dipole_scans_as_paths_of_one_edge(rng, monkeypatch):
    # Random affine dipoles with a rigid link, an improvable link of zero
    # conductance and tied lengths, in a shuffled instance order, searched
    # over their improvable links: every grid row is the dipole
    # closed form on c + mu * beta with the links in edge-id order, which
    # is the order tied lengths are summed in.
    reordered = 0
    for _ in range(30):
        m = int(rng.integers(3, 7))
        links = [Edge(f"e{t}", "s", "t", c=0.0 if t == 0 else
                      float(rng.uniform(0.1, 3.0)),
                      b=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
                      mu=float(rng.uniform(0.1, 2.0))) for t in range(m)]
        links.append(Edge("r", "s", "t", c=0.0, b=float(rng.uniform(1.0, 4.0)),
                          mu=0.0, rigid=True))
        inst = Instance(nodes=("s", "t"),
                        edges=tuple(links[t] for t in
                                    rng.permutation(len(links))),
                        commodities=(Commodity("s", "t",
                                               float(rng.uniform(0.5, 8.0))),),
                        budget=float(rng.uniform(0.5, 3.0)))
        trace = _traced_search(monkeypatch, inst, 6)[1]
        got = np.array([L for _, L in trace])

        def rows(links):
            c_eff = np.array([[e.c + e.mu * beta.get(e.id, 0.0) for e in links]
                              for beta, _ in trace])
            return dipole_delay_rows([e.b for e in links],
                                     [e.rigid for e in links], c_eff,
                                     inst.commodities[0].demand)

        assert np.array_equal(got, rows(sorted(inst.edges,
                                               key=lambda e: e.id)))
        reordered += not np.array_equal(got, rows(inst.edges))
    assert reordered  # instance order would sum some ties differently


def test_a_dipole_of_dead_links_goes_to_the_path_engine():
    # No link conducts or can: as_parallel_paths rejects the dipole, and the
    # path engine reports it infeasible.
    inst = make_dipole([(0.0, 1.0, 0.0), (0.0, 0.5, 0.0)], demand=1.0,
                       budget=1.0)
    assert oracle._closed_form(inst, inst.improvable_edges()) is None
    with pytest.raises(Infeasible):
        evaluate_delay(inst, Allocation())
    with pytest.raises(Infeasible):
        grid_search(inst, GridSpec(resolution=3))


# ---------------------------------------------------------------------------
# A common delay above the float range

FAR = {
    "nodes": ["s", "t"],
    "edges": [
        {"id": "a", "tail": "s", "head": "t", "c": 1e-300, "b": 0, "mu": 1e-300},
        {"id": "b", "tail": "s", "head": "t", "c": 1e-300, "b": 1, "mu": 0},
    ],
    "commodities": [{"source": "s", "sink": "t", "demand": 1e10}],
    "budget": 1,
}


def test_closed_form_rejects_a_delay_out_of_range():
    inst = parse_instance(json.dumps(FAR))
    with pytest.raises(ValidationError, match="floating-point range"):
        solve_parallel_links_equilibrium(inst.edges, None, 1e10)
    dead = [Edge("a", "s", "t", c=0.0, b=0.0, mu=1.0)]
    with pytest.raises(Infeasible, match="no usable link"):
        solve_parallel_links_equilibrium(dead, None, 1.0)


@pytest.mark.parametrize("argv", [
    ["solve", "--alg", "copt"], ["solve", "--alg", "parallel-links"],
    ["solve", "--alg", "fptas"], ["equilibrium"]])
def test_cli_exits_2_on_a_delay_out_of_range(tmp_path, argv):
    path = tmp_path / "far.json"
    path.write_text(json.dumps(FAR))
    proc = subprocess.run([sys.executable, "-m", "netimprove", *argv,
                           str(path)], capture_output=True, text=True)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert "out of floating-point range" in proc.stderr
    assert "Traceback" not in proc.stderr


# Link a alone would carry the demand at a delay out of range; with b funded
# the common delay is 1e10 + 1.
NEAR = dict(FAR, edges=[FAR["edges"][0],
                        {"id": "b", "tail": "s", "head": "t", "c": 0, "b": 1,
                         "mu": 1}])


def test_a_prefix_whose_delay_overflows_fails_its_window(tmp_path):
    # The prefix {a} has delay inf, which the least prefix delay skips.
    got = dipole_delay_rows([0.0, 1.0], [False, False],
                            np.array([[1e-300, 1.0]]), 1e10)
    assert got[0] == 1e10 + 1.0
    inst = parse_instance(json.dumps(NEAR))
    beta = Allocation({"b": 1.0})
    closed = solve_parallel_links_equilibrium(inst.edges, beta, 1e10)
    paths = _solve_paths(inst, beta)
    assert closed.average_delay == paths.average_delay == 1e10 + 1.0
    assert closed.common_delay == paths.common_delay
    assert closed.flow.edge_flow == paths.flow.edge_flow
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR))
    proc = subprocess.run([sys.executable, "-m", "netimprove", "solve",
                           "--alg", "parallel-links", str(path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["L"] == 1e10 + 1.0
